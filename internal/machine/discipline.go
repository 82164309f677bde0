package machine

import (
	"fmt"
	"sort"

	"tcfpram/internal/mem"
)

// The memory-discipline cross-checker (Config.MemDiscipline) is the runtime
// counterpart of the tcfvet static analyzer: under EREW or CREW every shared
// read and write of a lockstep step is recorded with full provenance and the
// per-address access sets are audited at the step boundary, before commit.
// A same-step conflict on one word between two distinct (flow, lane) threads
// stops the run with a *DisciplineViolation wrapping ErrDisciplineViolation.
//
// Two accesses from the same (flow, lane) never conflict: a NUMA bunch's
// LD+ST sequence and a flow-common broadcast load (every lane reads one word
// through a single flow-level fetch, recorded as lane 0) are sequential
// semantics within one thread, not concurrent references. Multioperations
// and multiprefixes are exempt by construction — concurrent combining is
// their point — and immediate (non-lockstep) plans serialize memory within
// the step, so nothing is recorded for them.

// discAcc is one recorded shared-memory access, kept word-sized-small so the
// per-step recording arena stays cheap to fill and sort.
type discAcc struct {
	addr  int64
	flow  int
	lane  int
	pc    int
	write bool
}

// DiscAccess is one side of a discipline violation: which thread (flow and
// lane) touched the word, at which program counter, and whether it wrote.
type DiscAccess struct {
	Flow  int
	Lane  int
	PC    int
	Write bool
}

// DisciplineViolation reports the first (in deterministic address/thread
// order) same-step conflict the cross-checker found. It wraps
// ErrDisciplineViolation, so errors.Is dispatches on the sentinel and
// errors.As recovers the provenance.
type DisciplineViolation struct {
	Discipline mem.Discipline
	Step       int64
	Addr       int64
	// Kind is "write-write", "read-write" or "read-read" (the last under
	// EREW only).
	Kind          string
	First, Second DiscAccess
}

func (v *DisciplineViolation) Error() string {
	return fmt.Sprintf("%s violation at step %d: %s conflict on address %d: "+
		"flow %d lane %d pc %d vs flow %d lane %d pc %d",
		v.Discipline, v.Step, v.Kind, v.Addr,
		v.First.Flow, v.First.Lane, v.First.PC,
		v.Second.Flow, v.Second.Lane, v.Second.PC)
}

func (v *DisciplineViolation) Unwrap() error { return ErrDisciplineViolation }

// checkDiscipline audits the step's recorded accesses and returns the first
// violation, or nil. The accesses are sorted by (address, writes-first,
// flow, lane, pc), so the reported pair is deterministic regardless of the
// groups' recording order; each equal-address run is then scanned in O(run
// length).
func (m *Machine) checkDiscipline() *DisciplineViolation {
	if len(m.discAccs) == 0 {
		return nil
	}
	d := m.cfg.MemDiscipline
	accs := m.discAccs
	sort.Slice(accs, func(i, j int) bool {
		a, b := &accs[i], &accs[j]
		if a.addr != b.addr {
			return a.addr < b.addr
		}
		if a.write != b.write {
			return a.write // writes first within an address
		}
		if a.flow != b.flow {
			return a.flow < b.flow
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.pc < b.pc
	})
	for lo := 0; lo < len(accs); {
		hi := lo + 1
		for hi < len(accs) && accs[hi].addr == accs[lo].addr {
			hi++
		}
		if v := checkAddrRun(d, accs[lo:hi]); v != nil {
			return v
		}
		lo = hi
	}
	return nil
}

// checkAddrRun checks one equal-address run of sorted accesses. Writes sort
// first, so run[0] is a write whenever the run contains one; any later
// access from a different (flow, lane) then completes a conflicting pair.
// Under EREW the first access conflicts with any differing thread even when
// nothing writes; under CREW a run without writes is always legal.
func checkAddrRun(d mem.Discipline, run []discAcc) *DisciplineViolation {
	if len(run) < 2 {
		return nil
	}
	a := run[0]
	if !a.write && d != mem.DisciplineEREW {
		return nil
	}
	for _, b := range run[1:] {
		if b.flow == a.flow && b.lane == a.lane {
			continue
		}
		kind := "read-read"
		switch {
		case a.write && b.write:
			kind = "write-write"
		case a.write || b.write:
			kind = "read-write"
		}
		return &DisciplineViolation{
			Discipline: d,
			Addr:       a.addr,
			Kind:       kind,
			First:      DiscAccess{Flow: a.flow, Lane: a.lane, PC: a.pc, Write: a.write},
			Second:     DiscAccess{Flow: b.flow, Lane: b.lane, PC: b.pc, Write: b.write},
		}
	}
	return nil
}
