package machine

import (
	"fmt"
	"math"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/tcf"
)

// fragmentUnsafe is auto-split's one rejoin predicate (Section 3.3): the
// instructions a fragment, a window of its container's lanes, leaves to the
// container at full width — what must see every lane (a reduction, a lane
// extract, a flow-common TID, a multiprefix, every output), what the flow
// does once (a flow-level memory reference), what names the flow or where it
// runs (FID, GID, PID, local memory), and a change of thickness, mode or
// structure. Callers test f.IsFragment first.
func fragmentUnsafe(in *isa.Instr) bool {
	switch op := in.Op; {
	case op == isa.PRINT, op == isa.PRINTS, op == isa.FID, op == isa.GID, op == isa.PID,
		op == isa.SETTHICK, op == isa.NUMA, op == isa.PRAM, op == isa.SPLIT,
		op.IsReduction(), op.IsMultiprefix(), op.Info().LocalRef, op.Info().MemRef && !in.Thick():
		return true
	case !in.Rd.IsScalar():
		return false
	case op == isa.TID:
		return true
	}
	switch in.Op.Info().Args {
	case isa.ArgsDA:
		return in.Ra.IsVector()
	case isa.ArgsDAB:
		return in.Ra.IsVector() || (!in.HasImm && in.Rb.IsVector())
	case isa.ArgsDABC:
		return in.Ra.IsVector() || in.Rb.IsVector() || in.Rc.IsVector()
	case isa.ArgsDMem:
		return in.Ra.IsVector()
	}
	return false
}

// combining is the combining traffic one group generated in a step: one log
// per kind, which the combiners retain by pointer from the fold to the
// commit. A multiprefix run carries the stretch of the flow's destination
// register its prefixes come back into. refs counts the references, so that
// the many steps without any skip the per-kind walks.
type combining struct {
	logs [len(multiop.Kinds)]multiop.Log
	refs int
}

func (c *combining) reset() {
	if c.refs == 0 {
		return
	}
	for k := range c.logs {
		c.logs[k].Reset()
	}
	c.refs = 0
}

// eventKind tags deferred cross-flow events processed after operation
// generation.
type eventKind int

const (
	evSplit eventKind = iota
	evChildDone
	evAutoSplit
	// evFragmentRejoin: an auto-split fragment hands its lanes back at an
	// instruction of the rejoin predicate (fragmentUnsafe).
	evFragmentRejoin
	evFragmentStep // a fragment waits for its siblings (Machine.stepSiblings)
)

type deferredEvent struct {
	kind eventKind
	flow *tcf.Flow      // split parent, finished child, auto-split victim or fragment
	arms []isa.SplitArm // evSplit: the instruction's arms, validated
}

// groupCounters is the per-step statistics block of one group's execution —
// every scalar foldGroup adds into Stats — split out of groupExec so
// that reset zeroes it with one assignment.
type groupCounters struct {
	ops       int64
	scalarOps int64
	fetches   int64

	anyShared bool
	maxDist   int
	stall     int64

	sharedReads  int64
	sharedWrites int64
	localReads   int64
	localWrites  int64
	multiopRefs  int64
	barriers     int64

	// done counts the flows this group's step took to Done; the fold takes
	// them off Machine.live in group order.
	done int
}

// groupExec carries the per-group execution state of one step. Groups run
// independently of each other within a step; each is folded into the machine
// as it finishes, in group order. One arena per group lives on the Machine
// and is reset — never reallocated — every step.
type groupExec struct {
	m *Machine
	g *Group

	// fenv is the group's compiled-kernel environment: everything a fuse.Kern
	// may read besides the flow itself.
	fenv fuse.Env

	// idle marks an arena zeroed for a group without a ready resident and
	// not written since: such a group is neither reset, run nor folded
	// (Machine.generate), and a trace reads zero cycles and no slices off it.
	idle bool
	// immediate caches !plan.Lockstep, fixed at New: XMT-style memory
	// semantics where loads see the current state and stores apply
	// instantly.
	immediate bool
	// splitAt is the auto-split threshold on a variant with the control
	// parallelism to rejoin with, 0 otherwise (settle), fixed at New.
	splitAt int

	groupCounters

	// kern counts, for Machine.KernelStats, how this arena's operation slices
	// were generated. Host-side, cumulative over the run: cleared by
	// Machine.Reset, not by the per-step reset.
	kern KernelStats

	// rowMax is the largest group→module distance in this group's row of
	// the distance table — the saturation bound for maxDist, set at build.
	rowMax int

	writes mem.WriteLog
	combining
	events  []deferredEvent
	outputs []Output
	slices  []SliceExec

	// disc caches "the memory-discipline cross-checker records the steps"
	// (Config.MemDiscipline checks and the plan is lockstep), fixed at New;
	// accs is the group's reused recording arena, audited after generation.
	disc bool
	accs []discAcc

	// fwd holds the shared stores of the flow currently executing a NUMA
	// bunch under buffered semantics: the last value of every word it stored,
	// which its later loads see, and fwdAddrs those words in the order of
	// their first store. The bunch runs with sequential semantics, so when it
	// ends the step buffers one store per word, the last (execNUMABunch). The
	// map is allocated at the first such store and cleared by the next bunch
	// that finds it non-empty; fwdOn gates lookups.
	fwd      map[int64]int64
	fwdAddrs []int64
	fwdOn    bool

	err error
}

// reset prepares the arena for a new step, keeping every allocation.
func (x *groupExec) reset() {
	x.idle = false
	x.groupCounters = groupCounters{}
	x.writes.Reset()
	x.combining.reset()
	x.events = x.events[:0]
	x.outputs = x.outputs[:0]
	x.slices = x.slices[:0]
	x.accs = x.accs[:0]
	x.fwdOn = false
	x.err = nil
}

func (x *groupExec) failf(format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("machine: group %d: %s", x.g.Index, fmt.Sprintf(format, args...))
	}
}

// failw is failf wrapping a sentinel from the error taxonomy.
func (x *groupExec) failw(sentinel error, format string, args ...any) {
	if x.err == nil {
		x.err = fmt.Errorf("machine: group %d: %s: %w", x.g.Index, fmt.Sprintf(format, args...), sentinel)
	}
}

// noteShared records a shared-memory reference for the latency model.
func (x *groupExec) noteShared(addr int64, numaMode bool) {
	dist := x.m.dist[x.g.Index*x.m.nmods+x.m.shared.ModuleOf(addr)]
	if numaMode {
		// NUMA-mode references stall inline: base + distance cycles.
		x.stall += int64(x.m.cfg.MemLatencyBase + dist)
		return
	}
	x.anyShared = true
	if dist > x.maxDist {
		x.maxDist = dist
	}
}

// loadShared performs a shared-memory read with the step semantics of the
// engine (pre-step snapshot, or immediate in XMT mode) plus store-to-load
// forwarding of the flow's own same-step writes. lane identifies the
// reading thread for the discipline cross-checker; flow-common broadcast
// loads pass lane 0 (one flow-level fetch, not per-lane references).
func (x *groupExec) loadShared(f *tcf.Flow, addr int64, lane int) int64 {
	x.sharedReads++
	if x.disc {
		x.accs = append(x.accs, discAcc{addr: addr, flow: f.ID, lane: lane, pc: f.PC})
	}
	x.noteShared(addr, f.Mode == tcf.NUMA)
	if x.immediate {
		return x.m.shared.Peek(addr)
	}
	if x.fwdOn && len(x.fwd) > 0 {
		if v, ok := x.fwd[addr]; ok {
			return v
		}
	}
	return x.m.shared.Peek(addr)
}

// storeShared buffers (or immediately applies) a shared-memory write; inside
// a NUMA bunch it goes to the bunch's forwarding table instead.
func (x *groupExec) storeShared(f *tcf.Flow, addr, val int64, lane int) {
	x.sharedWrites++
	if x.disc {
		x.accs = append(x.accs, discAcc{addr: addr, flow: f.ID, lane: lane, pc: f.PC, write: true})
	}
	x.noteShared(addr, f.Mode == tcf.NUMA)
	if x.immediate {
		x.m.shared.Poke(addr, val)
		return
	}
	if !x.fwdOn {
		x.writes.Append(addr, val, mem.Key{Flow: f.ID, Thread: lane})
		return
	}
	if x.fwd == nil {
		x.fwd = make(map[int64]int64, 16)
	}
	if _, ok := x.fwd[addr]; !ok {
		x.fwdAddrs = append(x.fwdAddrs, addr)
	}
	x.fwd[addr] = val
}

// effAddr computes the effective address of a memory operand for lane i.
func effAddr(f *tcf.Flow, in *isa.Instr, i int) int64 {
	if in.Ra == isa.RegNone {
		return in.Imm
	}
	return f.Lane(in.Ra, i) + in.Imm
}

// execLane executes lane i of an elementwise instruction.
func (x *groupExec) execLane(f *tcf.Flow, in *isa.Instr, i, seq int) {
	x.kern.PerLaneLanes++
	switch {
	case in.Op == isa.LDI:
		f.SetLane(in.Rd, i, in.Imm)
	case in.Op == isa.MOV:
		f.SetLane(in.Rd, i, f.Lane(in.Ra, i))
	case in.Op == isa.NEG, in.Op == isa.NOT:
		f.SetLane(in.Rd, i, isa.EvalUnary(in.Op, f.Lane(in.Ra, i)))
	case in.Op.IsBinaryALU():
		b := in.Imm
		if !in.HasImm {
			b = f.Lane(in.Rb, i)
		}
		f.SetLane(in.Rd, i, isa.Eval(in.Op, f.Lane(in.Ra, i), b))
	case in.Op == isa.SEL:
		v := f.Lane(in.Rc, i)
		if f.Lane(in.Ra, i) != 0 {
			v = f.Lane(in.Rb, i)
		}
		f.SetLane(in.Rd, i, v)
	case in.Op == isa.TID:
		if f.Mode == tcf.NUMA || in.Rd.IsScalar() {
			f.SetLane(in.Rd, i, 0)
		} else {
			// A fragment numbers its container's lanes from its offset.
			f.SetLane(in.Rd, i, int64(f.TidOffset+i))
		}
	case in.Op == isa.FID:
		f.SetLane(in.Rd, i, int64(f.ID))
	case in.Op == isa.THICK:
		t := f.Thickness
		if f.IsFragment {
			t = f.Parent.Thickness // a fragment answers for its container
		}
		f.SetLane(in.Rd, i, int64(t))
	case in.Op == isa.GID:
		f.SetLane(in.Rd, i, int64(x.g.Index))
	case in.Op == isa.PID:
		f.SetLane(in.Rd, i, int64(f.Home))
	case in.Op == isa.NPROC:
		f.SetLane(in.Rd, i, int64(x.m.cfg.TotalProcessors()))
	case in.Op == isa.NGRP:
		f.SetLane(in.Rd, i, int64(x.m.cfg.Groups))
	case in.Op == isa.LD:
		f.SetLane(in.Rd, i, x.loadShared(f, effAddr(f, in, i), i))
	case in.Op == isa.ST:
		x.storeShared(f, effAddr(f, in, i), f.Lane(in.Rb, i), i)
	case in.Op == isa.LDL:
		x.localReads++
		f.SetLane(in.Rd, i, x.g.Local.Read(effAddr(f, in, i)))
	case in.Op == isa.STL:
		x.localWrites++
		x.g.Local.Write(effAddr(f, in, i), f.Lane(in.Rb, i))
	case in.Op.IsMultiop() || in.Op.IsMultiprefix():
		if !x.immediate {
			x.combineLanes(f, in, i, 1, seq)
			return
		}
		// XMT-style semantics: combine against the current state, lane
		// order within the flow.
		x.multiopRefs++
		addr := effAddr(f, in, i)
		x.noteShared(addr, f.Mode == tcf.NUMA)
		cur, val := x.m.shared.Peek(addr), f.Lane(in.Rb, i)
		if in.Op.IsMultiprefix() {
			f.SetLane(in.Rd, i, cur) // Rd may be Rb: val is read first
		}
		x.m.shared.Poke(addr, multiop.Apply(in.Op.CombineKind(), cur, val))
	default:
		x.failf("flow %d: opcode %s has no lane semantics", f.ID, in.Op)
	}
}

// storeOperands hoists the operands of a store-shaped instruction (ST, the
// multioperations and multiprefixes) out of the reference path's lane loop:
// lane i references base, plus av[i] when the address register is
// thread-wise, with the value bv[i], or the flow-common bs when bv is nil.
func storeOperands(f *tcf.Flow, in *isa.Instr) (av, bv []int64, base, bs int64) {
	base = in.Imm
	if in.Ra.IsVector() {
		av = f.Vector(in.Ra)
	} else if in.Ra != isa.RegNone {
		base += f.Scalar(in.Ra)
	}
	if in.Rb.IsVector() {
		bv = f.Vector(in.Rb)
	} else {
		bs = f.Scalar(in.Rb)
	}
	return av, bv, base, bs
}

// bulkMemRange executes lanes [first, first+n) of a shared-memory LD or ST
// as one bulk operation, returning false when the caller must take the
// per-lane reference path (discipline records, forwarding and NUMA stalls).
// A reference machine never calls it.
func (x *groupExec) bulkMemRange(f *tcf.Flow, in *isa.Instr, first, n int) bool {
	// Bulk shared-memory kernels engage only on the uniform fast path: no
	// discipline recording, lockstep (buffered) semantics, PRAM mode, no
	// store-to-load forwarding. A PRAM-mode reference then does no more than
	// raise maxDist, which depends only on the set of modules the lanes
	// reach, so noting them out of the lane loop is observationally identical.
	if n <= 0 || x.disc || x.immediate || x.fwdOn || f.Mode == tcf.NUMA {
		return false
	}
	end := first + n
	sh := x.m.shared
	row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
	// maxDist only grows toward the group's row maximum; once it saturates
	// the per-lane module lookup is dead work, so the loops below drop it.
	rowMax := x.rowMax
	switch in.Op {
	case isa.LD:
		if !in.Rd.IsVector() {
			return false
		}
		maxDist := x.maxDist
		var base, stride int64
		affine := false
		if in.Ra.IsVector() {
			base, stride, affine = f.Affine(in.Ra)
		}
		imm := in.Imm
		switch lo := base + imm + int64(first); {
		case !in.Ra.IsVector():
			// Flow-common broadcast: one word, fetched once per lane in the
			// reference path; the module distance is the same every time.
			if in.Ra != isa.RegNone {
				imm += f.Scalar(in.Ra)
			}
			if d := row[sh.ModuleOf(imm)]; d > maxDist {
				maxDist = d
			}
			isa.Fill(f.Dest(in.Rd, first, end), sh.Peek(imm))
		case affine && stride == 1 && sh.InRange(lo) && sh.InRange(lo+int64(n-1)):
			// An address register in affine form of stride 1 — a[tid+c] —
			// reads page-wise, without a lane of the address.
			maxDist = sh.MaxOverRun(row, maxDist, lo, n)
			sh.PeekRun(f.Dest(in.Rd, first, end), lo)
		default:
			av := f.Vector(in.Ra)[first:end]
			dst := f.Dest(in.Rd, first, end)
			i := 0
			// Addresses that ascend by one from the first lane on and stay in
			// range, whatever instruction computed them, are read page-wise too.
			// The first break sends the remaining lanes through the cursor below.
			if base, k := av[0]+imm, consecutive(av); sh.InRange(base) && sh.InRange(base+int64(k-1)) {
				maxDist = sh.MaxOverRun(row, maxDist, base, k)
				sh.PeekRun(dst[:k], base)
				i += k
			}
			rd := sh.Reader()
			for ; i < n && maxDist < rowMax; i++ {
				addr := av[i] + imm
				if d := row[sh.ModuleOf(addr)]; d > maxDist {
					maxDist = d
				}
				dst[i] = rd.Peek(addr)
			}
			for ; i < n; i++ {
				dst[i] = rd.Peek(av[i] + imm)
			}
		}
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedReads += int64(n)
		return true

	case isa.ST:
		// One run, read by the commit where its words lie (mem.Operand).
		// Nothing writes the registers before the step commits (DESIGN.md
		// §17).
		a, v := operand(f, in.Ra, first, n, in.Imm), operand(f, in.Rb, first, n, 0)
		x.writes.Refer(mem.Issue{Flow: f.ID, Thread0: first, N: n}, &a, &v)
		x.note(&a, n, false)
		x.sharedWrites += int64(n)
		return true
	}
	return false
}

// note notes the n > 0 PRAM-mode references whose addresses are a, where
// noting one is no more than raising maxDist, and returns the interval they
// span, which for lanes it learns only when asked to bound them. A form is
// noted as a whole: a flow-common address once, a stretch of consecutive
// words in range by the modules of its first words, any other address by
// address until maxDist reaches the group's row maximum. Lanes are looked up
// until then too, but for an address that repeats the one before it, which
// is noted already, and read on to the end only to bound them.
func (x *groupExec) note(a *mem.Operand, n int, bound bool) (lo, hi int64) {
	row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
	sh := x.m.shared
	maxDist := x.maxDist
	x.anyShared = true
	if a.Lanes == nil {
		var ok bool
		lo, hi, ok = a.Span(n)
		switch {
		case a.Stride == 0:
			x.maxDist = max(maxDist, row[sh.ModuleOf(a.Base)])
		case a.Stride == 1 && ok && sh.InRange(lo) && sh.InRange(hi):
			x.maxDist = sh.MaxOverRun(row, maxDist, lo, n)
		default:
			for i := 0; i < n && maxDist < x.rowMax; i++ {
				maxDist = max(maxDist, row[sh.ModuleOf(a.At(i))])
			}
			x.maxDist = maxDist
		}
		return lo, hi
	}
	addrs, base := a.Lanes[:n], a.Base
	lo, hi = math.MaxInt64, math.MinInt64
	i := 0
	for ; i < n && maxDist < x.rowMax; i++ {
		v := addrs[i] + base
		lo, hi = min(lo, v), max(hi, v)
		if i > 0 && addrs[i] == addrs[i-1] {
			continue
		}
		maxDist = max(maxDist, row[sh.ModuleOf(v)])
	}
	if bound {
		for _, v := range addrs[i:] {
			lo, hi = min(lo, v+base), max(hi, v+base)
		}
	}
	x.maxDist = maxDist
	return lo, hi
}

// consecutive returns the length of the longest prefix of the non-empty a
// whose elements ascend by one.
func consecutive(a []int64) int {
	k := 1
	for k < len(a) && a[k] == a[k-1]+1 {
		k++
	}
	return k
}

// combineLanes buffers the combining references of lanes [first, first+n)
// of a multioperation or multiprefix for the step-boundary resolution as one
// run, and for a multiprefix the lanes of Rd its prefixes come back into. No
// instruction of the flow runs between here and the commit, so the registers'
// lanes stay where they are (DESIGN.md §17): a PRAM-mode run refers to its
// addresses and values where they lie — a form, or lanes of a register's
// bank — and its references are noted in one read-only pass that also bounds
// them. The reference, and a NUMA flow, whose references stall one by one,
// copy both into the log's columns instead.
func (x *groupExec) combineLanes(f *tcf.Flow, in *isa.Instr, first, n, seq int) {
	if n <= 0 {
		return
	}
	x.refs += n
	x.multiopRefs += int64(n)
	is := mem.Issue{Flow: f.ID, Seq: seq, Thread0: first, N: n}
	l := &x.logs[multiop.KindIndex(in.Op.CombineKind())]
	if numa := f.Mode == tcf.NUMA; numa || x.m.reference {
		av, bv, base, bs := storeOperands(f, in)
		r, addrs, vals := l.Open(is)
		if in.Op.IsMultiprefix() {
			r.Prefix = f.Vector(in.Rd)[first : first+n]
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for j := range addrs {
			addrs[j], vals[j] = base, bs
			if av != nil {
				addrs[j] += av[first+j]
			}
			if bv != nil {
				vals[j] = bv[first+j]
			}
			lo, hi = min(lo, addrs[j]), max(hi, addrs[j])
			x.noteShared(addrs[j], numa)
		}
		l.Bound(lo, hi)
		return
	}
	// The operands are read, forms included, before the destination is taken.
	a, v := operand(f, in.Ra, first, n, in.Imm), operand(f, in.Rb, first, n, 0)
	r := l.Refer(is, &a, &v)
	if in.Op.IsMultiprefix() {
		r.Prefix = x.prefixDest(f, in.Rd, first, first+n)
	}
	l.Bound(x.note(&a, n, true))
}

// operand returns lanes [first, first+n) of the operand r plus c where they
// lie: c alone for no register, plus the value of a flow-common one, the form
// of a thread-wise register in affine form, unread and left in it, and any
// other thread-wise register's bank.
func operand(f *tcf.Flow, r isa.Reg, first, n int, c int64) mem.Operand {
	switch {
	case r == isa.RegNone:
		return mem.Operand{Base: c}
	case !r.IsVector():
		return mem.Operand{Base: c + f.Scalar(r)}
	}
	if base, stride, ok := f.Affine(r); ok {
		return mem.Operand{Base: base + c + stride*int64(first), Stride: stride}
	}
	return mem.Operand{Lanes: f.Vector(r)[first : first+n], Base: c}
}

// prefixDest returns lanes [first, end) of rd for a multiprefix's results
// (Flow.Dest). A bank that comes unzeroed holds its lanes, as the reference's
// zeroed one would, only once the commit writes them: a step discarded before
// it zeroes them (Machine.discardStep).
func (x *groupExec) prefixDest(f *tcf.Flow, rd isa.Reg, first, end int) []int64 {
	missing := !f.VectorAllocated(rd)
	dst := f.Dest(rd, first, end)
	if missing {
		x.m.freshDests = append(x.m.freshDests, dst)
	}
	return dst
}

// execLaneRange executes lanes [first, first+n) of a sliceable instruction
// with seq 0, in lane order: a register instruction through its compiled
// kernel, a shared LD or ST on the uniform fast path as one bulk operation
// (bulkMemRange), a combining instruction as one buffered run, and everything
// else — on a reference machine every register instruction too — on the
// per-lane reference path, whose memory loops hoist the register-file lookups
// out of the lane loop. Vector operands of a sliceable instruction always span
// the full lane count (Flow.Vector sizes them to Lanes()), so both index
// directly.
func (x *groupExec) execLaneRange(f *tcf.Flow, fi *fuse.Instr, first, n int) {
	if fi.Kern != nil {
		fi.Kern(x.fenv, &fi.In, f, first, first+n)
		x.kern.BulkLanes += int64(n)
		return
	}
	in := &fi.In
	end := first + n
	if (in.Op == isa.LD || in.Op == isa.ST) && !x.m.reference && x.bulkMemRange(f, in, first, n) {
		x.kern.BulkLanes += int64(n)
		return
	}
	switch {
	case in.Op == isa.LD && in.Rd.IsVector():
		x.kern.PerLaneLanes += int64(n)
		dst := f.Vector(in.Rd)
		if in.Ra.IsVector() {
			av := f.Vector(in.Ra)
			for i := first; i < end; i++ {
				dst[i] = x.loadShared(f, av[i]+in.Imm, i)
			}
		} else {
			// Flow-common broadcast: every lane reads the one word the flow
			// fetched, so the discipline checker sees a single thread (lane
			// 0), not per-lane concurrent reads.
			base := in.Imm
			if in.Ra != isa.RegNone {
				base += f.Scalar(in.Ra)
			}
			for i := first; i < end; i++ {
				dst[i] = x.loadShared(f, base, 0)
			}
		}
	case in.Op == isa.ST:
		x.kern.PerLaneLanes += int64(n)
		av, bv, base, bs := storeOperands(f, in)
		for i := first; i < end; i++ {
			addr := base
			if av != nil {
				addr += av[i]
			}
			val := bs
			if bv != nil {
				val = bv[i]
			}
			x.storeShared(f, addr, val, i)
		}
	case (in.Op.IsMultiop() || in.Op.IsMultiprefix()) && !x.immediate:
		x.kern.BulkLanes += int64(n)
		x.combineLanes(f, in, first, n, 0)
	default:
		for i := first; i < end; i++ {
			x.execLane(f, in, i, 0)
		}
	}
}

// execAtomic executes flow-level instructions: reductions, prints, and the
// degenerate scalar forms. Control instructions are handled by the caller.
func (x *groupExec) execAtomic(f *tcf.Flow, in *isa.Instr) {
	switch {
	case in.Op.IsReduction():
		kind := in.Op.CombineKind()
		f.SetScalar(in.Rd, isa.Reduce(kind, multiop.Identity(kind), f.Vector(in.Ra)))
	case in.Op == isa.PRINT:
		out := Output{Flow: f.ID, Step: x.m.plan.Step}
		switch {
		case in.HasImm:
			out.Values = []int64{in.Imm}
		case in.Ra.IsScalar():
			out.Values = []int64{f.Scalar(in.Ra)}
		default:
			out.Values = append([]int64(nil), f.Vector(in.Ra)...)
		}
		x.outputs = append(x.outputs, out)
	case in.Op == isa.PRINTS:
		x.outputs = append(x.outputs, Output{Flow: f.ID, Step: x.m.plan.Step, Text: x.m.prog.Sym(*in)})
	case in.Op == isa.NOP:
	default:
		x.execLane(f, in, 0, 0)
	}
}
