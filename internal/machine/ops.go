package machine

import (
	"fmt"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/tcf"
)

// fragmentUnsafe reports whether an instruction cannot execute correctly in
// an auto-split fragment: anything funnelling thread-wise data into the
// flow-common scalar state would act on the fragment's lanes only
// (reductions, and scalar-destination operations with thread-wise sources —
// the lane-0 extract). The OS may only fragment flows whose continuation is
// free of such instructions; the machine fails loudly otherwise.
func fragmentUnsafe(f *tcf.Flow, in *isa.Instr) bool {
	if !f.IsFragment {
		return false
	}
	if in.Op.IsReduction() {
		return true
	}
	if !in.Rd.IsScalar() {
		return false
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
	// evFragmentRejoin: an auto-split fragment reached a thickness/mode/
	// structure change; the container resumes at that PC (with the
	// fragment's scalar state — identical across fragments by the
	// fragment-safety guard) once every fragment arrives.
	evFragmentRejoin
)

type deferredEvent struct {
	kind  eventKind
	flow  *tcf.Flow      // split parent, finished child, or auto-split victim
	arms  []isa.SplitArm // evSplit: the instruction's arms, validated
	thick int            // evAutoSplit: the logical thickness to fragment
	pc    int            // evFragmentRejoin: where the container resumes
}

// groupCounters is the per-step statistics block of one group's execution —
// every scalar the merge stage folds into Stats — split out of groupExec so
// that reset zeroes it with one assignment.
type groupCounters struct {
	ops       int64
	scalarOps int64
	fetches   int64

	anyShared bool
	maxDist   int
	stall     int64

	// Fault-injection accounting (Config.FaultPlan): retransmission and
	// detour stalls inflate cycles, never values.
	faultStall  int64
	retransmits int64
	reroutes    int64

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
// independently of each other within a step; their outputs are merged
// deterministically afterwards. One arena per group lives on the Machine and
// is reset — never reallocated — every step.
type groupExec struct {
	m *Machine
	g *Group

	// fenv is the group's compiled-kernel environment: everything a fuse.Kern
	// may read besides the flow itself.
	fenv fuse.Env

	// plan is the StepPlan stamped at reset; runGroup executes it.
	plan *StepPlan
	// idle marks an arena zeroed for a group without a ready resident and
	// not written since: such a group is neither reset, run nor folded
	// (backend.generate), and a trace reads zero cycles and no slices off it.
	idle bool
	// immediate caches !plan.Lockstep: XMT-style memory semantics where
	// loads see the current state and stores apply instantly.
	immediate bool

	// step is the step index this arena is generating, the plan's Step: what
	// fault decisions and PRINT provenance on the generation path read.
	step int64

	groupCounters

	// kern counts, for Machine.KernelStats, how this arena's operation slices
	// were generated. Host-side, cumulative over the run: cleared by
	// Machine.Reset, not by the per-step reset.
	kern KernelStats

	// rowMax is the largest group→module distance in this group's row of
	// the distance table — the saturation bound for maxDist, set at build.
	rowMax int

	// refSeq numbers the group's shared references within the step so each
	// one gets an independent deterministic fault decision.
	refSeq int64

	writes mem.WriteLog
	combining
	events  []deferredEvent
	outputs []Output
	slices  []SliceExec

	// disc caches "the memory-discipline cross-checker records this step"
	// (Config.MemDiscipline checks and the plan is lockstep); accs is the
	// group's reused recording arena, audited after the merge.
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

// reset prepares the arena for a new step under plan, keeping every
// allocation.
func (x *groupExec) reset(plan *StepPlan) {
	x.plan = plan
	x.idle = false
	x.immediate = !plan.Lockstep
	x.step = plan.Step
	x.groupCounters = groupCounters{}
	x.refSeq = 0
	x.writes.Reset()
	x.combining.reset()
	x.events = x.events[:0]
	x.outputs = x.outputs[:0]
	x.slices = x.slices[:0]
	x.disc = plan.Lockstep && x.m.cfg.MemDiscipline.Checks()
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

// noteShared records a shared-memory reference for the latency model. With
// a fault plan, the reference may detour around a dead route (extra
// distance) or be lost and retransmitted (backoff stall); both inflate
// cycles without touching the referenced value.
func (x *groupExec) noteShared(addr int64, numaMode bool) {
	module := x.m.shared.ModuleOf(addr)
	dist := x.m.dist[x.g.Index*x.m.nmods+module]
	if plan := x.m.cfg.FaultPlan; plan != nil {
		step := x.step
		if plan.RouteDown(x.g.Index, module, step) {
			dist += plan.Detour()
			x.reroutes++
		}
		x.refSeq++
		if r, ok := plan.MemRetries(x.g.Index, module, step, x.refSeq); r > 0 {
			if !ok {
				x.failw(ErrFaultUnrecoverable,
					"step %d: shared reference to module %d lost %d times, retries exhausted",
					step, module, r)
				return
			}
			x.retransmits += int64(r)
			x.faultStall += plan.RetryPenalty(r)
		}
	}
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
		if f.Mode == tcf.NUMA {
			f.SetLane(in.Rd, i, 0)
		} else {
			// Fragments of an auto-split flow carry their logical
			// thread-index offset.
			f.SetLane(in.Rd, i, int64(f.TidOffset+i))
		}
	case in.Op == isa.FID:
		f.SetLane(in.Rd, i, int64(f.ID))
	case in.Op == isa.THICK:
		// Report the logical thickness: a fragment answers for the whole
		// flow it belongs to.
		f.SetLane(in.Rd, i, int64(f.TotalThickness))
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
// multioperations and multiprefixes) out of its lane loop: lane i references
// base, plus av[i] when the address register is thread-wise, with the value
// bv[i], or the flow-common bs when bv is nil.
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

// fillColumn fills dst, one word per lane from lane first on, with an operand
// storeOperands hoisted: the flow-common c, plus v's lane when the register
// is thread-wise.
func fillColumn(dst, v []int64, first int, c int64) {
	switch {
	case v == nil:
		for i := range dst {
			dst[i] = c
		}
	case c == 0:
		copy(dst, v[first:])
	default:
		for i, e := range v[first : first+len(dst)] {
			dst[i] = e + c
		}
	}
}

// bulkMemRange executes lanes [first, first+n) of a shared-memory LD or ST
// as one bulk operation, returning false when the caller must take the
// per-lane reference path (refSeq accounting, discipline records, forwarding
// and NUMA stalls). A reference machine never calls it.
func (x *groupExec) bulkMemRange(f *tcf.Flow, in *isa.Instr, first, n int) bool {
	// Bulk shared-memory kernels engage only on the uniform fast path:
	// fault-free, no discipline recording, lockstep (buffered) semantics,
	// PRAM mode, no store-to-load forwarding. Per-reference bookkeeping is
	// then loop-invariant — refSeq never advances without a fault plan — so
	// hoisting it out of the lane loop is observationally identical.
	if n <= 0 || x.m.cfg.FaultPlan != nil || x.disc || x.immediate || x.fwdOn || f.Mode == tcf.NUMA {
		return false
	}
	end := first + n
	sh := x.m.shared
	// maxDist only grows toward the group's row maximum; once it saturates
	// the per-lane module lookup is dead work, so the loops below drop it.
	rowMax := x.rowMax
	switch in.Op {
	case isa.LD:
		if !in.Rd.IsVector() {
			return false
		}
		row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
		dst := f.Vector(in.Rd)
		maxDist := x.maxDist
		if in.Ra.IsVector() {
			av := f.Vector(in.Ra)
			imm := in.Imm
			i := first
			// Addresses that ascend by one from the first lane on and stay in
			// range — a[tid+c], whatever instruction computed them — are read
			// page-wise. The first break sends the remaining lanes through the
			// cursor below.
			if base, k := av[first]+imm, consecutive(av[first:end]); sh.InRange(base) && sh.InRange(base+int64(k-1)) {
				maxDist = sh.MaxOverRun(row, maxDist, base, k)
				sh.PeekRun(dst[first:first+k], base)
				i += k
			}
			rd := sh.Reader()
			for ; i < end && maxDist < rowMax; i++ {
				addr := av[i] + imm
				if d := row[sh.ModuleOf(addr)]; d > maxDist {
					maxDist = d
				}
				dst[i] = rd.Peek(addr)
			}
			for ; i < end; i++ {
				dst[i] = rd.Peek(av[i] + imm)
			}
		} else {
			// Flow-common broadcast: one word, fetched once per lane in the
			// reference path; the module distance is the same every time.
			base := in.Imm
			if in.Ra != isa.RegNone {
				base += f.Scalar(in.Ra)
			}
			if d := row[sh.ModuleOf(base)]; d > maxDist {
				maxDist = d
			}
			v := sh.Peek(base)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedReads += int64(n)
		return true

	case isa.ST:
		row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
		av, bv, base, bs := storeOperands(f, in)
		// One run, two column fills.
		addrs, vals := x.writes.Open(f.ID, 0, first, n)
		fillColumn(addrs, av, first, base)
		fillColumn(vals, bv, first, bs)
		maxDist := x.maxDist
		for i := 0; i < n && maxDist < rowMax; i++ {
			if d := row[sh.ModuleOf(addrs[i])]; d > maxDist {
				maxDist = d
			}
		}
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedWrites += int64(n)
		return true
	}
	return false
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
// of a multioperation or multiprefix for the step-boundary resolution: one
// run, two column fills, and for a multiprefix the lanes of Rd its prefixes
// come back into. No instruction of the flow runs between here and the
// commit, so the register's lanes stay where they are.
func (x *groupExec) combineLanes(f *tcf.Flow, in *isa.Instr, first, n, seq int) {
	av, bv, base, bs := storeOperands(f, in)
	run := multiop.Run{Run: mem.Run{Flow: f.ID, Seq: seq, Thread0: first, N: n}}
	if in.Op.IsMultiprefix() {
		run.Prefix = f.Vector(in.Rd)[first : first+n]
	}
	addrs, vals := x.logs[multiop.KindIndex(in.Op.CombineKind())].Open(run)
	fillColumn(addrs, av, first, base)
	fillColumn(vals, bv, first, bs)
	numa := f.Mode == tcf.NUMA
	for _, addr := range addrs {
		x.noteShared(addr, numa)
	}
	x.refs += n
	x.multiopRefs += int64(n)
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
		fi.Kern(x.fenv, f, first, first+n)
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
		out := Output{Flow: f.ID, Step: x.step}
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
		x.outputs = append(x.outputs, Output{Flow: f.ID, Step: x.step, Text: x.m.prog.Sym(*in)})
	case in.Op == isa.NOP:
	default:
		x.execLane(f, in, 0, 0)
	}
}
