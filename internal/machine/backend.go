package machine

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/pipeline"
	"tcfpram/internal/tcf"
)

// The backend is the execution half of the Figure 13 pipeline: thickness-driven
// operation generation across the groups, deterministic merging of their
// buffered memory traffic, and the step-boundary commit (buffered writes +
// multioperation resolution). It consumes the StepPlan the frontend
// prepared; nothing in it branches on the variant kind.

// generate runs the operation-generation stage in one pass over the groups:
// every group with a ready resident executes its flows' share of the step
// under the plan's shape, one group after another on the stepping goroutine,
// and is folded (foldGroup) as soon as it has run, so the fold order is the
// group order. It starts the step's collections afresh, returns the step's
// cycle count — the maximum over groups — and reports whether a flow it ran
// is still Ready, which answers the end-of-step readiness test without a scan.
// A group without residents whose arena is already zeroed is passed over
// without a call: it has nothing to run, to rotate or to zero (Invariant 3).
// A group that fails ends the pass: the groups after it do not run, and what
// the groups before it folded is discarded with the step.
func (m *Machine) generate(plan *StepPlan) (stepCycles int64, ready bool, err error) {
	m.stepOutputs = m.stepOutputs[:0]
	m.stepEvents = m.stepEvents[:0]
	m.discAccs = m.discAccs[:0]
	m.stepTraffic = 0
	for _, x := range m.execs {
		if x.idle && len(x.g.Buf.Resident) == 0 {
			continue
		}
		ran, r := x.runGroup(plan)
		if !ran {
			continue
		}
		ready = ready || r
		if x.err != nil {
			m.runErr = x.err
			m.discardStep()
			return 0, false, x.err
		}
		if gc := m.foldGroup(x); gc > stepCycles {
			stepCycles = gc
		}
	}
	return stepCycles, ready, nil
}

// foldGroup folds one group's generated step into the machine: its write and
// combining logs are handed, not copied, to the commit stage, outputs and
// deferred events are collected, statistics and per-stage attribution
// accumulate. Only what the group produced is handed on, and the words and
// references handed to the commit are totalled in stepTraffic for it. It
// returns the group's cycle count for the step (the step's cycle count is the
// maximum over groups). generate calls it in group-index order.
func (m *Machine) foldGroup(x *groupExec) int64 {
	c, gi := &x.groupCounters, x.g.Index
	traffic := x.writes.Len() + x.refs
	m.stepTraffic += traffic
	if x.writes.Len() > 0 {
		m.shared.BufferLog(&x.writes)
	}
	if x.refs > 0 {
		for k := range x.logs {
			m.combiners[k].AddLog(&x.logs[k])
		}
	}
	if len(x.outputs) > 0 {
		m.stepOutputs = append(m.stepOutputs, x.outputs...)
	}
	if len(x.events) > 0 {
		m.stepEvents = append(m.stepEvents, x.events...)
	}
	if len(x.accs) > 0 {
		m.discAccs = append(m.discAccs, x.accs...)
	}

	cost := pipeline.StepCost(m.pipe,
		pipeline.Step{Ops: c.ops, ScalarOps: c.scalarOps, Fetches: c.fetches,
			AnyShared: c.anyShared, MaxDist: c.maxDist, Stall: c.stall})
	opsCycles, overhead := cost.OpsCycles, cost.Overhead
	m.stats.PerGroupOps[gi] += opsCycles
	m.stats.PerGroupCycles[gi] += cost.Cycles
	m.stats.Ops += c.ops
	m.stats.ScalarOps += c.scalarOps
	m.stats.InstrFetches += c.fetches
	m.stats.SharedReads += c.sharedReads
	m.stats.SharedWrites += c.sharedWrites
	m.stats.LocalReads += c.localReads
	m.stats.LocalWrites += c.localWrites
	m.stats.MultiopRefs += c.multiopRefs
	m.stats.OverheadCycles += overhead
	m.stats.StallCycles += c.stall
	m.stats.Barriers += c.barriers
	m.live -= c.done

	m.stats.Stages[StageOpGen].Cycles += opsCycles
	m.stats.Stages[StageOpGen].Events += c.fetches
	m.stats.Stages[StageMemory].Cycles += overhead + c.stall
	m.stats.Stages[StageMemory].Events += c.sharedReads + c.sharedWrites +
		c.localReads + c.localWrites + c.multiopRefs
	m.stats.Stages[StageCommit].Events += int64(traffic)
	return cost.Cycles
}

// discardStep drops the traffic already folded of a step that will not
// commit: the memory retains the groups' logs by pointer, and neither they nor
// the combiners' contributions may reach a later step or run. The multiprefix
// destinations the step took without a bank, which no commit will write, are
// zeroed.
func (m *Machine) discardStep() {
	m.shared.DiscardStep()
	for _, c := range m.combiners {
		c.Reset()
	}
	for _, d := range m.freshDests {
		clear(d)
	}
	m.dropFreshDests()
}

// dropFreshDests forgets the step's multiprefix destinations once it has
// committed or been discarded.
func (m *Machine) dropFreshDests() {
	clear(m.freshDests)
	m.freshDests = m.freshDests[:0]
}

// commit is the writeback stage: buffered writes apply with the configured
// concurrent-write policy, and combining traffic resolves, every multiprefix
// run receiving its prefixes in the lanes of its destination register. A step
// that folded no store and no combining reference has nothing to write back
// and skips the stage — unless the memory holds stores from elsewhere (the
// BufferWrite adapters), which commit with this step as they always did.
func (m *Machine) commit() error {
	if m.stepTraffic == 0 && m.shared.PendingWrites() == 0 {
		return nil
	}
	m.tail.Commits++
	conflicts := m.shared.ApplyStep()
	if len(conflicts) > 0 {
		m.discardStep()
		return m.failf("step %d: %s", m.stats.Steps, conflicts[0])
	}
	for _, comb := range m.combiners {
		if comb.Len() == 0 {
			continue
		}
		finals, _ := comb.Resolve(m.shared.Peek)
		for _, f := range finals {
			m.shared.Poke(f.Addr, f.Val)
		}
	}
	if len(m.freshDests) > 0 {
		m.dropFreshDests()
	}
	return nil
}

// ---- per-group operation generation ----

// runGroup executes this group's share of one step under plan: every
// policy's discipline (single-instruction, budgeted balanced slices,
// multi-instruction windows) is one pass of the same loop, from the slot the
// rotation serves first. It reports whether the group ran a flow — the arena
// is reset at the first Ready resident, so a group without one costs the step
// nothing: its step would fetch nothing, every counter it would fold is zero
// and the step law prices it at zero cycles (pipeline.StepCost). All that is
// left of such a group is the rotation cursor a rotating policy advances per
// step, and the zeroing, once, of an arena that still holds an earlier step
// (idle). It also reports whether a flow it ran is still Ready: no later stage
// of the step takes a Ready flow out of that state, so one is a ready flow at
// the step's end.
func (x *groupExec) runGroup(plan *StepPlan) (ran, ready bool) {
	res := x.g.Buf.Resident
	n := len(res)
	start := 0
	if plan.Rotate && n > 0 {
		start = x.g.Buf.rotateStart(n)
	}
	budget := plan.Budget
	for k, slot := 0, start; k < n; k, slot = k+1, slot+1 {
		if slot == n {
			slot = 0
		}
		f := res[slot]
		if f.State != tcf.Ready {
			continue
		}
		if !ran {
			x.reset()
			ran = true
		}
		x.runFlow(f, slot, plan, &budget)
		if f.State == tcf.Ready {
			ready = true
		}
		if x.err != nil || (plan.Budget > 0 && budget <= 0) {
			break
		}
	}
	if !ran && !x.idle {
		x.reset()
		x.idle = true
	}
	return ran, ready
}

// runFlow advances one flow by its share of the step: up to Window
// instructions, NUMA bunches under lockstep, and budgeted lane slices when
// the plan's Slice discipline lets thick instructions continue across
// steps. budget is decremented by the operation slices consumed (only
// meaningful when plan.Budget > 0).
func (x *groupExec) runFlow(f *tcf.Flow, slot int, plan *StepPlan, budget *int) {
	for k := 0; k < plan.Window; k++ {
		if f.State != tcf.Ready || x.err != nil {
			return
		}
		if plan.Lockstep && f.Mode == tcf.NUMA {
			n := f.Bunch
			if plan.Budget > 0 && n > *budget {
				n = *budget
			}
			*budget -= x.execNUMABunch(f, slot, n)
			if x.splitAt > 0 {
				x.settle(f)
			}
			return
		}
		fi := x.fetch(f)
		if fi == nil {
			return
		}
		if f.IsFragment && fragmentUnsafe(&fi.In) {
			x.rejoinFragment(f, slot, fi.In.Op)
			return
		}
		// The instruction's width in operation slices. Only control
		// instructions change a flow's lane count and they are one slice
		// wide, so the width holds across the execution below.
		w := 1
		if fi.Thick {
			w = f.Lanes()
		}
		if plan.PerThreadFetch {
			// XMT threads carry their own program counters: instruction
			// delivery is per thread, so a thickness-u instruction costs u
			// fetches (Table 1's per-thread fetch discipline), unlike the
			// fetch-once TCF variants.
			if extra := int64(w - 1); extra > 0 {
				x.fetches += extra
				f.InstrFetches += extra
			}
		}
		if plan.Slice && fi.Sliceable {
			n := w - f.Offset
			if plan.Budget > 0 && n > *budget {
				n = *budget
			}
			x.record(f, slot, fi.In.Op, f.Offset, n, false)
			x.execLaneRange(f, fi, f.Offset, n)
			x.ops += int64(n)
			*budget -= n
			f.Offset += n
			if f.Offset >= w {
				f.Offset = 0
				f.PC++
				if x.splitAt > 0 {
					x.settle(f)
				}
			}
			return
		}
		// Without lockstep, synchronization ops end the flow's window: the
		// spawned/joined population must settle at the step boundary.
		op := fi.In.Op
		stop := !plan.Lockstep && (op == isa.SPLIT || op == isa.JOIN || op == isa.BAR || op == isa.HALT)
		x.execWhole(f, slot, fi, w)
		if x.splitAt > 0 {
			x.settle(f)
		}
		if plan.Budget > 0 {
			// Atomic instructions complete in one step; charge their full
			// width against the budget.
			*budget -= w
		}
		if stop {
			return
		}
	}
}
