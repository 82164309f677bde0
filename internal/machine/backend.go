package machine

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/pipeline"
	"tcfpram/internal/tcf"
)

// backend is the execution half of the Figure 13 pipeline: thickness-driven
// operation generation across the groups, deterministic merging of their
// buffered memory traffic, and the step-boundary commit (buffered writes +
// multioperation resolution). It consumes the StepPlan the frontend
// prepared; nothing in it branches on the variant kind.
type backend struct {
	m *Machine
}

// generate runs the operation-generation stage: every group with a ready
// resident executes its flows' share of the step under the plan's shape, one
// group after another on the stepping goroutine.
func (bk *backend) generate(plan *StepPlan) {
	for _, x := range bk.m.execs {
		if x.begin(plan) {
			x.runGroup()
		}
	}
}

// begin opens the step for this group and reports whether it has anything to
// generate. A group without a ready resident costs the step nothing: its
// step would fetch nothing, so every counter it would fold is zero and the
// step law prices it at zero cycles (pipeline.StepCost) — all that is left
// of it is the rotation cursor a rotating policy advances per step, and the
// zeroing, once, of an arena that still holds an earlier step.
func (x *groupExec) begin(plan *StepPlan) bool {
	buf := &x.g.Buf
	if buf.anyReadyResident() {
		x.reset(plan)
		return true
	}
	if n := len(buf.Resident); plan.Rotate && n > 0 {
		buf.rotateStart(n)
	}
	if !x.idle {
		x.reset(plan)
		x.idle = true
	}
	return false
}

// merge folds the groups' arenas into the machine deterministically (group
// order): the memory and the combiners take the groups' write and combining
// logs by pointer, for the commit stage to resolve where they lie, outputs
// and deferred events are collected, statistics and per-stage attribution
// accumulate, and the step's cycle count is the maximum over groups.
func (bk *backend) merge() (int64, error) {
	m := bk.m
	m.stepOutputs = m.stepOutputs[:0]
	m.stepEvents = m.stepEvents[:0]
	m.discAccs = m.discAccs[:0]
	m.stepTraffic = 0
	var stepCycles int64
	for _, x := range m.execs {
		if x.idle {
			continue
		}
		if x.err != nil {
			m.runErr = x.err
			m.discardStep()
			return 0, x.err
		}
		if gc := m.foldGroup(x); gc > stepCycles {
			stepCycles = gc
		}
	}
	return stepCycles, nil
}

// foldGroup folds one group's generated step into the machine: its write and
// combining logs are handed, not copied, to the commit stage, outputs and
// deferred events are collected, statistics and per-stage attribution
// accumulate. Only what the group produced is handed on, and the words and
// references handed to the commit are totalled in stepTraffic for it. It
// returns the group's cycle count for the step (the step's cycle count is the
// maximum over groups). merge calls it in group-index order.
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

	cost := pipeline.StepCost(
		pipeline.Config{Depth: m.cfg.PipelineDepth, MemLatency: m.cfg.MemLatencyBase},
		pipeline.Step{Ops: c.ops, ScalarOps: c.scalarOps, Fetches: c.fetches,
			AnyShared: c.anyShared, MaxDist: c.maxDist, Stall: c.stall})
	opsCycles, overhead := cost.OpsCycles, cost.Overhead
	// Fault stalls (retransmissions, detours) come on top of the law.
	gc := cost.Cycles + c.faultStall
	m.stats.PerGroupOps[gi] += opsCycles
	m.stats.PerGroupCycles[gi] += gc
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
	m.stats.FaultStallCycles += c.faultStall
	m.stats.Retransmits += c.retransmits
	m.stats.Reroutes += c.reroutes
	m.stats.Barriers += c.barriers
	m.live -= c.done

	m.stats.Stages[StageOpGen].Cycles += opsCycles
	m.stats.Stages[StageOpGen].Events += c.fetches
	m.stats.Stages[StageMemory].Cycles += overhead + c.stall + c.faultStall
	m.stats.Stages[StageMemory].Events += c.sharedReads + c.sharedWrites +
		c.localReads + c.localWrites + c.multiopRefs
	m.stats.Stages[StageCommit].Events += int64(traffic)
	return gc
}

// discardStep drops the traffic already folded of a step that will not
// commit: the memory retains the groups' logs by pointer, and neither they nor
// the combiners' contributions may reach a later step or run.
func (m *Machine) discardStep() {
	m.shared.DiscardStep()
	for _, c := range m.combiners {
		c.Reset()
	}
}

// commit is the writeback stage: buffered writes apply with the configured
// concurrent-write policy, and combining traffic resolves, every multiprefix
// run receiving its prefixes in the lanes of its destination register. A step
// that folded no store and no combining reference has nothing to write back
// and skips the stage — unless the memory holds stores from elsewhere (the
// BufferWrite adapters), which commit with this step as they always did.
func (bk *backend) commit() error {
	m := bk.m
	if m.stepTraffic == 0 && m.shared.PendingWrites() == 0 {
		return nil
	}
	m.tail.Commits++
	conflicts := m.shared.ApplyStep()
	if len(conflicts) > 0 {
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
	return nil
}

// ---- per-group operation generation ----

// runGroup executes this group's share of one step under the plan stamped
// at reset: every policy's discipline (single-instruction, budgeted
// balanced slices, multi-instruction windows) is one pass of the same loop.
func (x *groupExec) runGroup() {
	plan := x.plan
	n := len(x.g.Buf.Resident)
	if n == 0 {
		return
	}
	start := 0
	if plan.Rotate {
		start = x.g.Buf.rotateStart(n)
	}
	budget := plan.Budget
	for k := 0; k < n; k++ {
		if x.err != nil || (plan.Budget > 0 && budget <= 0) {
			break
		}
		slot := (start + k) % n
		f := x.g.Buf.Resident[slot]
		if f.State != tcf.Ready {
			continue
		}
		x.runFlow(f, slot, plan, &budget)
	}
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
			return
		}
		if !plan.Slice {
			// Fused straight-line run: consecutive register instructions
			// execute back to back through their compiled kernels, up to the
			// remaining window. Sliced plans keep the generic path — every
			// instruction there is an offset-carrying lane slice.
			if adv := x.runFusedRun(f, slot, plan, budget, plan.Window-k); adv > 0 {
				k += adv - 1
				continue
			}
		}
		fi := x.fetch(f)
		if fi == nil {
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
			}
			return
		}
		// Without lockstep, synchronization ops end the flow's window: the
		// spawned/joined population must settle at the step boundary.
		op := fi.In.Op
		stop := !plan.Lockstep && (op == isa.SPLIT || op == isa.JOIN || op == isa.BAR || op == isa.HALT)
		x.execWhole(f, slot, fi, w)
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
