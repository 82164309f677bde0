package machine

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
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

// generate runs the operation-generation stage: every group executes its
// resident flows' share of the step under the plan's shape. Immediate
// semantics must execute groups serially (they touch memory directly);
// lockstep groups are independent within a step, so group 0 runs inline
// while the rest go to the worker pool.
func (bk *backend) generate(plan StepPlan) {
	m := bk.m
	execs := m.execs
	for _, x := range execs {
		x.reset(plan)
	}
	if plan.Lockstep && m.cfg.Parallel && len(execs) > 1 {
		m.wg.Add(len(execs) - 1)
		for _, x := range execs[1:] {
			groupPool.submit(poolJob{grp: x, wg: &m.wg})
		}
		execs[0].runGroup()
		m.wg.Wait()
	} else {
		for _, x := range execs {
			x.runGroup()
		}
	}
}

// merge folds the groups' arenas into the machine deterministically (group
// order): buffered writes and combining contributions move toward the
// commit stage, outputs and deferred events are collected, statistics and
// per-stage attribution accumulate, and the step's cycle count is the
// maximum over groups.
func (bk *backend) merge() (int64, error) {
	m := bk.m
	m.stepOutputs = m.stepOutputs[:0]
	m.stepEvents = m.stepEvents[:0]
	m.routes = m.routes[:0]
	m.discAccs = m.discAccs[:0]
	var stepCycles int64
	for _, x := range m.execs {
		if x.err != nil {
			m.runErr = x.err
			return 0, x.err
		}
		gc := m.foldGroup(x.g.Index, &x.groupCounters,
			x.writes, &x.combining, x.outputs, x.events, x.accs)
		if gc > stepCycles {
			stepCycles = gc
		}
	}
	return stepCycles, nil
}

// foldGroup folds one group's generated step into the machine: buffered
// writes and combining contributions move toward the commit stage, outputs
// and deferred events are collected, statistics and per-stage attribution
// accumulate. It returns the group's cycle count for the step (the step's
// cycle count is the maximum over groups). Shared by the lockstep merge
// (reading the groupExec arenas directly) and the dataflow committer
// (reading published step packets); both call it in group-index order,
// which is what makes the two schedulers bit-identical.
func (m *Machine) foldGroup(gi int, c *groupCounters,
	writes []mem.Write, comb *combining, outputs []Output,
	events []deferredEvent, accs []discAcc) int64 {
	m.shared.BufferWrites(writes)
	if comb.refs > 0 {
		routeBase := len(m.routes)
		m.routes = append(m.routes, comb.routes...)
		for k, cs := range comb.contribs {
			m.combiners[k].AddAll(cs, routeBase)
		}
	}
	m.stepOutputs = append(m.stepOutputs, outputs...)
	m.stepEvents = append(m.stepEvents, events...)
	m.discAccs = append(m.discAccs, accs...)

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
	m.stats.LaneChunks += c.laneChunks

	m.stats.Stages[StageOpGen].Cycles += opsCycles
	m.stats.Stages[StageOpGen].Events += c.fetches
	m.stats.Stages[StageMemory].Cycles += overhead + c.stall + c.faultStall
	m.stats.Stages[StageMemory].Events += c.sharedReads + c.sharedWrites +
		c.localReads + c.localWrites + c.multiopRefs
	m.stats.Stages[StageCommit].Events += int64(len(writes) + comb.refs)
	return gc
}

// commit is the writeback stage: buffered writes apply with the configured
// concurrent-write policy, and combining traffic resolves with prefix
// results routed back into the participating lanes.
func (bk *backend) commit() error {
	m := bk.m
	conflicts := m.shared.ApplyStep()
	if len(conflicts) > 0 {
		return m.failf("step %d: %s", m.stats.Steps, conflicts[0])
	}
	for _, comb := range m.combiners {
		if comb.Len() == 0 {
			continue
		}
		finals, prefixes := comb.Resolve(m.shared.Peek)
		for _, f := range finals {
			m.shared.Poke(f.Addr, f.Val)
		}
		for _, p := range prefixes {
			rt := &m.routes[p.Dest]
			rt.flow.Vector(rt.reg)[rt.lane] = p.Prefix
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
func (x *groupExec) runFlow(f *tcf.Flow, slot int, plan StepPlan, budget *int) {
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
		if fp := x.m.fprog; fp != nil && !plan.Slice {
			// Fused straight-line run: consecutive register instructions
			// execute back to back through their compiled kernels, up to the
			// remaining window. Sliced plans keep the generic path — every
			// instruction there is an offset-carrying lane slice.
			if adv := x.runFusedRun(f, slot, plan, budget, plan.Window-k); adv > 0 {
				k += adv - 1
				continue
			}
		}
		in, ok := x.fetch(f)
		if !ok {
			return
		}
		if plan.PerThreadFetch {
			// XMT threads carry their own program counters: instruction
			// delivery is per thread, so a thickness-u instruction costs u
			// fetches (Table 1's per-thread fetch discipline), unlike the
			// fetch-once TCF variants.
			if extra := int64(width(f, in) - 1); extra > 0 {
				x.fetches += extra
				f.InstrFetches += extra
			}
		}
		if plan.Slice && in.Sliceable() {
			w := width(f, in)
			n := w - f.Offset
			if plan.Budget > 0 && n > *budget {
				n = *budget
			}
			x.record(f, slot, in, f.Offset, n, false)
			x.execLaneRange(f, in, f.Offset, n)
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
		stop := !plan.Lockstep && in.Op.Info().Control &&
			(in.Op == isa.SPLIT || in.Op == isa.JOIN || in.Op == isa.BAR || in.Op == isa.HALT)
		x.execWhole(f, slot, in)
		if plan.Budget > 0 {
			// Atomic instructions complete in one step; charge their full
			// width against the budget.
			*budget -= width(f, in)
		}
		if stop {
			return
		}
	}
}
