package machine

import (
	"cmp"
	"fmt"
	"slices"

	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// StepPlan is the hand-off structure between the pipeline stages of one
// step: the policy's step shape, the variant's Lockstep property and the step
// index the frontend stamps, which the backend executes. It is the only
// coupling between the two halves of the engine.
type StepPlan struct {
	variant.StepShape
	Lockstep bool
	Step     int64
}

// Step advances the machine by one synchronous step through the Figure 13
// pipeline: frontend prepare (plan stamping) →
// backend operation generation, each group folded in group order as it
// finishes → memory commit → frontend retire (cross-flow events, task
// rotation, barrier release).
// All per-step state lives in arenas on the Machine: the steady-state step
// loop allocates nothing (with tracing disabled).
func (m *Machine) Step() error {
	if m.prog == nil || len(m.flowList) == 0 {
		return m.failf("Step before LoadProgram/Boot")
	}
	if m.runErr != nil {
		return m.runErr
	}
	return m.runStep(m.prepare())
}

// runStep drives the staged pipeline for one prepared plan. Callers have
// established Step's guards: a booted program and no run error.
func (m *Machine) runStep(plan *StepPlan) error {
	if m.cfg.TraceEnabled {
		// The per-stage attribution a trace record takes as deltas.
		m.traceStages = m.stats.Stages
	}
	live := m.live

	stepCycles, ready, err := m.generate(plan)
	if err != nil {
		return err
	}

	var discR, discW int64
	if len(m.discAccs) > 0 {
		if discR, discW, err = m.auditDiscipline(); err != nil {
			m.discardStep()
			return err
		}
	}

	if err := m.commit(); err != nil {
		return err
	}

	// Frontend retire: cross-flow events (splits, joins, auto-split
	// fragmentation and rejoin) and task rotation both charge their Table 1
	// costs into the step's critical path. Each is charged to the frontend
	// stage where it is counted (chargeFrontend), so a step without one reads
	// the stage's cycles twice and nothing else.
	front := m.stats.Stages[StageFrontend].Cycles
	if len(m.stepEvents) > 0 {
		m.retireEvents()
	}
	m.preempt()
	if m.unsettled || m.live != live {
		m.compact()
	}
	stepCycles += m.stats.Stages[StageFrontend].Cycles - front

	// Barrier release: only when no flow anywhere can still run toward
	// the barrier and at least one is blocked at a BAR. A flow generation
	// left Ready is one that can.
	ready = ready || m.anyReadyAnywhere() || m.releaseBarriers()

	m.finishStep(stepCycles, discR, discW)

	// Liveness: if nothing can ever run again, fail loudly.
	if m.live > 0 && !ready {
		return m.failw(ErrDeadlock, "step %d: deadlock: live flows but none ready (missing JOIN?)", m.stats.Steps)
	}
	return nil
}

// auditDiscipline runs the memory-discipline audit (Config.MemDiscipline)
// over the step's recorded access sets, before commit, so a violating step
// stops the machine without applying its writes. runStep calls it for a step
// that recorded an access.
func (m *Machine) auditDiscipline() (discR, discW int64, err error) {
	for i := range m.discAccs {
		if m.discAccs[i].write {
			discW++
		} else {
			discR++
		}
	}
	m.stats.DiscReads += discR
	m.stats.DiscWrites += discW
	if v := m.checkDiscipline(); v != nil {
		v.Step = m.stats.Steps
		m.runErr = fmt.Errorf("machine: step %d: %w", m.stats.Steps, v)
		return discR, discW, m.runErr
	}
	return discR, discW, nil
}

// releaseBarriers unblocks every BAR-parked flow and reports whether there
// was one — whether a flow is ready now. Callers have established that no
// flow anywhere can still run toward the barrier. Every live flow is in some
// group's storage buffer, so the buffers are all there is to walk.
func (m *Machine) releaseBarriers() (released bool) {
	release := func(f *tcf.Flow) {
		if f.State == tcf.Blocked {
			f.State, released = tcf.Ready, true
		}
	}
	for _, g := range m.groups {
		for _, f := range g.Buf.Resident {
			release(f)
		}
		for i, q := 0, &g.Buf.Pending; i < q.Len(); i++ {
			release(q.At(i))
		}
	}
	return released
}

// finishStep closes the step's books: the cycle floor, cumulative counters,
// the trace record, and the deterministic output ordering — of which a step
// without output needs none and a step with one output no sort.
func (m *Machine) finishStep(stepCycles int64, discR, discW int64) {
	if stepCycles == 0 {
		stepCycles = 1
	}
	m.stats.Cycles += stepCycles
	m.stats.Steps++
	m.tail.Steps++

	if m.cfg.TraceEnabled {
		// Chunks grow with the trace so short runs stay cheap and long
		// runs amortize: 8, then ~len(trace) capped at 256.
		if len(m.recArena) == 0 {
			m.recArena = make([]StepRecord, min(256, max(8, len(m.trace))))
		}
		rec := &m.recArena[0]
		m.recArena = m.recArena[1:]
		ng := len(m.groups)
		if len(m.gcArena) < ng {
			m.gcArena = make([]int64, min(256, max(8, len(m.trace)))*ng)
		}
		rec.GroupCycles, m.gcArena = m.gcArena[:ng:ng], m.gcArena[ng:]
		rec.Step, rec.Cycles = m.stats.Steps-1, stepCycles
		for s := range rec.Stages {
			rec.Stages[s].Cycles = m.stats.Stages[s].Cycles - m.traceStages[s].Cycles
			rec.Stages[s].Events = m.stats.Stages[s].Events - m.traceStages[s].Events
		}
		rec.DiscReads, rec.DiscWrites = discR, discW
		n := 0
		for _, x := range m.execs {
			n += len(x.slices)
		}
		if len(m.sliceArena) < n {
			m.sliceArena = make([]SliceExec, max(n, min(128, max(16, 2*len(m.trace)))))
		}
		rec.Slices, m.sliceArena = m.sliceArena[:0:n], m.sliceArena[n:]
		for _, x := range m.execs {
			rec.GroupCycles[x.g.Index] = x.ops + x.scalarOps + x.stall
			rec.Slices = append(rec.Slices, x.slices...)
		}
		if m.trace == nil {
			m.trace = make([]*StepRecord, 0, 16)
		}
		m.trace = append(m.trace, rec)
	}

	// Deterministic output ordering within the step: by flow id, then by
	// emission order.
	if len(m.stepOutputs) > 1 {
		m.tail.OutputSorts++
		slices.SortStableFunc(m.stepOutputs, func(a, b Output) int { return cmp.Compare(a.Flow, b.Flow) })
	}
	if len(m.stepOutputs) > 0 {
		m.output = append(m.output, m.stepOutputs...)
	}
}

// anyReadyAnywhere reports whether any flow can execute: residents first (at
// most P*Tp, and where a ready flow usually is), then the queues.
func (m *Machine) anyReadyAnywhere() bool {
	for _, g := range m.groups {
		if g.Buf.anyReadyResident() {
			return true
		}
	}
	for _, g := range m.groups {
		if g.Buf.Pending.anyReady() {
			return true
		}
	}
	return false
}
