package machine

import (
	"context"
	"fmt"
	"sync"

	"tcfpram/internal/mem"
	"tcfpram/internal/tcf"
)

// The dataflow scheduler (Config.Sched == SchedDataflow) decouples the
// groups' step generation from the global step loop: one runner goroutine
// per group generates steps into a ring of step packets, running ahead of
// the other groups until an actual dependency edge stops it, while the
// committer (the RunContext caller goroutine) folds the packets into the
// machine strictly in (step, group) order — the exact order the lockstep
// engine uses, which is what makes the two schedulers bit-identical.
//
// The dependency edges a runner blocks on:
//
//   - memory: a shared read of a page with published-but-uncommitted writes
//     from an earlier step waits for the committer (mem.Frontier; the gate
//     lives in loadShared). Everything else about PRAM step semantics is
//     already order-free: writes are buffered into the packet and applied by
//     the committer.
//   - watermark: step n is generated only after every group has published
//     step n-1, so the frontier holds every earlier write before anyone
//     reads ahead.
//   - hazards: a step whose commit mutates global machine state beyond
//     plain stores — deferred events (splits, joins, rejoins), barriers,
//     combining traffic, or an execution error — parks every runner until
//     that step has fully retired, because its retirement can change any
//     group's flow population.
//   - fences: a group whose own step left a Done flow behind or has queued
//     pending flows parks until the committer compacts its buffer (task
//     rotation is committer work, charged in lockstep order).
//   - quiescence: a group with zero ready flows parks until the committer
//     retires its step — only committer-side actions (barrier release,
//     joins) can wake its flows.
//
// Strict mode (fault plans, time-slice preemption, the watchdog, the
// memory-discipline checker, Common-policy writes) degrades run-ahead to
// "generate step n only after n-1 fully retired": the groups of one step
// still execute concurrently, but every step boundary is a global barrier,
// because those features observe or mutate cross-group state between
// arbitrary steps. Results remain bit-identical; only overlap is lost.
//
// After a run that stops early (cancellation), flows that ran ahead may
// hold register state from beyond the reported step count; committed state
// (memory, outputs, statistics) is always exact. Every other stop — normal
// completion, program errors, MaxSteps, deadlock — leaves the machine
// bit-identical to the lockstep engine's stop.

// dfRing is the per-group ring depth: how many steps a group may run ahead
// of the committer before recycling packet storage would overtake it.
const dfRing = 8

// dfPacket is one group's published step: the counters and buffers the
// lockstep merge would have read straight off the groupExec arena, plus the
// scheduling flags the board gates on. Slices are swapped (not copied) with
// the exec arena at publish and recycled when the ring slot comes around
// again.
type dfPacket struct {
	groupCounters

	writes mem.WriteLog
	combining
	events  []deferredEvent
	outputs []Output
	slices  []SliceExec
	accs    []discAcc
	err     error

	// pages is the deduplicated set of frontier pages the step's writes
	// touch — published before the packet, committed with it.
	pages []int32

	// hazard: retiring this step can mutate another group's state (events,
	// barrier, combining traffic, or an error stops the run).
	hazard bool
	// fence: the group's buffer needs compaction after this step
	// (StorageBuf.needsCompaction, as the runner saw it).
	fence bool
	// ready counts the group's Ready flows (resident and pending) right
	// after generation; the committer sums these instead of scanning the
	// global flow list while runners are mid-step.
	ready int
}

// dfBoard is the scheduling state shared between the runners and the
// committer. Everything is guarded by one mutex with a single broadcast
// condition: board transitions happen once per step per group, so the lock
// is far off the per-operation hot path (per-read gating goes through
// mem.Frontier's atomic fast path instead).
type dfBoard struct {
	mu   sync.Mutex
	cond *sync.Cond

	strict bool

	generated  []int64 // per group, last published step
	retired    int64   // last fully committed step
	lastHazard int64   // highest published hazard step
	pauseAt    int64   // highest step runners may generate (checkpoint/MaxSteps ladder)
	stopped    bool

	rings [][]dfPacket // [group][dfRing] packet storage
	pkts  []*dfPacket  // committer's per-step view, reused
}

func newDFBoard(groups int, start int64, strict bool) *dfBoard {
	b := &dfBoard{
		strict:     strict,
		generated:  make([]int64, groups),
		retired:    start - 1,
		lastHazard: start - 1,
		pauseAt:    start - 1,
		rings:      make([][]dfPacket, groups),
		pkts:       make([]*dfPacket, groups),
	}
	for i := range b.generated {
		b.generated[i] = start - 1
		b.rings[i] = make([]dfPacket, dfRing)
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// canGenerate evaluates every runner gate for group gi's step n. Caller
// holds b.mu. parkAfter carries the group's own fence/quiescence verdict
// from its previous step.
func (b *dfBoard) canGenerate(gi int, n int64, parkAfter bool) bool {
	if n > b.pauseAt || b.retired < n-dfRing {
		return false
	}
	if (b.strict || parkAfter || b.lastHazard >= n-1) && b.retired < n-1 {
		return false
	}
	for _, gen := range b.generated {
		if gen < n-1 {
			return false
		}
	}
	return true
}

// waitGenerate blocks until group gi may generate step n (true) or the run
// is stopping (false).
func (b *dfBoard) waitGenerate(gi int, n int64, parkAfter bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.stopped {
			return false
		}
		if b.canGenerate(gi, n, parkAfter) {
			return true
		}
		b.cond.Wait()
	}
}

// publish announces group gi's packet for step n. The packet contents and
// the frontier publication must be complete before this call; the board
// mutex orders them before any observer that sees generated[gi] >= n.
// Hazards are recorded before the generation watermark moves, so a group
// passing its watermark for n+1 always sees a hazard published at n.
func (b *dfBoard) publish(gi int, n int64, hazard bool) {
	b.mu.Lock()
	if hazard && n > b.lastHazard {
		b.lastHazard = n
	}
	b.generated[gi] = n
	b.cond.Broadcast()
	b.mu.Unlock()
}

// waitStep blocks until every group has published step k and returns the
// step's packets in group order.
func (b *dfBoard) waitStep(k int64) []*dfPacket {
	b.mu.Lock()
	for {
		ok := true
		for _, gen := range b.generated {
			if gen < k {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		b.cond.Wait()
	}
	b.mu.Unlock()
	for gi := range b.rings {
		b.pkts[gi] = &b.rings[gi][k%dfRing]
	}
	return b.pkts
}

// signalRetired marks step k fully committed, releasing parked runners.
func (b *dfBoard) signalRetired(k int64) {
	b.mu.Lock()
	b.retired = k
	b.cond.Broadcast()
	b.mu.Unlock()
}

// setPauseAt raises the generation ceiling (strict stepping, checkpoint
// boundaries, the MaxSteps cap).
func (b *dfBoard) setPauseAt(n int64) {
	b.mu.Lock()
	b.pauseAt = n
	b.cond.Broadcast()
	b.mu.Unlock()
}

// stop wakes everyone for exit.
func (b *dfBoard) stop() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// dfPauseTarget returns the highest step the runners may generate given the
// committed step count: one short of the next checkpoint boundary (the
// snapshot must observe the machine exactly as the lockstep engine would at
// that boundary — no flow advanced beyond it), and never past MaxSteps
// (so a run stopped by the step quota leaves flows in the lockstep state).
func (m *Machine) dfPauseTarget(steps int64) int64 {
	t := m.cfg.MaxSteps - 1
	if every := m.cfg.CheckpointEvery; every > 0 && m.cfg.CheckpointSink != nil {
		if nb := (steps/every+1)*every - 1; nb < t {
			t = nb
		}
	}
	return t
}

// runDataflow is the dataflow scheduler's RunContext: runner goroutines
// generate, this goroutine commits in lockstep order. Only called for
// lockstep step shapes — immediate (XMT-style) semantics serialize memory
// within the step and keep the lockstep engine.
func (m *Machine) runDataflow(ctx context.Context) (*Stats, error) {
	if m.Done() {
		return &m.stats, m.runErr
	}
	strict := m.cfg.FaultPlan != nil || m.cfg.TimeSliceSteps > 0 ||
		m.cfg.WatchdogSteps > 0 || m.cfg.MemDiscipline.Checks() ||
		m.cfg.WritePolicy == mem.Common

	// The page table must exist before readers race with the committer
	// materializing pages: with the table in place, page installation only
	// stores into a fixed slot, and the frontier handshake orders same-page
	// access.
	m.shared.EnsurePageTable()
	m.dfFront = mem.NewFrontier(m.cfg.SharedWords)

	start := m.stats.Steps
	b := newDFBoard(len(m.groups), start, strict)
	if !strict {
		b.pauseAt = m.dfPauseTarget(start)
	}
	wd := newWatchdog(m.cfg.WatchdogSteps)
	done := ctx.Done()

	var runners sync.WaitGroup
	for gi := range m.execs {
		runners.Add(1)
		go func(gi int) {
			defer runners.Done()
			m.dfRunner(b, gi, start)
		}(gi)
	}

	for k := start; ; k++ {
		// Pre-step checks in the exact lockstep loop order. In strict mode
		// every runner is parked here (step k is not yet released), so the
		// watchdog's state digest and the fault plan's module failures act on
		// the same machine state they would under lockstep.
		if done != nil && canceled(done) {
			m.runErr = fmt.Errorf("machine: %w after %d steps: %v", ErrCanceled, m.stats.Steps, ctx.Err())
			break
		}
		if k >= m.cfg.MaxSteps {
			m.runErr = fmt.Errorf("machine: exceeded MaxSteps=%d (livelock?): %w", m.cfg.MaxSteps, ErrMaxSteps)
			break
		}
		if strict {
			if wd.window > 0 && wd.observe(m) {
				m.runErr = fmt.Errorf("machine: watchdog: state cycle with no observable work over %d+ steps (silent livelock): %w", wd.window, ErrDeadlock)
				break
			}
			if _, err := m.front.prepare(); err != nil {
				break // prepare recorded m.runErr
			}
			b.setPauseAt(k)
		}

		pkts := b.waitStep(k)
		finished, err := m.dfCommitStep(k, pkts, strict)
		if err != nil {
			break
		}
		if every := m.cfg.CheckpointEvery; every > 0 && m.cfg.CheckpointSink != nil && m.stats.Steps%every == 0 {
			// Boundary: pauseAt capped generation at k, every packet of k has
			// arrived, so all runners are parked and the snapshot sees the
			// exact lockstep boundary state.
			if err := m.cfg.CheckpointSink.Checkpoint(m.stats.Steps, m.Snapshot); err != nil {
				m.runErr = fmt.Errorf("machine: checkpoint at step %d: %w", m.stats.Steps, err)
				break
			}
			if !strict {
				b.setPauseAt(m.dfPauseTarget(m.stats.Steps))
			}
		}
		if finished {
			break
		}
		b.signalRetired(k)
	}

	b.stop()
	m.dfFront.Stop()
	runners.Wait()
	m.dfFront = nil
	return &m.stats, m.runErr
}

// dfCommitStep retires step k from its packets: the same sequence as the
// lockstep runStep, with every fold in group order. It reports whether the
// run completed (no live flows remain).
func (m *Machine) dfCommitStep(k int64, pkts []*dfPacket, strict bool) (finished bool, err error) {
	stagesBefore := m.stats.Stages
	m.beginFold()

	var stepCycles int64
	hazard := false
	sumReady := 0
	for gi, p := range pkts {
		if p.err != nil {
			m.runErr = p.err
			m.discardStep()
			return false, p.err
		}
		if gc := m.foldGroup(gi, &p.groupCounters, &p.writes, &p.combining, p.outputs, p.events, p.accs); gc > stepCycles {
			stepCycles = gc
		}
		hazard = hazard || p.hazard
		sumReady += p.ready
	}

	discR, discW, err := m.auditDiscipline()
	if err != nil {
		m.discardStep()
		return false, err
	}
	if err := m.back.commit(); err != nil {
		return false, err
	}
	// Writes are in the backing store; release the readers waiting on them.
	for _, p := range pkts {
		m.dfFront.Commit(k, p.pages)
	}

	branchBefore := m.stats.FlowBranchCycles
	eventsBefore := m.stats.Splits + m.stats.Joins + m.stats.AutoSplits
	if err := m.front.retireEvents(); err != nil {
		return false, err
	}
	stepCycles += m.stats.FlowBranchCycles - branchBefore

	// parked: every runner is provably blocked on this step's retirement
	// (strict stepping, a published hazard, or no group has a ready flow —
	// the zero-ready gate), so global flow scans and cross-group mutation
	// are race-free and land in the exact lockstep state.
	parked := strict || hazard || sumReady == 0

	switchBefore := m.stats.TaskSwitchCycles
	switchesBefore := m.stats.TaskSwitches
	m.front.preempt()
	if parked {
		m.front.compact()
	} else {
		// Only fenced groups (whose runners hold at the boundary) compact:
		// the runners of the others are mid-step and their buffers not to be
		// read, and their packets say what needsCompaction said — no.
		for gi, p := range pkts {
			if p.fence {
				m.front.compactGroup(m.groups[gi])
			}
		}
	}
	stepCycles += m.stats.TaskSwitchCycles - switchBefore

	m.stats.Stages[StageFrontend].Cycles +=
		(m.stats.FlowBranchCycles - branchBefore) + (m.stats.TaskSwitchCycles - switchBefore)
	m.stats.Stages[StageFrontend].Events +=
		(m.stats.Splits + m.stats.Joins + m.stats.AutoSplits - eventsBefore) +
			(m.stats.TaskSwitches - switchesBefore)

	if parked {
		ready := m.anyReadyAnywhere() || m.releaseBarriers()
		m.finishStep(stepCycles, stagesBefore, discR, discW, pkts)
		if m.live == 0 {
			return true, nil
		}
		if !ready {
			return false, m.failw(ErrDeadlock, "step %d: deadlock: live flows but none ready (missing JOIN?)", m.stats.Steps)
		}
		return false, nil
	}
	// Some group still has ready flows, so no barrier can release, the run
	// is not done, and no deadlock is possible — exactly the branches the
	// lockstep engine would take, without touching the flow list that the
	// running groups are mutating.
	m.finishStep(stepCycles, stagesBefore, discR, discW, pkts)
	return false, nil
}

// dfRunner is group gi's generation loop: gate, generate, publish.
func (m *Machine) dfRunner(b *dfBoard, gi int, start int64) {
	x := m.execs[gi]
	g := m.groups[gi]
	// pageMark dedups the step's written pages; stamped with n+1 so it never
	// needs clearing between steps.
	pageMark := make([]int64, m.dfFront.Pages())
	parkAfter := false
	plan := StepPlan{StepShape: m.plan.StepShape} // the runner's own: it runs ahead of the machine's
	for n := start; ; n++ {
		if !b.waitGenerate(gi, n, parkAfter) {
			return
		}
		plan.Step = n
		x.reset(&plan)
		x.runGroup()
		parkAfter = m.dfPublish(b, x, g, gi, n, pageMark)
	}
}

// dfPublish moves the generated step off the exec arena into the ring
// packet and announces it: frontier first (a reader that has observed the
// packet must also observe its pending writes), then the board. It returns
// whether the runner must park until the step retires (fence or no ready
// work left).
func (m *Machine) dfPublish(b *dfBoard, x *groupExec, g *Group, gi int, n int64, pageMark []int64) bool {
	p := &b.rings[gi][n%dfRing]
	p.groupCounters = x.groupCounters
	p.writes, x.writes = x.writes, p.writes
	p.combining, x.combining = x.combining, p.combining
	p.events, x.events = x.events, p.events[:0]
	p.outputs, x.outputs = x.outputs, p.outputs[:0]
	p.slices, x.slices = x.slices, p.slices[:0]
	p.accs, x.accs = x.accs, p.accs[:0]
	p.err = x.err

	p.pages = p.pages[:0]
	mark := n + 1
	for _, addr := range p.writes.Addrs {
		if pg := m.dfFront.PageOf(addr); pg >= 0 && pageMark[pg] != mark {
			pageMark[pg] = mark
			p.pages = append(p.pages, int32(pg))
		}
	}

	ready := 0
	for _, f := range g.Buf.Resident {
		if f.State == tcf.Ready {
			ready++
		}
	}
	for i, q := 0, &g.Buf.Pending; i < q.Len(); i++ {
		if q.At(i).State == tcf.Ready {
			ready++
		}
	}
	p.ready = ready
	p.hazard = p.err != nil || len(p.events) > 0 || p.refs > 0 || p.barriers > 0
	p.fence = g.Buf.needsCompaction()

	m.dfFront.Publish(n, p.pages)
	b.publish(gi, n, p.hazard)
	return p.fence || ready == 0
}
