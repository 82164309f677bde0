package machine

import (
	"errors"
	"fmt"
	"slices"

	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// StorageBuf is the TCF storage buffer of one group (Figure 13): up to Tp
// resident flows feeding the pipeline, plus the pending queue of flows
// (tasks) beyond the buffer capacity. All residency transitions go through
// its methods; the frontend charges the policy's task-switch costs around
// them. Between them the buffers hold every live flow of the machine: a flow
// enters one when it is created and leaves only when compaction drops it
// Done.
type StorageBuf struct {
	Resident []*tcf.Flow
	Pending  flowQueue

	// rrStart rotates the slot a rotating policy (Balanced) serves first,
	// so a thick flow cannot starve its slot-mates of the operation budget.
	rrStart int

	// done counts the residents that are Done: flows that went Done in their
	// slot (retire) since dropDone last ran, and queued flows that took a slot
	// Done. It is written by the group's step and between steps by the
	// event retirement and compaction; it is derived from the flows and in
	// no snapshot.
	done int
}

// retire takes f, a resident flow of this buffer, to Done.
func (b *StorageBuf) retire(f *tcf.Flow) {
	f.State = tcf.Done
	b.done++
}

// needsCompaction reports whether compaction could change the buffer: without
// a Done resident to drop and without a queued flow to promote or to displace
// a blocked resident with, it is the identity, and compact skips it.
func (b *StorageBuf) needsCompaction() bool { return b.done > 0 || b.Pending.Len() > 0 }

// flowQueue is the pending queue: a ring whose array survives rotation and
// Reset, so a recycled machine queues up to its previous peak without
// allocating. len(buf) is zero or a power of two.
type flowQueue struct {
	buf     []*tcf.Flow
	head, n int
}

// Len returns the number of queued flows.
func (q *flowQueue) Len() int { return q.n }

// At returns the i-th queued flow, 0 being the head.
func (q *flowQueue) At(i int) *tcf.Flow { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *flowQueue) push(f *tcf.Flow) {
	if q.n == len(q.buf) {
		grown := make([]*tcf.Flow, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.At(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = f
	q.n++
}

func (q *flowQueue) pop() *tcf.Flow {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return f
}

// flows returns the queued flows, head first, in a slice of their own.
func (q *flowQueue) flows() []*tcf.Flow {
	fs := make([]*tcf.Flow, q.n)
	for i := range fs {
		fs[i] = q.At(i)
	}
	return fs
}

// anyReady reports whether a queued flow could execute.
func (q *flowQueue) anyReady() bool {
	for i := 0; i < q.n; i++ {
		if q.At(i).State == tcf.Ready {
			return true
		}
	}
	return false
}

// Live returns the number of not-Done resident flows.
func (b *StorageBuf) Live() int { return len(b.Resident) - b.done }

// Load returns resident-not-done plus pending flows (placement pressure).
func (b *StorageBuf) Load() int { return b.Live() + b.Pending.Len() }

// anyReadyResident reports whether a resident flow can execute this step —
// whether the group has anything to generate at all.
func (b *StorageBuf) anyReadyResident() bool {
	for _, f := range b.Resident {
		if f.State == tcf.Ready {
			return true
		}
	}
	return false
}

// rotateStart returns the slot to serve first this step and advances the
// rotation.
func (b *StorageBuf) rotateStart(n int) int {
	s := b.rrStart % n
	b.rrStart++
	return s
}

// place makes f resident if a slot is free, otherwise queues it.
func (b *StorageBuf) place(f *tcf.Flow, slots int) {
	if len(b.Resident) < slots {
		b.Resident = append(b.Resident, f)
	} else {
		b.Pending.push(f)
	}
}

// demoteReady parks the longest-resident ready flow at the back of the
// pending queue, reporting whether one was found.
func (b *StorageBuf) demoteReady() bool {
	for i, f := range b.Resident {
		if f.State != tcf.Ready {
			continue
		}
		b.Resident = append(b.Resident[:i], b.Resident[i+1:]...)
		b.Pending.push(f)
		return true
	}
	return false
}

// dropDone compacts Done flows out of the buffer; a buffer without one is
// only read.
func (b *StorageBuf) dropDone() {
	b.done = 0
	keep := 0
	for i, f := range b.Resident {
		if f.State == tcf.Done {
			continue
		}
		if keep != i {
			b.Resident[keep] = f
		}
		keep++
	}
	b.Resident = b.Resident[:keep]
}

// popPending takes the queue head for a slot. An auto-split container can
// complete while it is queued, where dropDone does not look: it takes its slot
// Done, and the next compaction has to drop it.
func (b *StorageBuf) popPending() *tcf.Flow {
	f := b.Pending.pop()
	if f.State == tcf.Done {
		b.done++
	}
	return f
}

// promote moves the queue head into a free slot, reporting whether it did.
func (b *StorageBuf) promote(slots int) bool {
	if len(b.Resident) >= slots || b.Pending.Len() == 0 {
		return false
	}
	b.Resident = append(b.Resident, b.popPending())
	return true
}

// displaceBlocked, while a queued flow could execute, parks one
// blocked/waiting resident at the back of the pending queue and promotes the
// queue head in its place, reporting whether a displacement happened. The
// residents are looked at first: they are at most Tp, the queue is unbounded.
func (b *StorageBuf) displaceBlocked() bool {
	if b.Pending.Len() == 0 {
		return false
	}
	for i, f := range b.Resident {
		if f.State == tcf.Blocked || f.State == tcf.Waiting {
			if !b.Pending.anyReady() {
				return false
			}
			b.Resident[i] = b.popPending()
			b.Pending.push(f)
			return true
		}
	}
	return false
}

// ---- frontend ----
//
// The frontend is the TCF-storage-buffer stage of the Figure 13 pipeline. It
// owns flow residency across the groups' StorageBufs, task-switch
// accounting (charged at the policy's Table 1 rates), and the in-machine
// balanced splitting/rejoin of overly thick flows. Each step it prepares a
// StepPlan for the backend and retires the step's cross-flow events
// afterwards.

// prepare opens a step: the step index is stamped into the plan handed to
// the backend.
func (m *Machine) prepare() *StepPlan {
	m.plan.Step = m.stats.Steps
	return &m.plan
}

// place registers f on group g's storage buffer, which may queue it.
func (m *Machine) place(f *tcf.Flow, g int) {
	f.Home = g
	m.groups[g].Buf.place(f, m.cfg.ProcsPerGroup)
	m.unsettled = true
}

// leastLoaded picks the group with minimum load (ties: lowest index), the
// horizontal allocation rule of Section 4.
func (m *Machine) leastLoaded() int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for i, g := range m.groups {
		if l := g.Buf.Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// retireEvents applies the step's deferred cross-flow events: child
// terminations, splits, fragment rejoins and steps, and OS auto-splits.
// Indexed iteration over m.stepEvents: completing an auto-split container can
// cascade a further evChildDone for its own parent.
func (m *Machine) retireEvents() {
	for i := 0; i < len(m.stepEvents); i++ {
		ev := m.stepEvents[i]
		switch ev.kind {
		case evChildDone:
			parent := ev.flow.Parent
			parent.LiveChildren--
			m.stats.Joins++
			m.chargeFrontend(1, 0)
			if parent.LiveChildren == 0 && parent.State == tcf.Waiting {
				if parent.ResumePC < 0 {
					// Auto-split container: the fragments were the rest
					// of its execution. It may have been displaced into the
					// queue while it waited, which counts it until it is
					// popped.
					if buf := &m.groups[parent.Home].Buf; slices.Contains(buf.Resident, parent) {
						buf.retire(parent)
					} else {
						parent.State = tcf.Done
					}
					m.live--
					if parent.Parent != nil {
						m.stepEvents = append(m.stepEvents, deferredEvent{kind: evChildDone, flow: parent})
					}
				} else {
					parent.State = tcf.Ready
					parent.PC = parent.ResumePC
				}
			}
		case evFragmentRejoin:
			frag, parent := ev.flow, ev.flow.Parent
			parent.LiveChildren--
			m.stats.Joins++
			m.chargeFrontend(1, 0)
			windowLanes(parent, frag, true)
			if parent.LiveChildren == 0 {
				// Fragments step together: the last holds every one's
				// flow-common state, call stack and place in the program.
				parent.SetScalars(frag.Scalars())
				parent.CallStack = parent.CallStack[:0]
				for _, pc := range frag.CallStack {
					parent.Call(int(pc))
				}
				parent.State = tcf.Ready
				parent.PC = frag.PC
			}
		case evAutoSplit:
			m.splitOverThick(ev.flow)
		case evFragmentStep:
			m.stepSiblings(ev.flow)
		case evSplit:
			m.stats.Splits++
			m.chargeFrontend(1, 0)
			for i, arm := range ev.arms {
				g := m.leastLoaded()
				child := m.newFlow(arm.Target, int(armThickness(ev.flow, arm)), g, len(ev.arms)-1-i)
				child.Parent = ev.flow
				child.SetScalars(ev.flow.Scalars())
				// Flow branch cost (Table 1), charged at the policy's
				// rate: the TCF variants copy the R common registers into
				// the child, O(R); the XMT-style multi-instruction model
				// spawns thread contexts in parallel, O(1).
				c := m.policy.FlowBranchCycles(isa.NumSRegs)
				m.stats.FlowBranchCycles += c
				m.chargeFrontend(0, c)
			}
		}
	}
}

// stepSiblings lets fragment f, which completed an instruction, and its
// waiting siblings go on once no live sibling is behind — still Ready — so
// that Balanced's slices and multi-instruction's windows see the memory the
// unsplit flow would; until then compaction may give a waiting one's slot to
// a queued one. A split's fragments are a run of flow ids in lane order.
func (m *Machine) stepSiblings(f *tcf.Flow) {
	if f.State != tcf.Waiting {
		return // an earlier sibling's step let it go on
	}
	th := m.cfg.AutoSplitThreshold
	first := f.ID - f.TidOffset/th
	sibs := m.flowList[first : first+(f.Parent.Thickness+th-1)/th]
	for _, s := range sibs {
		if s.State == tcf.Ready {
			m.unsettled = true
			return
		}
	}
	for _, s := range sibs {
		if s.State == tcf.Waiting {
			s.State = tcf.Ready
		}
	}
}

// errBadParam is wrapped by fragment when it is handed an impossible
// parameter.
var errBadParam = errors.New("bad parameter")

// fragment splits a flow of thickness u into fragments of at most bound
// lanes each — the OS-level splitting of overly thick flows that the
// balanced single-instruction execution requires (Section 3.3), and the one
// definition of fragment sizing. A zero u yields a single empty fragment. A
// non-positive bound or negative u returns an error wrapping errBadParam.
func fragment(u, bound int) ([]int, error) {
	if bound <= 0 {
		return nil, fmt.Errorf("bound must be positive, got %d: %w", bound, errBadParam)
	}
	if u < 0 {
		return nil, fmt.Errorf("negative thickness %d: %w", u, errBadParam)
	}
	if u == 0 {
		return []int{0}, nil
	}
	out := make([]int, 0, (u+bound-1)/bound)
	for u > 0 {
		n := min(u, bound)
		out = append(out, n)
		u -= n
	}
	return out, nil
}

// splitOverThick is the balanced splitting of overly thick flows (Section
// 3.3): the continuation of f runs as threshold-sized fragments (fragment)
// allocated across the least-loaded groups, each a window of f's lanes with
// its common registers and call stack; f completes when they all halt, and
// executes itself what they rejoin at. Each fragment pays the TCF flow-branch
// cost (the R common registers are copied into it) regardless of variant —
// auto-splitting only exists on the thickness-aware variants.
func (m *Machine) splitOverThick(f *tcf.Flow) {
	m.stats.AutoSplits++
	m.chargeFrontend(1, 0)
	frags, _ := fragment(f.Thickness, m.cfg.AutoSplitThreshold) // settle asks for 0 < threshold < f.Thickness
	f.LiveChildren = len(frags)
	offset := 0
	for i, size := range frags {
		g := m.leastLoaded()
		child := m.newFlow(f.PC, size, g, len(frags)-1-i)
		child.Parent = f
		child.SetScalars(f.Scalars())
		child.IsFragment = true
		child.TidOffset = offset
		for _, pc := range f.CallStack {
			child.Call(int(pc))
		}
		windowLanes(f, child, false)
		offset += size
		m.stats.FlowBranchCycles += int64(isa.NumSRegs)
		m.chargeFrontend(0, int64(isa.NumSRegs))
	}
}

// windowLanes copies frag's window of every thread-wise register held between
// it and its container c: into the fragment, or back at a rejoin.
func windowLanes(c, frag *tcf.Flow, back bool) {
	lo, hi := frag.TidOffset, frag.TidOffset+frag.Thickness
	for r := range isa.NumVRegs {
		if reg := isa.V(r); back && frag.VectorAllocated(reg) {
			copy(c.Dest(reg, lo, hi), frag.Vector(reg))
		} else if !back && c.VectorAllocated(reg) {
			copy(frag.Dest(reg, 0, hi-lo), c.Vector(reg)[lo:hi])
		}
	}
}

// preempt rotates one ready resident flow per group back to the pending
// queue when the time-slice quantum expires, giving queued tasks a turn —
// preemptive time-shared multitasking with TCFs as tasks, charged at the
// policy's preemption rate.
func (m *Machine) preempt() {
	q := m.cfg.TimeSliceSteps
	if q <= 0 || m.stats.Steps == 0 || m.stats.Steps%q != 0 {
		return
	}
	for _, g := range m.groups {
		if g.Buf.Pending.Len() > 0 && g.Buf.demoteReady() {
			m.noteTaskSwitch(m.policy.PreemptCycles(m.cfg.ProcsPerGroup))
		}
	}
}

// compact drops Done flows from the TCF buffers and promotes pending flows
// into freed slots — the zero-cost task switch of the TCF variants
// (Table 1): rotating the TCF storage buffer costs no cycles there. A buffer
// compaction would leave as it is (needsCompaction) is not entered, and
// runStep does not call it on a step that settled no buffer (unsettled).
func (m *Machine) compact() {
	m.unsettled = false
	for _, g := range m.groups {
		if !g.Buf.needsCompaction() {
			continue
		}
		m.tail.Compactions++
		g.Buf.dropDone()
		for g.Buf.promote(m.cfg.ProcsPerGroup) {
			m.noteTaskSwitch(m.policy.TaskSwitchCycles(m.cfg.ProcsPerGroup))
		}
		// Flows parked at a barrier (or waiting on children) do not
		// execute; displace them so queued ready tasks can run — without
		// this, a barrier across an oversubscribed task set deadlocks
		// (blocked flows hold every slot while the tasks that must still
		// reach the barrier sit in the queue).
		for g.Buf.displaceBlocked() {
			m.noteTaskSwitch(m.policy.TaskSwitchCycles(m.cfg.ProcsPerGroup))
		}
		// A queue left behind, or a Done flow popped into a slot, is
		// compacted again next step.
		m.unsettled = m.unsettled || g.Buf.needsCompaction()
	}
}

// noteTaskSwitch accounts one task rotation at the policy's Table 1 rate,
// cycles: free for TCF variants, O(1) for XMT spawning, a full Tp-context
// switch for the thread machines, the preemption rate when the time slice
// rotates a ready flow out.
func (m *Machine) noteTaskSwitch(cycles int64) {
	m.stats.TaskSwitches++
	m.stats.TaskSwitchCycles += cycles
	m.chargeFrontend(1, cycles)
}

// chargeFrontend books a frontend event — a split, a join, an auto-split or
// a task switch, as its own counter is taken — and cycles a split or a switch
// costs into the frontend stage's share of the run (Stats.Stages); runStep
// adds the stage's cycles of the step to the step's critical path.
func (m *Machine) chargeFrontend(events, cycles int64) {
	m.stats.Stages[StageFrontend].Events += events
	m.stats.Stages[StageFrontend].Cycles += cycles
}

// SplitPlan previews the frontend's balanced splitting for a flow of the
// given thickness under the current configuration: the fragment sizes the
// Section 3.3 OS-level splitter would create, or nil when splitting is
// disabled, the policy has no control parallelism to rejoin with, or the
// thickness does not exceed the threshold.
func (m *Machine) SplitPlan(thickness int) ([]int, error) {
	th := m.cfg.AutoSplitThreshold
	if th <= 0 || thickness <= th || !m.props.ControlParallel {
		return nil, nil
	}
	return fragment(thickness, th)
}
