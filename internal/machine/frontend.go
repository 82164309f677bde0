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
// a blocked resident with, it is the identity, and frontend.compact skips it.
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

// frontend is the TCF-storage-buffer stage of the Figure 13 pipeline. It
// owns flow residency across the groups' StorageBufs, task-switch
// accounting (charged at the policy's Table 1 rates), and the in-machine
// balanced splitting/rejoin of overly thick flows. Each step it prepares a
// StepPlan for the backend and retires the step's cross-flow events
// afterwards.
type frontend struct {
	m *Machine
}

// prepare opens a step: fail-stop fault events fire at the boundary (a dead
// module's traffic fails over to a mirrored spare before any reference of
// this step), then the step index is stamped into the plan handed to the
// backend.
func (fr *frontend) prepare() (*StepPlan, error) {
	m := fr.m
	if plan := m.cfg.FaultPlan; plan != nil {
		for _, mod := range plan.ModuleFailuresAt(m.stats.Steps) {
			if err := m.shared.FailModule(mod); err != nil {
				return nil, m.failw(ErrFaultUnrecoverable, "step %d: %v", m.stats.Steps, err)
			}
			m.stats.Failovers++
		}
	}
	m.plan.Step = m.stats.Steps
	return &m.plan, nil
}

// place registers f on group g's storage buffer.
func (fr *frontend) place(f *tcf.Flow, g int) {
	m := fr.m
	f.Home = g
	m.groups[g].Buf.place(f, m.cfg.ProcsPerGroup)
}

// leastLoaded picks the group with minimum load (ties: lowest index), the
// horizontal allocation rule of Section 4.
func (fr *frontend) leastLoaded() int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for i, g := range fr.m.groups {
		if l := g.Buf.Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// retireEvents applies the step's deferred cross-flow events: child
// terminations, splits, fragment rejoins and OS auto-splits. Indexed
// iteration over m.stepEvents: completing an auto-split container can
// cascade a further evChildDone for its own parent.
func (fr *frontend) retireEvents() error {
	m := fr.m
	for i := 0; i < len(m.stepEvents); i++ {
		ev := m.stepEvents[i]
		switch ev.kind {
		case evChildDone:
			parent := ev.flow.Parent
			parent.LiveChildren--
			m.stats.Joins++
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
			parent := ev.flow.Parent
			parent.LiveChildren--
			m.stats.Joins++
			// Fragments are scalar-identical; any of them restores the
			// container's flow-common state and continuation point.
			parent.SetScalars(ev.flow.Scalars())
			parent.ResumePC = ev.pc
			if parent.LiveChildren == 0 && parent.State == tcf.Waiting {
				parent.State = tcf.Ready
				parent.PC = ev.pc
			}
		case evAutoSplit:
			if err := fr.splitOverThick(ev.flow, ev.thick); err != nil {
				return err
			}
		case evSplit:
			m.stats.Splits++
			for i, arm := range ev.arms {
				g := fr.leastLoaded()
				child := m.newFlow(arm.Target, int(armThickness(ev.flow, arm)), g, len(ev.arms)-1-i)
				child.Parent = ev.flow
				child.SetScalars(ev.flow.Scalars())
				// Flow branch cost (Table 1), charged at the policy's
				// rate: the TCF variants copy the R common registers into
				// the child, O(R); the XMT-style multi-instruction model
				// spawns thread contexts in parallel, O(1).
				m.stats.FlowBranchCycles += m.policy.FlowBranchCycles(isa.NumSRegs)
			}
		}
	}
	return nil
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
// allocated across the least-loaded groups; f completes when they all
// rejoin. Each fragment pays the TCF flow-branch cost (the R common
// registers are copied into it) regardless of variant — auto-splitting only
// exists on the thickness-aware variants.
func (fr *frontend) splitOverThick(f *tcf.Flow, thick int) error {
	m := fr.m
	m.stats.AutoSplits++
	frags, err := fragment(thick, m.cfg.AutoSplitThreshold)
	if err != nil {
		return m.failf("auto-split of flow %d: %v", f.ID, err)
	}
	f.LiveChildren = len(frags)
	offset := 0
	for i, size := range frags {
		g := fr.leastLoaded()
		child := m.newFlow(f.PC, size, g, len(frags)-1-i)
		child.Parent = f
		child.SetScalars(f.Scalars())
		child.IsFragment = true
		child.TidOffset = offset
		child.TotalThickness = thick
		offset += size
		m.stats.FlowBranchCycles += int64(isa.NumSRegs)
	}
	return nil
}

// preempt rotates one ready resident flow per group back to the pending
// queue when the time-slice quantum expires, giving queued tasks a turn —
// preemptive time-shared multitasking with TCFs as tasks, charged at the
// policy's preemption rate.
func (fr *frontend) preempt() {
	m := fr.m
	q := m.cfg.TimeSliceSteps
	if q <= 0 || m.stats.Steps == 0 || m.stats.Steps%q != 0 {
		return
	}
	for _, g := range m.groups {
		if g.Buf.Pending.Len() > 0 && g.Buf.demoteReady() {
			m.stats.TaskSwitches++
			m.stats.TaskSwitchCycles += m.policy.PreemptCycles(m.cfg.ProcsPerGroup)
		}
	}
}

// compact drops Done flows from the TCF buffers and promotes pending flows
// into freed slots — the zero-cost task switch of the TCF variants
// (Table 1): rotating the TCF storage buffer costs no cycles there. A buffer
// compaction would leave as it is (needsCompaction) is not entered.
func (fr *frontend) compact() {
	m := fr.m
	for _, g := range m.groups {
		if !g.Buf.needsCompaction() {
			continue
		}
		m.tail.Compactions++
		g.Buf.dropDone()
		for g.Buf.promote(m.cfg.ProcsPerGroup) {
			fr.noteTaskSwitch()
		}
		// Flows parked at a barrier (or waiting on children) do not
		// execute; displace them so queued ready tasks can run — without
		// this, a barrier across an oversubscribed task set deadlocks
		// (blocked flows hold every slot while the tasks that must still
		// reach the barrier sit in the queue).
		for g.Buf.displaceBlocked() {
			fr.noteTaskSwitch()
		}
	}
}

// noteTaskSwitch accounts one task rotation at the policy's Table 1 rate:
// free for TCF variants, O(1) for XMT spawning, a full Tp-context switch
// for the thread machines.
func (fr *frontend) noteTaskSwitch() {
	m := fr.m
	m.stats.TaskSwitches++
	m.stats.TaskSwitchCycles += m.policy.TaskSwitchCycles(m.cfg.ProcsPerGroup)
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
