package machine

import "fmt"

// Sched selects the step-engine scheduling discipline. Both schedulers are
// bit-identical in every architectural respect — outputs, statistics, fault
// decisions, discipline verdicts, checkpoints — and differ only in wall
// clock; the lockstep engine is the reference (oracle) implementation.
type Sched int

const (
	// SchedLockstep is the reference scheduler: every group advances
	// through each step's generate→merge→commit→retire pipeline in global
	// synchrony, one step at a time.
	SchedLockstep Sched = iota
	// SchedDataflow lets groups run ahead of each other independently:
	// each group generates its steps on a dedicated runner goroutine and
	// publishes them as step-tagged packets, while a single committer
	// applies the packets in the exact lockstep order. Groups block only
	// on actual dependency edges — a shared-memory page whose writer
	// hasn't committed (internal/mem.Frontier), a cross-flow event
	// (split/join/barrier/multiop) that must retire first, or the bounded
	// packet ring. Only the PRAM-lockstep step shapes run asynchronously;
	// the immediate-semantics MultiInstruction variant serializes groups
	// within a step by definition and falls back to the lockstep engine.
	SchedDataflow
)

func (s Sched) String() string {
	switch s {
	case SchedLockstep:
		return "lockstep"
	case SchedDataflow:
		return "dataflow"
	}
	return fmt.Sprintf("Sched(%d)", int(s))
}
