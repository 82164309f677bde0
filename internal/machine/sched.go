package machine

import "fmt"

// Sched once selected the step scheduler. The machine has one: every group
// runs its share of a step and the step barrier commits them (Section 3.1).
// Both values build that same machine and nothing reads Config.Sched.
//
// Deprecated: the type, its constants and Config.Sched remain only because
// the benchmark module still assigns them; they go with the field (ROADMAP
// item 1).
type Sched int

const (
	// Deprecated: see Sched.
	SchedLockstep Sched = iota
	// Deprecated: see Sched. Runs the lockstep step loop like SchedLockstep.
	SchedDataflow
)

func (s Sched) known() bool { return s == SchedLockstep || s == SchedDataflow }

func (s Sched) String() string {
	switch s {
	case SchedLockstep:
		return "lockstep"
	case SchedDataflow:
		return "dataflow"
	}
	return fmt.Sprintf("Sched(%d)", int(s))
}
