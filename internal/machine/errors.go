package machine

import "errors"

// The error taxonomy of the public run paths. Every way a run can stop
// abnormally wraps exactly one of these sentinels, so callers can dispatch
// with errors.Is instead of matching message strings.
var (
	// ErrDeadlock: live flows exist but none can ever run again (missing
	// JOIN, or the progress watchdog saw no observable progress).
	ErrDeadlock = errors.New("deadlock")
	// ErrMaxSteps: the MaxSteps livelock bound was exceeded.
	ErrMaxSteps = errors.New("max steps exceeded")
	// ErrCanceled: the RunContext context was canceled between steps.
	ErrCanceled = errors.New("run canceled")
	// ErrDisciplineViolation: the memory-discipline cross-checker
	// (Config.MemDiscipline) observed a same-step conflict forbidden by the
	// selected PRAM model. errors.As against *DisciplineViolation recovers
	// the step, address and both accesses.
	ErrDisciplineViolation = errors.New("memory discipline violation")
	// ErrThicknessLimit: a flow tried to grow past Config.MaxThickness
	// (SETTHICK or a SPLIT arm). This is the per-tenant thickness quota of
	// the execution server; 0 disables the bound.
	ErrThicknessLimit = errors.New("thickness limit exceeded")
)
