// Package machine implements the extended PRAM-NUMA machine of Section 3: P
// processor groups of Tp TCF processor slots, a shared memory with PRAM step
// semantics, per-group local memories, a distance-aware latency model, and a
// step engine realizing the six execution variants of Section 3.2.
//
// The physical organization follows Figure 5/13: each group is one physical
// multithreaded pipeline whose TCF storage buffer holds up to Tp resident
// flows; within a step the pipeline executes the resident TCFs' operation
// slices one by one (the single-processor latency-hiding view of Figure 6).
package machine

import (
	"fmt"

	"tcfpram/internal/fault"
	"tcfpram/internal/mem"
	"tcfpram/internal/topology"
	"tcfpram/internal/variant"
)

// Backend once selected the step engine's execution backend. The machine has
// one: the per-PC table internal/fuse compiles at load, whose kernels run
// the register instructions. Both values build that same machine and nothing
// reads Config.Backend; the per-lane reference the tests hold it to is
// NewReference.
//
// Deprecated: the type, its constants and Config.Backend remain only because
// the benchmark module still assigns them; they go with the field (ROADMAP
// item 1).
type Backend int

const (
	// Deprecated: see Backend.
	BackendInterp Backend = iota
	// Deprecated: see Backend. Builds the same machine as BackendInterp.
	BackendFused
)

func (b Backend) String() string {
	switch b {
	case BackendInterp:
		return "interp"
	case BackendFused:
		return "fused"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Config describes a machine instance.
type Config struct {
	// Variant selects the execution model (Section 3.2).
	Variant variant.Kind

	// Backend is read by nothing but New's range check: both values build the
	// one machine.
	//
	// Deprecated: kept only for the benchmark module, which still assigns it
	// (ROADMAP item 1).
	Backend Backend

	// Sched is read by nothing but New's range check: both values build the
	// one lockstep machine.
	//
	// Deprecated: kept only for the benchmark module, which still assigns
	// it (ROADMAP item 1).
	Sched Sched

	// Groups is P, the number of processor groups (physical pipelines).
	Groups int
	// ProcsPerGroup is Tp, the TCF processor slots per group (the capacity
	// of the TCF storage buffer; also the thread count per processor in
	// the thread-based variants).
	ProcsPerGroup int

	// SharedWords sizes the shared memory; LocalWords sizes each group's
	// local memory block.
	SharedWords int
	LocalWords  int

	// Topology is the distance metric between groups and memory blocks.
	// Its Size must equal Groups. Nil defaults to a ring.
	Topology topology.Topology

	// WritePolicy resolves concurrent shared-memory writes.
	WritePolicy mem.Policy

	// PipelineDepth is the per-step pipeline fill/drain overhead in
	// cycles.
	PipelineDepth int
	// MemLatencyBase is the base shared-memory round-trip latency in
	// cycles; the distance to the referenced module is added on top.
	MemLatencyBase int

	// BalancedBound is b, the operation budget per group per step in the
	// Balanced variant.
	BalancedBound int

	// MultiInstrWindow is the maximum instructions a flow executes per
	// step in the MultiInstruction variant.
	MultiInstrWindow int

	// VectorWidth is the fixed thickness of the FixedThickness variant
	// (defaults to ProcsPerGroup).
	VectorWidth int

	// TimeSliceSteps enables preemptive time-shared multitasking: every
	// quantum of steps, each group with pending flows demotes its
	// longest-resident ready flow to the back of the pending queue and
	// promotes the next pending task. Rotating the TCF storage buffer is
	// free on the TCF variants (Table 1's task-switch row); the
	// thread-based variants pay a full Tp-context switch per rotation.
	// 0 disables preemption (tasks rotate only when flows finish).
	TimeSliceSteps int64

	// AutoSplitThreshold enables OS-level splitting of overly thick flows
	// (Section 3.3): when a SETTHICK raises a flow's thickness above the
	// threshold on a control-parallel variant, the machine fragments the
	// flow into threshold-sized pieces allocated across the least-loaded
	// groups. 0 disables splitting.
	AutoSplitThreshold int

	// MaxSteps aborts runaway programs.
	MaxSteps int64

	// MaxThickness bounds the thickness any single flow may reach through
	// SETTHICK or a SPLIT arm. A program exceeding it stops with an error
	// wrapping ErrThicknessLimit — the per-tenant thickness quota of the
	// execution server. 0 disables the bound.
	MaxThickness int

	// WatchdogSteps enables the livelock watchdog: once no observable work
	// (memory traffic, flow creations/completions, barriers, outputs)
	// happens for this many consecutive steps, the watchdog starts cycle
	// detection over the architectural flow state, and a run that provably
	// revisits an identical state stops with an error wrapping ErrDeadlock
	// instead of silently spinning to MaxSteps. Quiet computation that
	// genuinely evolves — register-only arithmetic between two memory
	// operations, however long — is never killed, so the window trades
	// only detection latency, not correctness. 0 disables.
	WatchdogSteps int64

	// MemDiscipline enables the runtime memory-discipline cross-checker:
	// under EREW or CREW every shared read/write of a lockstep step is
	// recorded and the per-address access sets are audited at the step
	// boundary, before commit. A same-step conflict on one word between two
	// distinct (flow, lane) threads stops the run with an error wrapping
	// ErrDisciplineViolation that carries step/PC/address provenance
	// (errors.As against *DisciplineViolation). Off and CRCW record nothing
	// and cost nothing; the checker applies to lockstep plans only —
	// immediate XMT-style semantics serialize memory within the step.
	MemDiscipline mem.Discipline

	// FaultPlan injects deterministic faults (reference loss with
	// retransmission stalls, group→module route detours, memory-module
	// fail-stop with spare failover). Faults change cycle counts only;
	// results are identical to the fault-free run unless the plan is
	// unrecoverable, which surfaces as ErrFaultUnrecoverable. Nil runs
	// fault-free. Under a plan every shared reference is issued on its own,
	// since each draws its own fault decision: bulk LD and ST stand aside.
	FaultPlan *fault.Plan

	// Parallel is read by nothing: every step runs its groups, lanes and
	// commit on the stepping goroutine.
	//
	// Deprecated: kept only for the benchmark module, which still assigns
	// it (ROADMAP item 1).
	Parallel bool

	// TraceEnabled records per-slice execution for the trace package.
	TraceEnabled bool

	// StageObserver, when non-nil, receives each step's per-stage cost
	// attribution (Figure 13 stages) right after the step commits. The
	// callback runs on the stepping goroutine; observers must not call back
	// into the machine.
	StageObserver StageObserver

	// CheckpointEvery, when positive and CheckpointSink is non-nil, makes
	// RunContext emit a complete machine snapshot (Machine.Snapshot) every
	// CheckpointEvery steps, at the step boundary. Checkpointing never
	// changes results: restore-then-run is bit-identical to the
	// uninterrupted run. Disabled checkpointing costs nothing — the step
	// loop stays allocation-free. A sink error stops the run.
	CheckpointEvery int64

	// CheckpointSink receives the periodic snapshots (checkpoint.FileSink
	// writes them atomically to disk). Like StageObserver, the callback runs
	// on the stepping goroutine between steps.
	CheckpointSink CheckpointSink
}

// StageObserver receives per-step, per-stage cost deltas from the staged
// engine (see Stats.Stages for the cumulative view).
type StageObserver interface {
	ObserveStage(step int64, stage Stage, d StageStats)
}

// Default returns a small, fully specified configuration for the given
// variant: P=4 groups, Tp=4 slots, 64Ki shared words, 4Ki local words,
// ring topology, arbitrary CRCW.
func Default(kind variant.Kind) Config {
	groups := 4
	if kind == variant.FixedThickness {
		groups = 1 // the vector/SIMD reduction limits the machine to one processor
	}
	return Config{
		Variant:          kind,
		Groups:           groups,
		ProcsPerGroup:    4,
		SharedWords:      1 << 16,
		LocalWords:       1 << 12,
		WritePolicy:      mem.Arbitrary,
		PipelineDepth:    4,
		MemLatencyBase:   8,
		BalancedBound:    4,
		MultiInstrWindow: 8,
		MaxSteps:         1 << 22,
	}
}

// normalize fills defaults and validates; it returns the effective config.
func (c Config) normalize() (Config, error) {
	if !c.Variant.Valid() {
		return c, fmt.Errorf("machine: invalid variant %v", c.Variant)
	}
	if c.Groups <= 0 || c.ProcsPerGroup <= 0 {
		return c, fmt.Errorf("machine: need positive Groups (%d) and ProcsPerGroup (%d)", c.Groups, c.ProcsPerGroup)
	}
	if c.Variant == variant.FixedThickness && c.Groups != 1 {
		// The paper's vector/SIMD reduction limits the machine to one
		// processor with a fixed-width datapath.
		return c, fmt.Errorf("machine: fixed-thickness variant requires exactly one group, got %d", c.Groups)
	}
	if c.SharedWords <= 0 {
		c.SharedWords = 1 << 16
	}
	if c.LocalWords <= 0 {
		c.LocalWords = 1 << 12
	}
	if c.Topology == nil {
		ring, err := topology.NewRing(c.Groups)
		if err != nil {
			return c, fmt.Errorf("machine: %w", err)
		}
		c.Topology = ring
	}
	if c.Topology.Size() != c.Groups {
		return c, fmt.Errorf("machine: topology size %d != groups %d", c.Topology.Size(), c.Groups)
	}
	if c.PipelineDepth < 0 || c.MemLatencyBase < 0 {
		return c, fmt.Errorf("machine: negative latency parameters")
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 4
	}
	if c.BalancedBound <= 0 {
		c.BalancedBound = 4
	}
	if c.MultiInstrWindow <= 0 {
		c.MultiInstrWindow = 8
	}
	if c.VectorWidth <= 0 {
		c.VectorWidth = c.ProcsPerGroup
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1 << 22
	}
	if c.WatchdogSteps < 0 {
		return c, fmt.Errorf("machine: negative WatchdogSteps %d", c.WatchdogSteps)
	}
	if c.MaxThickness < 0 {
		return c, fmt.Errorf("machine: negative MaxThickness %d", c.MaxThickness)
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("machine: negative CheckpointEvery %d", c.CheckpointEvery)
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(); err != nil {
			return c, fmt.Errorf("machine: %w", err)
		}
	}
	if c.Backend != BackendInterp && c.Backend != BackendFused {
		return c, fmt.Errorf("machine: unknown backend %d", int(c.Backend))
	}
	if !c.Sched.known() {
		return c, fmt.Errorf("machine: unknown scheduler %d", int(c.Sched))
	}
	return c, nil
}

// TotalProcessors returns P*Tp, the number of TCF processor slots.
func (c Config) TotalProcessors() int { return c.Groups * c.ProcsPerGroup }

// machineShape projects the configuration onto the slice a variant.Policy
// consults. Call on a normalized config.
func (c Config) machineShape() variant.MachineShape {
	return variant.MachineShape{
		Groups:           c.Groups,
		ProcsPerGroup:    c.ProcsPerGroup,
		BalancedBound:    c.BalancedBound,
		MultiInstrWindow: c.MultiInstrWindow,
		VectorWidth:      c.VectorWidth,
	}
}

// PolicyShape resolves the variant's registered execution policy and
// returns the step-execution shape it selects for this configuration
// (after normalization).
func (c Config) PolicyShape() (variant.StepShape, error) {
	n, err := c.normalize()
	if err != nil {
		return variant.StepShape{}, err
	}
	pol, err := variant.PolicyFor(n.Variant)
	if err != nil {
		return variant.StepShape{}, fmt.Errorf("machine: %w", err)
	}
	return pol.Shape(n.machineShape()), nil
}
