package variant

import "fmt"

// MachineShape is the slice of the machine configuration a Policy may
// consult when shaping execution: the physical organization (P groups of Tp
// TCF processor slots) and the per-variant tuning knobs.
type MachineShape struct {
	Groups           int // P
	ProcsPerGroup    int // Tp
	BalancedBound    int // b, the Balanced operation budget per group-step
	MultiInstrWindow int // XMT instructions per flow per step
	VectorWidth      int // fixed thickness of the SIMD datapath
}

// StepShape is the execution discipline a Policy hands the step engine: how
// the backend fetches and budgets the operations of one step. With the
// variant's Lockstep property and the step index it forms the engine's
// StepPlan, so the whole per-step behavior of a variant is captured by that
// one structure.
type StepShape struct {
	// Window is the maximum number of TCF instructions one flow executes
	// per step.
	Window int
	// Budget bounds the operation slices per group per step (the Balanced
	// variant's b); 0 means unbounded.
	Budget int
	// Rotate rotates the resident slot served first each step, so a thick
	// flow cannot starve its slot-mates of the budget.
	Rotate bool
	// Slice lets a partially executed thick instruction continue next step
	// from its first unexecuted operation (the Balanced discipline); the
	// instruction is re-fetched each step it continues.
	Slice bool
	// PerThreadFetch charges one instruction fetch per implicit thread
	// (a thickness-u instruction costs u fetches) instead of the TCF
	// variants' fetch-once-per-instruction discipline.
	PerThreadFetch bool
}

// BootFlow seeds one initial flow at machine boot.
type BootFlow struct {
	Group     int
	Thickness int
}

// Policy is the execution policy of one Section 3.2 variant: the fetch
// discipline, operation budget and boot population the step engine
// consumes, plus the Table 1 costs the frontend charges for task switches
// and flow branches, which Table 1 prints where no workload measures them.
// The engine itself contains no per-variant conditionals; everything
// variant-specific flows through this interface and the variant's Props.
type Policy interface {
	// Shape returns the step-execution discipline for a machine shape.
	Shape(ms MachineShape) StepShape
	// BootFlows returns the initial flow population (Section 2.2: TCF
	// variants start with one flow of thickness one; thread machines boot
	// their fixed thread set; SIMD boots one vector-wide flow).
	BootFlows(ms MachineShape) []BootFlow
	// TaskSwitchCycles is the cost of rotating one task through the TCF
	// storage buffer (Table 1 task-switch row): free for TCF variants, 1
	// for XMT spawning, a full Tp-context switch for thread machines.
	TaskSwitchCycles(tp int) int64
	// PreemptCycles is the cost of demoting a resident flow at a
	// time-slice quantum boundary. It differs from TaskSwitchCycles only
	// for MultiInstruction, whose O(1) spawn cost does not apply to a
	// buffer rotation.
	PreemptCycles(tp int) int64
	// FlowBranchCycles is the cost of creating one split child (Table 1
	// flow-branch row): the TCF variants copy the R common registers into
	// the child, O(R); thread machines branch in place, O(1).
	FlowBranchCycles(regs int) int64
}

// tcfBase carries the shape-independent behavior shared by the
// thickness-aware TCF variants: buffer rotation is free, a split child
// inherits the R common registers, and a program boots as a single flow of
// thickness one.
type tcfBase struct{}

func (tcfBase) TaskSwitchCycles(int) int64        { return 0 }
func (tcfBase) PreemptCycles(int) int64           { return 0 }
func (tcfBase) FlowBranchCycles(regs int) int64   { return int64(regs) }
func (tcfBase) BootFlows(MachineShape) []BootFlow { return []BootFlow{{Group: 0, Thickness: 1}} }

// threadBase is the thread-machine counterpart: the machine boots P*Tp
// thickness-1 flows (flow id = global thread id), switching a task moves all
// Tp thread contexts of a slot set, and threads branch in place.
type threadBase struct{}

func (threadBase) TaskSwitchCycles(tp int) int64 { return int64(tp) }
func (threadBase) PreemptCycles(tp int) int64    { return int64(tp) }
func (threadBase) FlowBranchCycles(int) int64    { return 1 }
func (threadBase) Shape(MachineShape) StepShape  { return StepShape{Window: 1} }
func (threadBase) BootFlows(ms MachineShape) []BootFlow {
	out := make([]BootFlow, 0, ms.Groups*ms.ProcsPerGroup)
	for g := 0; g < ms.Groups; g++ {
		for s := 0; s < ms.ProcsPerGroup; s++ {
			out = append(out, BootFlow{Group: g, Thickness: 1})
		}
	}
	return out
}

// SingleInstructionPolicy realizes the TCF model in full: one TCF
// instruction of every resident flow per step, fetched once regardless of
// thickness, under PRAM lockstep (Figure 7).
type SingleInstructionPolicy struct{ tcfBase }

func (SingleInstructionPolicy) Shape(MachineShape) StepShape {
	return StepShape{Window: 1}
}

// BalancedPolicy bounds each group to b operation slices per step;
// incomplete thick instructions continue next step from the first
// unexecuted lane, and the serving order rotates across slots (Figure 8).
type BalancedPolicy struct{ tcfBase }

func (BalancedPolicy) Shape(ms MachineShape) StepShape {
	return StepShape{Window: 1, Budget: ms.BalancedBound, Rotate: true, Slice: true}
}

// MultiInstructionPolicy is the XMT-style model: up to MultiInstrWindow
// instructions per flow per step with immediate memory semantics and no
// lockstep between flows; instruction delivery is per thread, and spawning
// replaces register copying at splits (Figure 9).
type MultiInstructionPolicy struct{ tcfBase }

func (MultiInstructionPolicy) Shape(ms MachineShape) StepShape {
	return StepShape{Window: ms.MultiInstrWindow, PerThreadFetch: true}
}
func (MultiInstructionPolicy) TaskSwitchCycles(int) int64 { return 1 }
func (MultiInstructionPolicy) FlowBranchCycles(int) int64 { return 1 }

// SingleOperationPolicy is the interleaved ESM machine (SB-PRAM, ECLIPSE):
// a fixed set of P*Tp thickness-1 threads in lockstep.
type SingleOperationPolicy struct{ threadBase }

// ConfigurableSingleOperationPolicy is the original PRAM-NUMA machine
// (TOTAL ECLIPSE): the fixed thread set plus NUMA bunching of processors.
type ConfigurableSingleOperationPolicy struct{ threadBase }

// FixedThicknessPolicy is the vector/SIMD reduction: a single flow of the
// fixed vector width on the one processor, with a scalar unit and no
// control parallelism. Its switch/branch costs are the thread-machine ones
// from Table 1; with a single bootable flow they are never actually paid.
type FixedThicknessPolicy struct{ threadBase }

func (FixedThicknessPolicy) BootFlows(ms MachineShape) []BootFlow {
	return []BootFlow{{Group: 0, Thickness: ms.VectorWidth}}
}

// policies are the six paper variants' policies, indexed by Kind.
var policies = [numKinds]Policy{
	SingleInstruction:           SingleInstructionPolicy{},
	Balanced:                    BalancedPolicy{},
	MultiInstruction:            MultiInstructionPolicy{},
	SingleOperation:             SingleOperationPolicy{},
	ConfigurableSingleOperation: ConfigurableSingleOperationPolicy{},
	FixedThickness:              FixedThicknessPolicy{},
}

// PolicyFor returns the execution policy of k.
func PolicyFor(k Kind) (Policy, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("variant: no policy for %v", k)
	}
	return policies[k], nil
}
