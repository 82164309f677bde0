// Package variant enumerates the execution-model variants of the extended
// PRAM-NUMA model (Section 3.2) and carries their static properties and the
// execution policies the step engine charges: together, each variant's
// column of the paper's Table 1.
package variant

import "fmt"

// Kind selects one of the six execution variants.
type Kind int

const (
	// SingleInstruction: per step every TCF processor executes exactly one
	// TCF instruction of each resident flow — a variable number of
	// identical operations (PRAM mode) or consecutive instructions (NUMA
	// mode). The most general variant, realizing the TCF model in full.
	SingleInstruction Kind = iota
	// Balanced: per step every TCF processor executes a bounded number of
	// operations out of TCF instructions; incomplete instructions continue
	// next step from the first unexecuted operation.
	Balanced
	// MultiInstruction: multiple instructions per logical step and no
	// lockstep between flows — the execution model of the XMT
	// architecture. Synchronization only at split/join and barriers.
	MultiInstruction
	// SingleOperation: thickness of all TCFs fixed to one — the standard
	// interleaved ESM architecture (SB-PRAM, ECLIPSE).
	SingleOperation
	// ConfigurableSingleOperation: thickness one plus NUMA bunching of
	// processors — the original PRAM-NUMA model (TOTAL ECLIPSE).
	ConfigurableSingleOperation
	// FixedThickness: a single flow of fixed thickness with a scalar unit
	// and no control parallelism — the traditional vector/SIMD model.
	FixedThickness

	numKinds
)

// Kinds lists all variants in Table 1 column order.
func Kinds() []Kind {
	return []Kind{SingleInstruction, Balanced, MultiInstruction,
		SingleOperation, ConfigurableSingleOperation, FixedThickness}
}

func (k Kind) String() string {
	switch k {
	case SingleInstruction:
		return "single-instruction"
	case Balanced:
		return "balanced"
	case MultiInstruction:
		return "multi-instruction"
	case SingleOperation:
		return "single-operation"
	case ConfigurableSingleOperation:
		return "configurable-single-operation"
	case FixedThickness:
		return "fixed-thickness"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a variant by its String name (and a few aliases).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "single-instruction", "si", "tcf":
		return SingleInstruction, nil
	case "balanced", "bal":
		return Balanced, nil
	case "multi-instruction", "mi", "xmt":
		return MultiInstruction, nil
	case "single-operation", "so", "esm", "sb-pram":
		return SingleOperation, nil
	case "configurable-single-operation", "cso", "pram-numa", "total-eclipse":
		return ConfigurableSingleOperation, nil
	case "fixed-thickness", "ft", "simd", "vector":
		return FixedThickness, nil
	}
	return 0, fmt.Errorf("variant: unknown kind %q", s)
}

// Valid reports whether k is a defined variant.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Properties are the qualitative rows of Table 1 plus execution-shape flags
// the engine needs.
type Properties struct {
	// UnboundedThreads: the number of implicit threads is the thickness u,
	// unbounded; otherwise the machine has P*Tp threads.
	UnboundedThreads bool
	// VariableThickness: TCFs may change thickness (SETTHICK legal).
	VariableThickness bool
	// PRAMOperation / NUMAOperation / MIMD as in Table 1.
	PRAMOperation bool
	NUMAOperation bool
	MIMD          bool
	// SequentialVia describes how sequential code runs efficiently.
	SequentialVia string
	// ControlParallel: SPLIT/JOIN supported.
	ControlParallel bool
	// Lockstep retains the PRAM step semantics: memory effects buffer until
	// the step boundary and flows advance in instruction-level synchrony.
	// False selects immediate (XMT-style) memory semantics with groups
	// executed serially.
	Lockstep bool
	// FixedThreads: machine boots a fixed set of thickness-1 flows
	// (thread programming model, thread id = flow id).
	FixedThreads bool
}

var props = [numKinds]Properties{
	SingleInstruction: {
		UnboundedThreads: true, VariableThickness: true, PRAMOperation: true, NUMAOperation: true,
		MIMD: true, SequentialVia: "NUMA", ControlParallel: true, Lockstep: true,
	},
	Balanced: {
		UnboundedThreads: true, VariableThickness: true, PRAMOperation: true, NUMAOperation: true,
		MIMD: true, SequentialVia: "NUMA", ControlParallel: true, Lockstep: true,
	},
	MultiInstruction: {
		VariableThickness: true, PRAMOperation: false, NUMAOperation: true,
		MIMD: true, SequentialVia: "single thr.", ControlParallel: true, Lockstep: false,
	},
	SingleOperation: {
		VariableThickness: false, PRAMOperation: true, NUMAOperation: false,
		MIMD: true, SequentialVia: "single thr.", ControlParallel: false, Lockstep: true,
		FixedThreads: true,
	},
	ConfigurableSingleOperation: {
		VariableThickness: false, PRAMOperation: true, NUMAOperation: true,
		MIMD: true, SequentialVia: "NUMA", ControlParallel: false, Lockstep: true,
		FixedThreads: true,
	},
	FixedThickness: {
		VariableThickness: false, PRAMOperation: false, NUMAOperation: false,
		MIMD: false, SequentialVia: "scalar unit", ControlParallel: false, Lockstep: true,
	},
}

// Props returns the static properties of k.
func (k Kind) Props() Properties {
	if !k.Valid() {
		panic(fmt.Sprintf("variant: no properties for %v", k))
	}
	return props[k]
}
