// Conformance suite for the variant.Policy interface: every policy must
// (a) declare the step shape and boot population its Section 3.2 variant
// prescribes and (b) charge exactly the Table 1 costs that figgen table1
// emits for its column. That the engine's Stats decompose by those costs —
// or that a variant refuses what it lacks with a typed capability error — is
// held on every oracle of the differential lattice (internal/chaos, costLaw
// and newCells).
package variant_test

import (
	"testing"

	"tcfpram/internal/exper"
	"tcfpram/internal/variant"
)

func policyFor(tb testing.TB, kind variant.Kind) variant.Policy {
	tb.Helper()
	pol, err := variant.PolicyFor(kind)
	if err != nil {
		tb.Fatal(err)
	}
	return pol
}

// TestPolicyRegistry checks every Section 3.2 variant has a policy whose
// step shape and boot population match the variant's documented discipline.
func TestPolicyRegistry(t *testing.T) {
	ms := variant.MachineShape{Groups: 4, ProcsPerGroup: 4, BalancedBound: 4,
		MultiInstrWindow: 8, VectorWidth: 16}
	for _, kind := range variant.Kinds() {
		pol := policyFor(t, kind)
		shape := pol.Shape(ms)
		boot := pol.BootFlows(ms)
		switch kind {
		case variant.SingleInstruction, variant.Balanced, variant.MultiInstruction:
			if len(boot) != 1 || boot[0].Thickness != 1 {
				t.Fatalf("%v: TCF variants boot one thin flow, got %+v", kind, boot)
			}
		case variant.SingleOperation, variant.ConfigurableSingleOperation:
			if len(boot) != ms.Groups*ms.ProcsPerGroup {
				t.Fatalf("%v: thread machines boot P*Tp flows, got %d", kind, len(boot))
			}
			for _, bf := range boot {
				if bf.Thickness != 1 {
					t.Fatalf("%v: thread flows must have thickness 1: %+v", kind, bf)
				}
			}
		case variant.FixedThickness:
			if len(boot) != 1 || boot[0].Thickness != ms.VectorWidth {
				t.Fatalf("%v: SIMD boots one vector-wide flow, got %+v", kind, boot)
			}
		}
		switch kind {
		case variant.Balanced:
			if shape.Budget != ms.BalancedBound || !shape.Slice || !shape.Rotate {
				t.Fatalf("balanced shape wrong: %+v", shape)
			}
		case variant.MultiInstruction:
			if shape.Window != ms.MultiInstrWindow || !shape.PerThreadFetch {
				t.Fatalf("multi-instruction shape wrong: %+v", shape)
			}
		default:
			if shape.Window != 1 || shape.Budget != 0 || shape.Slice || shape.PerThreadFetch {
				t.Fatalf("%v: single-instruction-per-step shape wrong: %+v", kind, shape)
			}
		}
	}
}

// TestPolicyCostsMatchTable1 cross-checks each policy's cost methods
// against the Table 1 columns emitted by figgen table1 (exper.Table1 on the
// reference P=4, Tp=4, R=16, b=4 machine): the measured task switch and flow
// branch costs must equal the policy's rates (the cells no workload
// measures print those rates), and the measured fetches per thick
// instruction must follow the policy's fetch discipline.
func TestPolicyCostsMatchTable1(t *testing.T) {
	const u = 16
	rows, err := exper.Table1(8, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		pol := policyFor(t, row.Variant)
		if want := float64(pol.TaskSwitchCycles(exper.Tp)); row.TaskSwitchCost != want {
			t.Errorf("%v: Table 1 task switch %.1f, policy charges %.1f (measured=%v)",
				row.Variant, row.TaskSwitchCost, want, row.TaskSwitchMeasured)
		}
		if want := float64(pol.FlowBranchCycles(exper.R)); row.FlowBranchCost != want {
			t.Errorf("%v: Table 1 flow branch %.1f, policy charges %.1f (measured=%v)",
				row.Variant, row.FlowBranchCost, want, row.FlowBranchMeasured)
		}
		// Fetch discipline: per-thread delivery costs u fetches per thick
		// instruction (whether the u threads share one flow, as in XMT, or
		// are u separate thread flows), the balanced discipline re-fetches
		// once per budgeted slice, and fetch-once costs exactly 1.
		shape := pol.Shape(variant.MachineShape{Groups: exper.P, ProcsPerGroup: exper.Tp,
			BalancedBound: exper.B, MultiInstrWindow: 8, VectorWidth: u})
		var wantFetches float64
		switch {
		case shape.PerThreadFetch || row.Variant.Props().FixedThreads:
			wantFetches = u
		case shape.Slice:
			wantFetches = float64((u + shape.Budget - 1) / shape.Budget)
		default:
			wantFetches = 1
		}
		if row.FetchesPerTCF != wantFetches {
			t.Errorf("%v: Table 1 fetches/TCF %.2f, policy shape implies %.2f",
				row.Variant, row.FetchesPerTCF, wantFetches)
		}
	}
}
