// Conformance suite for the variant.Policy interface: every registered
// policy must (a) declare the step shape and boot population its Section
// 3.2 variant prescribes, (b) charge exactly the Table 1 costs that
// figgen table1 emits for its column, and (c) drive the staged engine over
// the tcf-e corpus such that the measured Stats decompose according to the
// policy's cost model — or reject the program with a typed capability
// error when the corpus uses a feature the variant lacks.
package variant_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/exper"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/sema"
	"tcfpram/internal/variant"
)

// corpusFiles returns every tcf-e corpus program, sorted.
func corpusFiles(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "codegen", "testdata", "*.te"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) < 10 {
		tb.Fatalf("corpus too small: %d programs", len(files))
	}
	return files
}

func policyFor(tb testing.TB, kind variant.Kind) variant.Policy {
	tb.Helper()
	pol, err := variant.PolicyFor(kind)
	if err != nil {
		tb.Fatal(err)
	}
	return pol
}

// TestPolicyRegistry checks every Section 3.2 variant has a registered
// policy whose kind, properties and step shape match the variant's
// documented discipline.
func TestPolicyRegistry(t *testing.T) {
	ms := variant.MachineShape{Groups: 4, ProcsPerGroup: 4, BalancedBound: 4,
		MultiInstrWindow: 8, VectorWidth: 16}
	for _, kind := range variant.Kinds() {
		pol := policyFor(t, kind)
		if pol.Kind() != kind {
			t.Fatalf("policy for %v reports kind %v", kind, pol.Kind())
		}
		if pol.Props() != kind.Props() {
			t.Fatalf("policy for %v disagrees with the static properties", kind)
		}
		shape := pol.Shape(ms)
		if shape.Lockstep != kind.Props().Lockstep {
			t.Fatalf("%v: shape lockstep %v, props say %v", kind, shape.Lockstep, kind.Props().Lockstep)
		}
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
// reference P=4, Tp=4, R=16, b=4 machine): the measured-or-analytic task
// switch and flow branch costs must equal the policy's rates, and the
// measured fetches per thick instruction must follow the policy's fetch
// discipline.
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
		case shape.PerThreadFetch || pol.Props().FixedThreads:
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

// portableProgram is a scalar straight-line program every variant can run:
// no SETTHICK, SPLIT or NUMA, so even the fixed-thread and SIMD machines
// accept it.
func portableProgram() *isa.Program {
	b := isa.NewBuilder("portable")
	b.Label("main")
	for i := 0; i < 6; i++ {
		b.ALUI(isa.ADD, isa.S(1), isa.S(1), 3)
	}
	b.Halt()
	return b.MustBuild()
}

// runUnderPolicy runs one compiled program on kind's default machine and
// checks the measured Stats decompose per the policy's cost model. It
// returns false when the machine rejected the program.
func runUnderPolicy(t *testing.T, kind variant.Kind, prog *isa.Program, local []sema.DataSeg) bool {
	t.Helper()
	pol := policyFor(t, kind)
	cfg := machine.Default(kind)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	for _, seg := range local {
		for g := 0; g < cfg.Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Run(); err != nil {
		// The only legitimate rejection is a capability the variant lacks
		// (SETTHICK / SPLIT / NUMA / PRAM on a machine without it), and
		// only variants missing a capability may reject at all.
		props := pol.Props()
		if props.VariableThickness && props.ControlParallel && props.NUMAOperation {
			t.Fatalf("%v rejected a program despite full capabilities: %v", kind, err)
		}
		if !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("%v rejected with a non-capability error: %v", kind, err)
		}
		return false
	}

	s := m.Stats()
	props := pol.Props()
	tp := cfg.ProcsPerGroup

	// Task rotation: with no time slicing configured, every switch is a
	// buffer rotation charged at the policy's Table 1 rate.
	if want := s.TaskSwitches * pol.TaskSwitchCycles(tp); s.TaskSwitchCycles != want {
		t.Fatalf("%v: %d task switches cost %d cycles, policy rate implies %d",
			kind, s.TaskSwitches, s.TaskSwitchCycles, want)
	}
	// Flow branching: every split child pays the policy's branch cost
	// (fragments pay the TCF rate, but the default config never splits).
	var children int64
	for _, f := range m.Flows() {
		if f.Parent != nil {
			children++
		}
	}
	if s.AutoSplits != 0 {
		t.Fatalf("%v: unexpected auto-splits with threshold 0", kind)
	}
	if want := children * pol.FlowBranchCycles(isa.NumSRegs); s.FlowBranchCycles != want {
		t.Fatalf("%v: %d split children cost %d cycles, policy rate implies %d",
			kind, children, s.FlowBranchCycles, want)
	}
	if !props.ControlParallel && s.Splits != 0 {
		t.Fatalf("%v: splits on a variant without control parallelism", kind)
	}

	// Stage attribution (Figure 13): the staged engine must account every
	// cost category to exactly one stage.
	st := s.Stages
	if st[machine.StageOpGen].Cycles != s.Ops+s.ScalarOps {
		t.Fatalf("%v: opgen stage %d cycles != ops %d", kind, st[machine.StageOpGen].Cycles, s.Ops+s.ScalarOps)
	}
	if st[machine.StageOpGen].Events != s.InstrFetches {
		t.Fatalf("%v: opgen stage %d events != fetches %d", kind, st[machine.StageOpGen].Events, s.InstrFetches)
	}
	if want := s.OverheadCycles + s.StallCycles + s.FaultStallCycles; st[machine.StageMemory].Cycles != want {
		t.Fatalf("%v: memory stage %d cycles != overhead+stalls %d", kind, st[machine.StageMemory].Cycles, want)
	}
	if want := s.FlowBranchCycles + s.TaskSwitchCycles; st[machine.StageFrontend].Cycles != want {
		t.Fatalf("%v: frontend stage %d cycles != branch+switch %d", kind, st[machine.StageFrontend].Cycles, want)
	}
	if want := s.Splits + s.Joins + s.AutoSplits + s.TaskSwitches; st[machine.StageFrontend].Events != want {
		t.Fatalf("%v: frontend stage %d events != %d", kind, st[machine.StageFrontend].Events, want)
	}
	return true
}

// TestPolicyConformanceCorpus is the table-driven suite: every corpus
// program under all six policies, plus a portable scalar program that every
// variant must accept, so even the capability-poor variants prove the
// policy cost decomposition on at least one successful run.
func TestPolicyConformanceCorpus(t *testing.T) {
	files := corpusFiles(t)
	portable := portableProgram()
	for _, kind := range variant.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			succeeded := 0
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				c, err := codegen.CompileSource(file, string(src))
				if err != nil {
					t.Fatalf("compile %s: %v", file, err)
				}
				if runUnderPolicy(t, kind, c.Program, c.LocalData) {
					succeeded++
				}
			}
			if !runUnderPolicy(t, kind, portable, nil) {
				t.Fatalf("%v rejected the portable scalar program", kind)
			}
			props := kind.Props()
			if props.VariableThickness && succeeded != len(files) {
				t.Fatalf("%v: only %d/%d corpus programs ran", kind, succeeded, len(files))
			}
			t.Logf("%v: %d/%d corpus programs ran (+portable)", kind, succeeded, len(files))
		})
	}
}
