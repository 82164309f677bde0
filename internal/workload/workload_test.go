package workload

import (
	"strings"
	"testing"

	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

// runOn executes w on a fresh machine of the given variant and verifies it.
func runOn(t *testing.T, kind variant.Kind, w Workload, tweak func(*machine.Config)) *machine.Machine {
	t.Helper()
	cfg := machine.Default(kind)
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(w.Program); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s on %v: %v", w.Name, kind, err)
	}
	if err := w.Check(m); err != nil {
		t.Fatalf("%s on %v: %v", w.Name, kind, err)
	}
	return m
}

func TestVectorAddAllStylesAndVariants(t *testing.T) {
	const size = 37 // deliberately not a multiple of anything
	cases := []struct {
		kind  variant.Kind
		style Style
	}{
		{variant.SingleInstruction, StyleTCF},
		{variant.Balanced, StyleTCF},
		{variant.MultiInstruction, StyleTCF},
		{variant.MultiInstruction, StyleFork},
		{variant.SingleOperation, StyleThread},
		{variant.ConfigurableSingleOperation, StyleThread},
		{variant.SingleInstruction, StyleFork},
	}
	for _, c := range cases {
		t.Run(c.kind.String()+"/"+c.style.String(), func(t *testing.T) {
			runOn(t, c.kind, VectorAdd(c.style, size, 16, 0), nil)
		})
	}
	t.Run("fixed-thickness/simd", func(t *testing.T) {
		runOn(t, variant.FixedThickness, VectorAdd(StyleSIMD, size, 0, 8), func(c *machine.Config) {
			c.ProcsPerGroup = 8
			c.VectorWidth = 8
		})
	})
}

func TestVectorAddSmallSizes(t *testing.T) {
	for _, size := range []int{1, 2, 15, 16, 17} {
		runOn(t, variant.SingleInstruction, VectorAdd(StyleTCF, size, 16, 0), nil)
		runOn(t, variant.SingleOperation, VectorAdd(StyleThread, size, 16, 0), nil)
	}
}

func TestLowTLP(t *testing.T) {
	// PRAM-mode chain.
	m1 := runOn(t, variant.SingleInstruction, LowTLP(64, 0), nil)
	// NUMA bunch of 4 on the same variant.
	m4 := runOn(t, variant.SingleInstruction, LowTLP(64, 4), nil)
	if m4.Stats().Steps*2 >= m1.Stats().Steps {
		t.Fatalf("NUMA bunch should cut steps: %d vs %d", m4.Stats().Steps, m1.Stats().Steps)
	}
}

func TestLowTLPOnConfigurableSingleOperation(t *testing.T) {
	// The original PRAM-NUMA: thread flows can bunch. All 16 threads run
	// the chain; correctness only needs one result, overwrites agree.
	runOn(t, variant.ConfigurableSingleOperation, LowTLP(32, 4), nil)
}

func TestConditionalHalves(t *testing.T) {
	cases := []struct {
		kind  variant.Kind
		style Style
	}{
		{variant.SingleInstruction, StyleTCF},
		{variant.Balanced, StyleTCF},
		{variant.MultiInstruction, StyleFork},
		{variant.SingleOperation, StyleThread},
	}
	for _, c := range cases {
		t.Run(c.kind.String()+"/"+c.style.String(), func(t *testing.T) {
			runOn(t, c.kind, ConditionalHalves(c.style, 12), nil)
		})
	}
	t.Run("fixed-thickness/simd", func(t *testing.T) {
		runOn(t, variant.FixedThickness, ConditionalHalves(StyleSIMD, 12), func(c *machine.Config) {
			c.ProcsPerGroup = 12
			c.VectorWidth = 12
		})
	})
}

func TestPrefixSum(t *testing.T) {
	runOn(t, variant.SingleInstruction, PrefixSum(StyleTCF, 50, 0), nil)
	runOn(t, variant.Balanced, PrefixSum(StyleTCF, 50, 0), nil)
	runOn(t, variant.SingleOperation, PrefixSum(StyleThread, 50, 16), nil)
}

func TestPrefixSumPanicsOnBadStyle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PrefixSum(StyleSIMD, 8, 0)
}

func TestDependentLoop(t *testing.T) {
	runOn(t, variant.SingleInstruction, DependentLoop(StyleTCF, 16), nil)
	runOn(t, variant.Balanced, DependentLoop(StyleTCF, 16), nil)
	// XMT fork/join version must work without lockstep.
	runOn(t, variant.MultiInstruction, DependentLoop(StyleFork, 16), nil)
	// Thread version on the lockstep thread machine (size <= threads).
	runOn(t, variant.SingleOperation, DependentLoop(StyleThread, 16), nil)
}

func TestDependentLoopPanicsOnBadStyle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DependentLoop(StyleSIMD, 8)
}

func TestMultitask(t *testing.T) {
	m := runOn(t, variant.SingleInstruction, Multitask(24, 4), nil)
	// 24 tasks on 16 slots: rotation must have happened, for free.
	if m.Stats().TaskSwitches == 0 {
		t.Fatal("expected task rotation")
	}
	if m.Stats().TaskSwitchCycles != 0 {
		t.Fatalf("TCF task switching must be free, cost %d", m.Stats().TaskSwitchCycles)
	}
}

func TestAllocationHorizontalBeatsVertical(t *testing.T) {
	const tApp, iters = 64, 8
	vertical := runOn(t, variant.SingleInstruction, Allocation(tApp, 1, iters), nil)
	horizontal := runOn(t, variant.SingleInstruction, Allocation(tApp, 4, iters), nil)
	v, h := vertical.Stats().Cycles, horizontal.Stats().Cycles
	if h >= v {
		t.Fatalf("horizontal allocation (%d cycles) should beat vertical (%d)", h, v)
	}
}

func TestStyleString(t *testing.T) {
	for _, s := range []Style{StyleTCF, StyleThread, StyleSIMD, StyleFork, Style(9)} {
		if s.String() == "" {
			t.Fatal("style must render")
		}
	}
	if !strings.Contains(StyleTCF.String(), "tcf") {
		t.Fatal("tcf style name")
	}
}

func TestWorkloadNamesUnique(t *testing.T) {
	names := map[string]bool{}
	for _, w := range []Workload{
		VectorAdd(StyleTCF, 8, 16, 0),
		VectorAdd(StyleThread, 8, 16, 0),
		LowTLP(8, 0),
		LowTLP(8, 4),
		ConditionalHalves(StyleTCF, 8),
		PrefixSum(StyleTCF, 8, 0),
		DependentLoop(StyleTCF, 8),
		Multitask(4, 2),
		Allocation(16, 4, 2),
	} {
		if names[w.Name] {
			t.Fatalf("duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
	}
}

// Cross-variant equivalence: every lockstep-capable workload/style pair must
// produce identical results on the single-instruction and balanced engines
// at several bounds.
func TestCrossVariantEquivalence(t *testing.T) {
	type cse struct {
		w     Workload
		kinds []variant.Kind
	}
	cases := []cse{
		{VectorAdd(StyleTCF, 33, 0, 0), []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction}},
		{ConditionalHalves(StyleTCF, 10), []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction}},
		{PrefixSum(StyleTCF, 21, 0), []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction}},
		{DependentLoop(StyleTCF, 16), []variant.Kind{variant.SingleInstruction, variant.Balanced}},
		{Multitask(20, 3), []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction}},
	}
	for _, c := range cases {
		for _, kind := range c.kinds {
			for _, bound := range []int{1, 4, 7} {
				bound := bound
				if kind != variant.Balanced && bound != 4 {
					continue
				}
				runOn(t, kind, c.w, func(cfg *machine.Config) {
					cfg.BalancedBound = bound
				})
			}
		}
	}
}

// TestGroupParallel verifies the multi-group throughput workload the
// step-throughput benchmark runs, on SingleInstruction and on Balanced.
func TestGroupParallel(t *testing.T) {
	w := GroupParallel(8, 64, 12)
	runOn(t, variant.Balanced, w, nil)
	m := runOn(t, variant.SingleInstruction, w, nil)
	if m.Stats().Splits == 0 {
		t.Fatal("group-parallel workload never split; it cannot exercise multiple groups")
	}
}
