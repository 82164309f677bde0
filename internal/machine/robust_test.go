package machine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tcfpram/internal/fault"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

func TestMaxStepsWrapsTypedError(t *testing.T) {
	_, err := runSrc(t, variant.SingleInstruction, "main:\n    JMP main\n",
		func(c *Config) { c.MaxSteps = 64 })
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("want ErrMaxSteps, got %v", err)
	}
	if !strings.Contains(err.Error(), "MaxSteps") {
		t.Fatalf("error should name MaxSteps: %v", err)
	}
}

func TestWatchdogCatchesSilentLivelock(t *testing.T) {
	m, err := runSrc(t, variant.SingleInstruction, "main:\n    JMP main\n",
		func(c *Config) {
			c.WatchdogSteps = 32
			c.MaxSteps = 1 << 20
		})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock from the watchdog, got %v", err)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error should name the watchdog: %v", err)
	}
	if m.Stats().Steps >= 1<<20 {
		t.Fatal("watchdog fired only at MaxSteps; it saved nothing")
	}
}

func TestWatchdogTolleratesRealProgress(t *testing.T) {
	// A working program whose run is longer than the watchdog window must
	// not be killed, even with a window far smaller than the run.
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc,
		func(c *Config) { c.WatchdogSteps = 2 })
	checkVectorAdd(t, m)
}

func TestWatchdogCatchesEmptyLoop(t *testing.T) {
	// The shape `while (1) { }` compiles to: materialize the condition,
	// branch on it, jump back. It rewrites the same register with the same
	// constant every iteration — no memory traffic, no flow events — so
	// only state-cycle detection can tell it from real computation.
	src := `
loop:
    LDI S1, 1
    BEQZ S1, done
    JMP loop
done:
    HALT
`
	m, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) {
		c.WatchdogSteps = 64
		c.MaxSteps = 1 << 20
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock from the watchdog, got %v", err)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("error should name the watchdog: %v", err)
	}
	if s := m.Stats().Steps; s >= 1<<12 {
		t.Fatalf("period-3 cycle took %d steps to catch; detection is broken", s)
	}
}

func TestWatchdogTolleratesRegisterOnlyCompute(t *testing.T) {
	// A long register-only computation is exactly as quiet as a livelock —
	// no memory traffic for tens of thousands of steps — but its state
	// never repeats. The watchdog must let it run to completion even with
	// a window far smaller than the quiet stretch.
	src := `
.data 300: 0
main:
    LDI S1, 20000
    LDI S2, 1
loop:
    BEQZ S1, done
    SUB S1, S1, S2
    JMP loop
done:
    ST S2+300, S2
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, func(c *Config) {
		c.WatchdogSteps = 64
		c.MaxSteps = 1 << 20
	})
	if s := m.Stats().Steps; s < 20000 {
		t.Fatalf("countdown finished after only %d steps; it never ran", s)
	}
}

func TestMissingJoinDeadlockMessage(t *testing.T) {
	// The step-level deadlock check fires when live flows exist but none
	// can ever become ready. Normal assembly cannot reach it (barrier
	// release rescues blocked flows and HALT implies JOIN), so model the
	// broken state a missing join notification would leave behind: a
	// parent waiting on a child count that never drains.
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(isa.MustAssemble("t", "main:\n    HALT\n")); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	f := m.Flow(0)
	f.State = tcf.Waiting
	f.LiveChildren = 1 // the child that will never JOIN
	err = m.Step()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "missing JOIN") {
		t.Fatalf("deadlock message should hint at the missing JOIN: %v", err)
	}
}

// TestRunContextCanceledBetweenSteps: a context canceled before the call
// runs no step.
func TestRunContextCanceledBetweenSteps(t *testing.T) {
	m := spinMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if s := m.Stats().Steps; s != 0 {
		t.Fatalf("a canceled context ran %d steps, want 0", s)
	}
}

// recoverablePlan exercises all three machine-level fault classes: reference
// loss with retransmission, route detours, and one module fail-stop.
func recoverablePlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed:        seed,
		MemDropRate: 0.05,
		Routes: []fault.RouteFault{
			{Group: 0, Module: 1, Interval: fault.Interval{From: 0, To: 0}},
			{Group: 2, Module: 3, Interval: fault.Interval{From: 1, To: 40}},
		},
		Modules: []fault.ModuleFault{{Module: 2, Step: 2}},
	}
}

func TestFaultPlanChangesCyclesNotResults(t *testing.T) {
	clean := mustRun(t, variant.SingleInstruction, vectorAddSrc, nil)
	faulty := mustRun(t, variant.SingleInstruction, vectorAddSrc,
		func(c *Config) { c.FaultPlan = recoverablePlan(9) })
	checkVectorAdd(t, faulty)

	cs, fs := clean.Stats(), faulty.Stats()
	if fs.Retransmits == 0 {
		t.Fatal("5% reference loss caused no retransmissions")
	}
	if fs.Reroutes == 0 {
		t.Fatal("dead routes caused no detours")
	}
	if fs.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", fs.Failovers)
	}
	if fs.FaultStallCycles == 0 {
		t.Fatal("retransmissions cost no stall cycles")
	}
	if fs.Cycles <= cs.Cycles {
		t.Fatalf("faults should inflate cycles: %d vs clean %d", fs.Cycles, cs.Cycles)
	}
	if fs.Steps != cs.Steps {
		t.Fatalf("recoverable faults must not change the step count: %d vs %d", fs.Steps, cs.Steps)
	}
}

func TestFaultPlanDeterministicInSeed(t *testing.T) {
	run := func(seed int64) *Stats {
		m := mustRun(t, variant.SingleInstruction, vectorAddSrc,
			func(c *Config) { c.FaultPlan = recoverablePlan(seed) })
		return m.Stats()
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan seed, different stats:\n%+v\n%+v", a, b)
	}
	differs := false
	for seed := int64(6); seed < 16 && !differs; seed++ {
		c := run(seed)
		differs = a.Retransmits != c.Retransmits || a.FaultStallCycles != c.FaultStallCycles
	}
	if !differs {
		t.Fatal("ten different plan seeds produced identical fault stats; seed unused")
	}
}

func TestTotalReferenceLossIsUnrecoverable(t *testing.T) {
	_, err := runSrc(t, variant.SingleInstruction, vectorAddSrc,
		func(c *Config) { c.FaultPlan = &fault.Plan{Seed: 1, MemDropRate: 1} })
	if !errors.Is(err, ErrFaultUnrecoverable) {
		t.Fatalf("want ErrFaultUnrecoverable, got %v", err)
	}
}

func TestModuleExhaustionIsUnrecoverable(t *testing.T) {
	plan := &fault.Plan{Seed: 1}
	for mod := 0; mod < 4; mod++ {
		plan.Modules = append(plan.Modules, fault.ModuleFault{Module: mod, Step: 1})
	}
	_, err := runSrc(t, variant.SingleInstruction, vectorAddSrc,
		func(c *Config) { c.FaultPlan = plan })
	if !errors.Is(err, ErrFaultUnrecoverable) {
		t.Fatalf("want ErrFaultUnrecoverable, got %v", err)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := Default(variant.SingleInstruction)
	cfg.WatchdogSteps = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative WatchdogSteps accepted")
	}
	cfg = Default(variant.SingleInstruction)
	cfg.FaultPlan = &fault.Plan{Seed: 1, DropRate: 2}
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range fault plan accepted")
	}
}
