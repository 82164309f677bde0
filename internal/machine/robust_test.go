package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

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

func TestInvalidConfigRejected(t *testing.T) {
	cfg := Default(variant.SingleInstruction)
	cfg.WatchdogSteps = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative WatchdogSteps accepted")
	}
}

// TestDiscardedStepZeroesFreshPrefixes: a multiprefix at 64 lanes into a
// register without a bank takes its destination unzeroed (tcf.Flow.Dest), for
// the commit to write. When another group fails in the same step, the step is
// discarded and the commit never comes: the destination must then read zero,
// as the zeroed bank the reference takes does, and never what the arena lent
// it with (under tcf.PoisonBanks, tcf.Poison).
func TestDiscardedStepZeroesFreshPrefixes(t *testing.T) {
	tcf.PoisonBanks.Store(true)
	defer tcf.PoisonBanks.Store(false)
	b := isa.NewBuilder("discard")
	b.Label("main")
	b.Ldi(isa.S(5), -1)
	b.Split(isa.ArmImm(64, "combine"), isa.ArmImm(1, "fail"))
	b.Halt()
	b.Label("combine")
	b.Id(isa.TID, isa.V(0))
	b.Prefix(isa.MPADD, isa.V(3), isa.RegNone, 100, isa.V(0))
	b.Op(isa.JOIN)
	b.Label("fail")
	b.Op(isa.NOP)
	b.SetThick(isa.S(5))
	b.Op(isa.JOIN)
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "negative thickness") {
		t.Fatalf("run error %v, want the failing arm's", err)
	}
	var combined bool
	for _, f := range m.Flows() {
		if f.Thickness != 64 || !f.VectorAllocated(isa.V(3)) {
			continue
		}
		combined = true
		for i, w := range f.Vector(isa.V(3)) {
			if w != 0 {
				t.Fatalf("flow %d: lane %d of the discarded step's prefix destination reads %#x, want 0", f.ID, i, w)
			}
		}
	}
	if !combined {
		t.Fatal("the combining arm never took its destination in the failing step")
	}
}
