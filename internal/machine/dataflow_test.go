package machine

// Targeted tests of the dataflow scheduler, lockstep as the oracle: each
// dependency edge the dataflow board gates on (the frontier, barriers, task
// rotation), the strict-mode features and the stop conditions. The corpus,
// generated programs, fault plans and checkpoints under both schedulers are
// the dataflow rows of internal/chaos's lattice.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

func dataflowOn(c *Config) { c.Sched = SchedDataflow }

// dfCompare demands bit-identity between the two schedulers on one program:
// same error (message for message), same outputs, memory, statistics, and
// per-step trace.
func dfCompare(t *testing.T, src string, kind variant.Kind, tweak func(*Config)) {
	t.Helper()
	run := func(sched Sched) (runSnapshot, []*StepRecord, error) {
		m, err := runSrc(t, kind, src, func(c *Config) {
			if tweak != nil {
				tweak(c)
			}
			c.Sched, c.TraceEnabled = sched, true
		})
		return snapshotOf(m), m.Trace(), err
	}
	lock, lockTrace, lockErr := run(SchedLockstep)
	df, dfTrace, dfErr := run(SchedDataflow)
	if fmt.Sprint(lockErr) != fmt.Sprint(dfErr) {
		t.Fatalf("%v: run errors diverged:\nlockstep %v\ndataflow %v", kind, lockErr, dfErr)
	}
	if !reflect.DeepEqual(lock.outputs, df.outputs) {
		t.Fatalf("%v: outputs diverged:\nlockstep %v\ndataflow %v", kind, lock.outputs, df.outputs)
	}
	if !reflect.DeepEqual(lock.memory, df.memory) {
		t.Fatalf("%v: shared memory diverged", kind)
	}
	if !reflect.DeepEqual(lock.stats, df.stats) {
		t.Fatalf("%v: stats diverged:\nlockstep %+v\ndataflow %+v", kind, lock.stats, df.stats)
	}
	if !reflect.DeepEqual(lockTrace, dfTrace) {
		t.Fatalf("%v: step traces diverged (%d vs %d records)", kind, len(lockTrace), len(dfTrace))
	}
}

// TestDataflowBarrierExchange: the BAR release decision is committer-global
// (no flow anywhere still runnable); the dataflow engine may only take it
// with every runner parked, and must take it at the same step.
func TestDataflowBarrierExchange(t *testing.T) {
	src := `
main:
    SPLIT 1 -> armA, 1 -> armB
    HALT
armA:
    LDI S1, 10
    ST 700, S1
    BAR
    LD S2, 701
    ST 702, S2
    JOIN
armB:
    LDI S1, 20
    ST 701, S1
    BAR
    LD S2, 700
    ST 703, S2
    JOIN
`
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced} {
		dfCompare(t, src, kind, nil)
		dfCompare(t, src, kind, func(c *Config) { c.Parallel = true })
	}
	m := mustRun(t, variant.SingleInstruction, src, dataflowOn)
	if a, b := m.Shared().Peek(702), m.Shared().Peek(703); a != 20 || b != 10 {
		t.Fatalf("barrier exchange under dataflow got %d/%d, want 20/10", a, b)
	}
}

// dfProducerConsumerSrc is the targeted cross-group memory dependency: the
// consumer group polls a flag the producer group raises only after a long
// private loop, while a third thick flow computes independently — the
// consumer's run-ahead reads must block on the frontier until the producer's
// flag write commits, or it would observe the flag early and finish in fewer
// steps than lockstep.
const dfProducerConsumerSrc = `
main:
    SPLIT 1 -> producer, 1 -> consumer, 6 -> mixer
    HALT
producer:
    LDI S1, 0
ploop:
    ADD S1, S1, 1
    SLT S2, S1, 25
    BNEZ S2, ploop
    LDI S3, 123
    ST 700, S3
    LDI S4, 1
    ST 701, S4
    JOIN
consumer:
cloop:
    LD S1, 701
    BEQZ S1, cloop
    LD S2, 700
    ST 702, S2
    JOIN
mixer:
    TID V0
    LDI S1, 0
mloop:
    ADD V1, V1, 3
    ADD S1, S1, 1
    SLT S2, S1, 40
    BNEZ S2, mloop
    ST V0+710, V1
    JOIN
`

func TestDataflowProducerConsumer(t *testing.T) {
	dfCompare(t, dfProducerConsumerSrc, variant.SingleInstruction, nil)
	dfCompare(t, dfProducerConsumerSrc, variant.SingleInstruction, func(c *Config) { c.Parallel = true })
	dfCompare(t, dfProducerConsumerSrc, variant.Balanced, nil)
	m := mustRun(t, variant.SingleInstruction, dfProducerConsumerSrc, dataflowOn)
	if got := m.Shared().Peek(702); got != 123 {
		t.Fatalf("consumer read %d through the frontier, want 123", got)
	}
}

// TestDataflowTimeSlicePreemption: preemptive multitasking is strict mode
// (the quantum counts committed steps); an oversubscribed task set must
// rotate identically.
func TestDataflowTimeSlicePreemption(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\n    SPLIT ")
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("2 -> task")
	}
	b.WriteString("\n    HALT\ntask:\n")
	b.WriteString(`    FID S0
    TID V0
    LDI S1, 0
tloop:
    ADD S1, S1, 1
    SLT S2, S1, 9
    BNEZ S2, tloop
    MUL S3, S0, 4
    ADD V0, V0, S3
    ST V0+800, S1
    JOIN
`)
	for _, q := range []int64{1, 3} {
		dfCompare(t, b.String(), variant.SingleInstruction, func(c *Config) { c.TimeSliceSteps = q })
		dfCompare(t, b.String(), variant.Balanced, func(c *Config) { c.TimeSliceSteps = q })
	}
}

// TestDataflowMaxSteps: the step quota must stop the run with the same error
// and the same committed step count — runners may not overshoot.
func TestDataflowMaxSteps(t *testing.T) {
	dfCompare(t, "main:\n    JMP main\n", variant.SingleInstruction, func(c *Config) { c.MaxSteps = 64 })
	_, err := runSrc(t, variant.SingleInstruction, "main:\n    JMP main\n", func(c *Config) {
		c.MaxSteps = 64
		dataflowOn(c)
	})
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("want ErrMaxSteps, got %v", err)
	}
}

// TestDataflowWatchdog: the watchdog digests whole-machine state between
// steps, so it forces strict stepping; the kill step must match lockstep
// exactly.
func TestDataflowWatchdog(t *testing.T) {
	dfCompare(t, "main:\n    JMP main\n", variant.SingleInstruction, func(c *Config) {
		c.WatchdogSteps = 32
		c.MaxSteps = 1 << 20
	})
	m, err := runSrc(t, variant.SingleInstruction, "main:\n    JMP main\n", func(c *Config) {
		c.WatchdogSteps = 32
		c.MaxSteps = 1 << 20
		dataflowOn(c)
	})
	if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want the watchdog's ErrDeadlock, got %v", err)
	}
	if m.Stats().Steps >= 1<<20 {
		t.Fatal("watchdog fired only at MaxSteps under dataflow")
	}
}

// TestDataflowDisciplineViolation: the discipline audit runs on the
// committer before commit; a violating step must stop the machine with the
// lockstep error at the lockstep step.
func TestDataflowDisciplineViolation(t *testing.T) {
	// Every lane computes address 100 (tid*0) and reads it: distinct lanes
	// on one word — a flow-common broadcast load would be exempt.
	src := `
main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    MUL V2, V0, 0
    LD V1, V2+100
    HALT
`
	dfCompare(t, src, variant.SingleInstruction, func(c *Config) { c.MemDiscipline = mem.DisciplineEREW })
	_, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) {
		c.MemDiscipline = mem.DisciplineEREW
		dataflowOn(c)
	})
	if !errors.Is(err, ErrDisciplineViolation) {
		t.Fatalf("want ErrDisciplineViolation, got %v", err)
	}
}

// TestDataflowCommonWritePolicy: Common-policy conflict detection happens at
// commit (committer side), another strict-mode feature.
func TestDataflowCommonWritePolicy(t *testing.T) {
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    ST 600, V0
    HALT
`
	dfCompare(t, src, variant.SingleInstruction, func(c *Config) { c.WritePolicy = mem.Common })
}

// TestDataflowDeadlockDetection: the deadlock check scans the global flow
// list, which the committer may only do with runners parked; the zero-ready
// quiescence gate guarantees that exactly when a deadlock is possible.
func TestDataflowDeadlockDetection(t *testing.T) {
	run := func(sched Sched) error {
		cfg := Default(variant.SingleInstruction)
		cfg.Sched = sched
		m, err := New(cfg)
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
		_, err = m.Run()
		return err
	}
	lockErr, dfErr := run(SchedLockstep), run(SchedDataflow)
	if !errors.Is(dfErr, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", dfErr)
	}
	if fmt.Sprint(lockErr) != fmt.Sprint(dfErr) {
		t.Fatalf("deadlock errors diverged:\nlockstep %v\ndataflow %v", lockErr, dfErr)
	}
}

// TestDataflowCancellation: a canceled context stops the dataflow run with
// the wrapped ErrCanceled; committed state stays consistent (no panic, no
// leaked runners — the race detector covers the rest).
func TestDataflowCancellation(t *testing.T) {
	cfg := Default(variant.SingleInstruction)
	cfg.Sched = SchedDataflow
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(isa.MustAssemble("t", "main:\n    JMP main\n")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestDataflowManualStepThenRun: Step() always steps lockstep; handing the
// machine to RunContext afterwards resumes the dataflow engine mid-run from
// the committed step count.
func TestDataflowManualStepThenRun(t *testing.T) {
	oracle := snapshotOf(mustRun(t, variant.SingleInstruction, dfProducerConsumerSrc, nil))
	cfg := Default(variant.SingleInstruction)
	cfg.Sched = SchedDataflow
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(isa.MustAssemble("prodcons", dfProducerConsumerSrc)); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 5)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(m); !reflect.DeepEqual(oracle, got) {
		t.Fatalf("manual-steps-then-dataflow diverged:\noracle %+v\ngot    %+v", oracle.stats, got.stats)
	}
}

// TestSchedConfig covers the Sched knob itself: rendering and config
// validation.
func TestSchedConfig(t *testing.T) {
	if SchedLockstep.String() != "lockstep" || SchedDataflow.String() != "dataflow" {
		t.Fatal("Sched.String misrenders")
	}
	cfg := Default(variant.SingleInstruction)
	cfg.Sched = Sched(99)
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid Sched accepted by New")
	}
}
