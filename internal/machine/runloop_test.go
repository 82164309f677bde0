package machine

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// spinMachine is a machine loaded with `JMP main`, a flow that never ends.
func spinMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := Default(variant.SingleInstruction)
	cfg.MaxSteps = 1 << 40
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(isa.MustAssemble("spin", "main:\n    JMP main\n")); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCancelInStop: a cancel the stepping goroutine makes inside stop at step
// k stops the run at that boundary, k steps in, for every k.
func TestCancelInStop(t *testing.T) {
	for _, k := range []int64{0, 1, 2, 7, 100} {
		m := spinMachine(t)
		ctx, cancel := context.WithCancel(context.Background())
		_, err := m.RunUntil(ctx, func(m *Machine) bool {
			if m.Stats().Steps == k {
				cancel()
			}
			return false
		})
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("k=%d: want ErrCanceled, got %v", k, err)
		}
		if s := m.Stats().Steps; s != k {
			t.Fatalf("canceled at step %d, the run stopped after %d", k, s)
		}
	}
}

// signalSink is a checkpoint sink that closes started at its first snapshot
// and writes nothing.
type signalSink struct{ started chan struct{} }

func (s *signalSink) Checkpoint(step int64, snapshot func(io.Writer) error) error {
	select {
	case <-s.started:
	default:
		close(s.started)
	}
	return nil
}

// TestCancelFromAnotherGoroutine: a cancel from another goroutine, made while
// the run is under way (after its first checkpoint), stops a flow that never
// ends.
func TestCancelFromAnotherGoroutine(t *testing.T) {
	m := spinMachine(t)
	sink := &signalSink{started: make(chan struct{})}
	if err := m.SetCheckpointing(64, sink); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sink.started
		cancel()
	}()
	if _, err := m.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if s := m.Stats().Steps; s < 64 {
		t.Fatalf("the run stopped after %d steps, before the cancel was made", s)
	}
}

// BenchmarkRunLoop times a served run of a lone scalar flow: the corpus'
// collatz (1423 steps of one thin flow, the slowest serve-hot program), Reset,
// loaded and run to the end through RunContext per op, as a pooled machine
// runs it. "background" runs it under context.Background() and no watchdog;
// "served" in the server's configuration: a deadline context and the
// watchdog a 2^20-step quota derives (serve.watchdogFor(1<<20) = 16384).
// ns/step is what a step costs the run loop and the step together; allocs/op
// are per run.
func BenchmarkRunLoop(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("..", "codegen", "testdata", "collatz.te"))
	if err != nil {
		b.Fatal(err)
	}
	c, err := codegen.CompileSource("collatz.te", string(src))
	if err != nil {
		b.Fatal(err)
	}
	for _, served := range []bool{false, true} {
		name := "background"
		if served {
			name = "served"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Default(variant.SingleInstruction)
			ctx := context.Background()
			if served {
				cfg.MaxSteps = 1 << 20
				cfg.WatchdogSteps = 1 << 14
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Hour)
				defer cancel()
			}
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			run := func() {
				m.Reset()
				if err := m.LoadProgram(c.Program); err != nil {
					b.Fatal(err)
				}
				if _, err := m.RunContext(ctx); err != nil {
					b.Fatal(err)
				}
			}
			run()
			steps := m.Stats().Steps
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*steps), "ns/step")
		})
	}
}
