package tcfpram

import (
	"context"
	"errors"
	"fmt"
	"time"

	"strings"
	"testing"

	"tcfpram/internal/mem"
)

const addSrc = `
shared int a[8] @ 100 = {1, 2, 3, 4, 5, 6, 7, 8};
shared int c[8] @ 300;
shared int total;

func main() {
    #8;
    c[tid] = a[tid] * 10;
    total = radd(a[tid]);
}
`

func TestRunSourceQuickstart(t *testing.T) {
	m, stats, err := RunSource(DefaultConfig(SingleInstruction), "add", addSrc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Array("c")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != int64((i+1)*10) {
			t.Fatalf("c = %v", got)
		}
	}
	total, err := m.Global("total")
	if err != nil {
		t.Fatal(err)
	}
	if total != 36 {
		t.Fatalf("total = %d", total)
	}
	if stats.Cycles == 0 || stats.Steps == 0 {
		t.Fatal("empty stats")
	}
}

// HostCounters renders the four host-counter lines `tcfrun -stages` prints
// under the stage table, in order, and the tail line counts the run's steps.
func TestHostCounters(t *testing.T) {
	m, stats, err := RunSource(DefaultConfig(SingleInstruction), "add", addSrc)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(m.HostCounters(), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), m.HostCounters())
	}
	for i, prefix := range []string{"commit: ", "combine: ", "kernels: ", "tail: "} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	if want := fmt.Sprintf("tail: steps=%d ", stats.Steps); !strings.HasPrefix(lines[3], want) {
		t.Errorf("tail line = %q, want prefix %q", lines[3], want)
	}
}

func TestRunOnEveryVariant(t *testing.T) {
	// A variant-portable program: plain sequential scalar code.
	src := `
func main() {
    int x = 0;
    for (int i = 1; i <= 10; i += 1) {
        x += i;
    }
    print(x);
}
`
	for _, v := range Variants() {
		t.Run(v.String(), func(t *testing.T) {
			m, _, err := RunSource(DefaultConfig(v), "seq", src)
			if err != nil {
				t.Fatal(err)
			}
			vals := m.PrintedValues()
			if len(vals) == 0 || vals[0] != 55 {
				t.Fatalf("printed %v, want 55 first", vals)
			}
		})
	}
}

func TestRunAssembly(t *testing.T) {
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    MUL V1, V0, V0
    ST V0+500, V1
    HALT
`
	m, _, err := RunAssembly(DefaultConfig(SingleInstruction), "squares", src)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Words(500, 4)
	for i := int64(0); i < 4; i++ {
		if got[i] != i*i {
			t.Fatalf("squares = %v", got)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for _, v := range Variants() {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestManualStepping(t *testing.T) {
	m, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadSource("s", "func main() { print(1); }"); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !m.Done() && steps < 100 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if !m.Done() {
		t.Fatal("did not finish")
	}
	if got := m.PrintedValues(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("printed %v", got)
	}
}

func TestTraceRendering(t *testing.T) {
	cfg := DefaultConfig(SingleInstruction)
	cfg.TraceEnabled = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadSource("t", addSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Timeline(), "step") {
		t.Fatal("timeline empty")
	}
	if m.Gantt() == "" || !strings.HasPrefix(m.TraceCSV(), "step,") {
		t.Fatal("trace renderers empty")
	}
	if !strings.Contains(m.Disassembly(), "SETTHICK") {
		t.Fatal("disassembly missing")
	}
}

func TestSymbolErrors(t *testing.T) {
	m, _, err := RunSource(DefaultConfig(SingleInstruction), "t", addSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Array("total"); err == nil {
		t.Fatal("Array on scalar should fail")
	}
	if _, err := m.Global("c"); err == nil {
		t.Fatal("Global on array should fail")
	}
	if _, err := m.Array("nope"); err == nil {
		t.Fatal("unknown symbol should fail")
	}
	m2, _ := NewMachine(DefaultConfig(SingleInstruction))
	if _, err := m2.Array("x"); err == nil {
		t.Fatal("Array without program should fail")
	}
}

func TestSetWords(t *testing.T) {
	m, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetWords(100, []int64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadSource("t", "shared int a[3] @ 100;\nfunc main() { print(a[0] + a[1] + a[2]); }"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.PrintedValues(); got[0] != 27 {
		t.Fatalf("printed %v", got)
	}
}

func TestCompileErrorPropagates(t *testing.T) {
	m, _ := NewMachine(DefaultConfig(SingleInstruction))
	if err := m.LoadSource("bad", "func main() { x = 1; }"); err == nil {
		t.Fatal("expected compile error")
	}
	if err := m.LoadAssembly("bad", "FOO"); err == nil {
		t.Fatal("expected assembly error")
	}
}

func TestLoadBinaryRoundTrip(t *testing.T) {
	// Compile to a TCFB object via the internal encoder, then load it
	// through the public API.
	m1, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.LoadSource("t", "func main() { print(5 * 9); }"); err != nil {
		t.Fatal(err)
	}
	blob, err := m1.EncodeProgram()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadBinary(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m2.PrintedValues(); len(got) != 1 || got[0] != 45 {
		t.Fatalf("binary round trip printed %v", got)
	}
	if err := m2.LoadBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage object accepted")
	}
}

// loadBinaryAllocBudget bounds the allocations of Reset + LoadBinary of a
// 2048-arm parallel statement's object on a reused machine. They were 18 067
// while every symbol, label and arm was allocated on its own, labels went
// into a map and every load validated twice, boxing Validate's arguments;
// they now come to 8, the program's tables and one copy of the object.
const loadBinaryAllocBudget = 32

// TestLoadBinaryAllocBudget holds a load to the cost of its program's own
// tables (BenchmarkLoadBinary's parallel-2048 object).
func TestLoadBinaryAllocBudget(t *testing.T) {
	_, objs := loadObjects(t)
	m, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		if err := m.LoadBinary(objs[0]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Reset + LoadBinary (parallel-2048): %v allocations", allocs)
	if allocs > loadBinaryAllocBudget {
		t.Errorf("Reset + LoadBinary makes %v allocations, budget %d", allocs, loadBinaryAllocBudget)
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	if _, err := NewMachine(Config{Variant: SingleInstruction, Groups: -1}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, _, err := RunSource(Config{Variant: SingleInstruction, Groups: -1}, "x", "func main() { }"); err == nil {
		t.Fatal("RunSource with bad config accepted")
	}
	if _, _, err := RunSource(DefaultConfig(SingleInstruction), "x", "not a program"); err == nil {
		t.Fatal("RunSource with bad source accepted")
	}
	if _, _, err := RunAssembly(Config{Variant: SingleInstruction, Groups: -1}, "x", "HALT"); err == nil {
		t.Fatal("RunAssembly with bad config accepted")
	}
	if _, _, err := RunAssembly(DefaultConfig(SingleInstruction), "x", "FOO"); err == nil {
		t.Fatal("RunAssembly with bad source accepted")
	}
	// Runtime error surfaces through RunSource.
	if _, _, err := RunSource(DefaultConfig(FixedThickness), "x", "func main() { #4; }"); err == nil {
		t.Fatal("runtime error swallowed")
	}
	m, _ := NewMachine(DefaultConfig(SingleInstruction))
	if _, err := m.EncodeProgram(); err == nil {
		t.Fatal("EncodeProgram without a program accepted")
	}
	if m.Disassembly() != "" {
		t.Fatal("disassembly of empty machine")
	}
	if _, err := m.Global("x"); err == nil {
		t.Fatal("Global without program accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	m, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAssembly("spin", "main:\n    JMP main\n"); err != nil {
		t.Fatal(err)
	}
	// The program spins until canceled, so the sleep only decides when the
	// cancellation comes; the 5 s below bound a step loop that ignores it,
	// thousands of times the few steps a loaded host takes to notice.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = m.RunContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; run did not stop promptly", d)
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	m, err := NewMachine(DefaultConfig(SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAssembly("spin", "main:\n    JMP main\n"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestPredictionFollowsMachineShape: every Config field that changes what a
// program costs reaches the prediction. For each of the five the analyzer's
// parameters once dropped, set off its default on a program that exercises
// it, PredictCost equals the run field for field — the error included.
func TestPredictionFollowsMachineShape(t *testing.T) {
	tasks := "func main() {\n    int i = 0;\n    parallel {\n" +
		strings.Repeat("        #1: while (i < 12) { i += 1; }\n", 20) + "    }\n}\n"
	const thick = `
shared int a[32] @ 100;
func main() {
    #32;
    a[tid] = tid * 2 + 1;
}
`
	for _, tc := range []struct {
		name    string
		variant Variant
		tweak   func(*Config)
		src     string
	}{
		{"AutoSplitThreshold", SingleInstruction, func(c *Config) { c.AutoSplitThreshold = 8 }, thick},
		{"TimeSliceSteps", SingleInstruction, func(c *Config) { c.TimeSliceSteps = 4 }, tasks},
		{"BalancedBound", Balanced, func(c *Config) { c.BalancedBound = 2 }, thick},
		{"MultiInstrWindow", MultiInstruction, func(c *Config) { c.MultiInstrWindow = 2 }, thick},
		{"WritePolicy", SingleInstruction, func(c *Config) { c.WritePolicy = mem.Common },
			"shared int w[1] @ 100;\nfunc main() {\n    #4;\n    w[tid * 0] = tid;\n}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, _, err := RunSource(DefaultConfig(tc.variant), tc.name, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(tc.variant)
			tc.tweak(&cfg)
			m, _, runErr := RunSource(cfg, tc.name, tc.src)
			if m == nil {
				t.Fatal(runErr)
			}
			st := m.Stats()
			if runErr == nil && st.Steps == base.Stats().Steps && st.Cycles == base.Stats().Cycles {
				t.Fatalf("the program does not exercise %s: %d steps, %d cycles either way", tc.name, st.Steps, st.Cycles)
			}
			rep, err := m.PredictCost()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Resolved {
				t.Fatalf("not resolved: %s", rep.Reason)
			}
			if runErr == nil && rep.Note != "" || runErr != nil && rep.Note != runErr.Error() {
				t.Errorf("predicted stop %q, the run's %v", rep.Note, runErr)
			}
			for _, f := range predictionRows(rep, st) {
				if !f.predicted.Exact() || f.predicted.Min != f.measured {
					t.Errorf("%s: predicted %s, measured %d", f.name, f.predicted, f.measured)
				}
			}
		})
	}
}
