package analysis_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/lang"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/variant"
)

// coldSource is the pinned program of the compile-path benchmarks (see
// internal/lang/bench_test.go).
func coldSource(tb testing.TB) string {
	src, err := os.ReadFile(filepath.Join("..", "lang", "testdata", "cold.te"))
	if err != nil {
		tb.Fatal(err)
	}
	return string(src)
}

// The options and parameters the execution server vets and admits a
// default-quota request under.
var (
	serveVet  = analysis.Options{File: "cold.te", Discipline: mem.DisciplineCREW}
	serveCost = analysis.CostParams{
		Variant: variant.SingleInstruction, Groups: 4, ProcsPerGroup: 4,
		SharedWords: 1 << 16, LocalWords: 1 << 12, PipelineDepth: 4, MemLatencyBase: 8,
		MaxSteps: 1 << 14, MaxLaneWork: 1 << 22,
	}
)

// BenchmarkAnalyze vets a checked program: every run builds the facts
// tables and checks them.
func BenchmarkAnalyze(b *testing.B) {
	prog, err := lang.Parse(coldSource(b))
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := analysis.Analyze(prog, info, serveVet); len(ds) != 0 {
			b.Fatal(ds)
		}
	}
}

// BenchmarkCost predicts the cost of the load image the vet gate compiled,
// as admission does: the thickness ceiling is recorded on it. Every iteration
// builds a machine, compiles the kernels into it (BenchmarkFuseCompile's
// share) and runs the program on it.
func BenchmarkCost(b *testing.B) {
	ds, c, err := analysis.AnalyzeAndCompile("cold.te", coldSource(b), serveVet)
	if err != nil || c == nil {
		b.Fatal(err, ds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := analysis.Cost(c, serveCost); !rep.Resolved {
			b.Fatal(rep.Reason)
		}
	}
}

// frontend takes src through the compile path the way a compile-cache miss
// of the execution server does, fused backend included.
func frontend(tb testing.TB, src string) {
	prog, err := lang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		tb.Fatal(err)
	}
	if ds := analysis.Analyze(prog, info, serveVet); len(ds) != 0 {
		tb.Fatal(ds)
	}
	c, err := codegen.CompileChecked(info)
	if err != nil {
		tb.Fatal(err)
	}
	// The admitted run continues the cost run on its machine, which compiled
	// the kernels when it loaded the program.
	if rep := analysis.Cost(c, serveCost); !rep.Resolved {
		tb.Fatal(rep.Reason)
	}
}

// BenchmarkFrontend is the whole path: the sum the per-package benchmarks
// (BenchmarkParse, BenchmarkCheck, BenchmarkAnalyze, BenchmarkCompileChecked,
// BenchmarkCost, BenchmarkFuseCompile) split up.
func BenchmarkFrontend(b *testing.B) {
	src := coldSource(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frontend(b, src)
	}
}

// Allocation budget of one pass of frontend over cold.te. At the commit
// before the compile path's data layout was rebuilt (PR 13, parent e7e27a0)
// the pass took 7 773 allocations and 1 985 KB; it now takes about 2 200
// allocations and 500 KB, the cost run's machine included (650 KB under the
// race detector, which the byte budget leaves room for). The allocation
// budget is a sixth above that, so that slice regrowth, per-node maps or a
// second compilation pass (compiling the kernels once more is 700
// allocations) cannot come back unseen.
const (
	frontendAllocBudget = 2600
	frontendBytesBudget = 720 << 10
)

// TestFrontendAllocBudget is the compile path's counterpart of
// machine.TestStepLoopSteadyStateAllocs.
func TestFrontendAllocBudget(t *testing.T) {
	src := coldSource(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// AllocsPerRun makes one more, warming, run than it counts.
	allocs := int64(testing.AllocsPerRun(runs, func() { frontend(t, src) }))
	runtime.ReadMemStats(&after)
	bytes := int64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("frontend(cold.te): %d allocations, %d KB", allocs, bytes>>10)
	if allocs > frontendAllocBudget {
		t.Errorf("frontend(cold.te) takes %d allocations, budget %d", allocs, frontendAllocBudget)
	}
	if bytes > frontendBytesBudget {
		t.Errorf("frontend(cold.te) allocates %d bytes, budget %d", bytes, frontendBytesBudget)
	}
}
