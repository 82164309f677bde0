package analysis_test

import (
	"fmt"
	"os"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/variant"
)

// fuzzParams keeps the run cheap enough for the fuzzer while still
// exercising every stop (step fuel, lane budget, lane cap).
func fuzzParams() analysis.CostParams {
	p := analysis.DefaultCostParams(variant.SingleInstruction)
	p.MaxSteps = 2048
	p.MaxConcreteLanes = 256
	p.MaxLaneWork = 1 << 16
	return p
}

// FuzzCostAnalyze: the analyzer must never panic on any input the compiler
// accepts, and its predictions must be internally consistent (Min <= Max on
// bounded intervals, exactness only when resolved) and monotone in
// thickness for a thickness-parametric workload.
func FuzzCostAnalyze(f *testing.F) {
	for _, path := range corpusFiles(f) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint8(4))
	}
	f.Add("func main() { #3; thick int v = tid; print(radd(v)); }", uint8(9))
	f.Fuzz(func(t *testing.T, src string, n uint8) {
		rep, err := analysis.CostSource("fuzz", src, fuzzParams())
		if err == nil {
			checkReportInvariants(t, rep)
		}

		// Monotonicity: the same data-parallel workload at double the
		// thickness can only cost more (steps stay fixed, lane work grows).
		t1 := 1 + int(n%64)
		lo := costOfThickness(t, t1)
		hi := costOfThickness(t, 2*t1)
		if lo.Resolved && hi.Resolved {
			if hi.Ops.Min < lo.Ops.Min {
				t.Fatalf("ops not monotone in thickness: %d lanes -> %d ops, %d lanes -> %d ops",
					t1, lo.Ops.Min, 2*t1, hi.Ops.Min)
			}
			if hi.Cycles.Min < lo.Cycles.Min {
				t.Fatalf("cycles not monotone in thickness: %d lanes -> %d cycles, %d lanes -> %d",
					t1, lo.Cycles.Min, 2*t1, hi.Cycles.Min)
			}
		}
	})
}

func costOfThickness(t *testing.T, thickness int) *analysis.CostReport {
	t.Helper()
	src := fmt.Sprintf(`shared int out[128] @ 0;
func main() {
	#%d;
	thick int v = tid * 3 + 1;
	out[tid %% 128] = v;
	print(radd(v));
}`, thickness)
	rep, err := analysis.CostSource("thick", src, fuzzParams())
	if err != nil {
		t.Fatalf("thickness template failed to compile: %v", err)
	}
	checkReportInvariants(t, rep)
	return rep
}

func checkReportInvariants(t *testing.T, rep *analysis.CostReport) {
	t.Helper()
	for i, b := range reportBounds(rep) {
		if b.Min < 0 {
			t.Fatalf("bound %d has negative min %d", i, b.Min)
		}
		if b.Max >= 0 && b.Max < b.Min {
			t.Fatalf("bound %d inverted: [%d,%d]", i, b.Min, b.Max)
		}
		if rep.Resolved && !b.Exact() {
			t.Fatalf("resolved report has inexact bound %d: [%d,%d]", i, b.Min, b.Max)
		}
	}
}
