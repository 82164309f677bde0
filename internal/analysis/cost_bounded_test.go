package analysis_test

import (
	"runtime"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/variant"
)

// TestCostIsBoundedBeforeItAllocates: a prediction is a run of the engine on
// whatever source a client sends, so its three budgets must stop it before it
// takes the memory the program asks for. Under the server's admission budgets
// and the default lane cap, a thickness beyond any machine, the same asked by
// a parallel arm, an endless loop and an endless thick print each come back
// unresolved, inside the budgets, having allocated less than 64 MB — the
// print's retained output included: a thick print costs its width in lane
// fuel, so a run holds at most MaxLaneWork printed words, and they go with
// the machine.
func TestCostIsBoundedBeforeItAllocates(t *testing.T) {
	p := analysis.DefaultCostParams(variant.SingleInstruction)
	p.MaxSteps, p.MaxLaneWork = 1<<14, 1<<22
	const (
		huge    = 1099511627776
		laneCap = 1 << 16 // the default MaxConcreteLanes
	)
	for _, tc := range []struct {
		name, src string
		demand    int64
	}{
		{"thickness", `func main() { #1099511627776; thick int v = tid; print(radd(v)); }`, huge},
		{"parallel-arm", `func main() { parallel { #1099511627776: { thick int v = tid; print(radd(v)); } #1: print(1); } }`, huge},
		{"spin", `func main() { int n = 0; while (1) { n += 1; } }`, 1},
		{"thick-print", `func main() { #65536; thick int v = tid; while (1) { print(v); } }`, laneCap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := analysis.CostSource(tc.name, tc.src, p)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Resolved || rep.Reason == "" {
				t.Fatalf("resolved, or stopped without a reason: %s", rep.Render())
			}
			// The lane budget is checked between steps: one step of one flow
			// at the lane cap may pass it.
			work := rep.Ops.Min + rep.ScalarOps.Min + rep.InstrFetches.Min
			if rep.Steps.Min > p.MaxSteps || work > p.MaxLaneWork+laneCap+1 {
				t.Errorf("ran past its budgets: %d steps, %d operation slices and fetches (%s)", rep.Steps.Min, work, rep.Reason)
			}
			if rep.MaxThickness.Min != tc.demand {
				t.Errorf("thickness demand %d, want %d", rep.MaxThickness.Min, tc.demand)
			}
			if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 64 {
				t.Errorf("allocated %d MB (%s)", mb, rep.Reason)
			} else {
				t.Logf("%s; allocated %d MB", rep.Reason, mb)
			}
		})
	}
}
