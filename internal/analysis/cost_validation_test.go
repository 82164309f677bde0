// Validation gate for the cost analyzer: over the whole tcf-e corpus, on all
// six variants, on the production machine and on the per-lane reference
// (machine.NewReference), fresh and under a step quota of exactly the
// prediction, a resolved prediction must equal the measured Stats field for
// field.
//
// The documented tolerance band is therefore ZERO for resolved
// predictions: the prediction is one run of the engine. A machine that is
// reused, stopped or restored is held to the fresh per-lane run, Stats
// included, by the differential lattice (internal/chaos). Unresolved
// predictions (analysis budget stops) must still be sound lower bounds.
package analysis_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

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

func compileCorpus(tb testing.TB, path string) *codegen.Compiled {
	tb.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := codegen.CompileSource(filepath.Base(path), string(src))
	if err != nil {
		tb.Fatalf("compile %s: %v", path, err)
	}
	return c
}

// engine is one of the two machines a configuration is measured on.
type engine struct {
	name string
	new  func(machine.Config) (*machine.Machine, error)
}

var engines = []engine{{"reference", machine.NewReference}, {"production", machine.New}}

// measure runs the program on the engine and returns the measured stats plus
// the run error (capability rejections, runtime errors). A nil m is a fresh
// machine of the configuration; otherwise m, which has run before, is Reset
// and runs it, as a pooled machine does in tcfserve. A quota above 0 is
// stamped on the machine with SetLimits before the program is loaded, as
// tcfserve stamps a tenant's.
func measure(tb testing.TB, m *machine.Machine, c *codegen.Compiled, kind variant.Kind, eng engine, quota int64) (*machine.Machine, *machine.Stats, error) {
	tb.Helper()
	cfg := machine.Default(kind)
	if m != nil {
		m.Reset()
	} else {
		var err error
		if m, err = eng.new(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	if quota > 0 {
		if err := m.SetLimits(quota, cfg.MaxThickness); err != nil {
			tb.Fatal(err)
		}
	}
	load(tb, m, c, cfg)
	_, runErr := m.Run()
	return m, m.Stats(), runErr
}

// load loads the program and its local data into m.
func load(tb testing.TB, m *machine.Machine, c *codegen.Compiled, cfg machine.Config) {
	tb.Helper()
	if err := m.LoadProgram(c.Program); err != nil {
		tb.Fatal(err)
	}
	for _, seg := range c.LocalData {
		for g := 0; g < cfg.Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// statRows flattens the Stats fields the analyzer predicts, in report
// order, so mismatches name the field.
func statRows(st *machine.Stats) []struct {
	name string
	v    int64
} {
	return []struct {
		name string
		v    int64
	}{
		{"steps", st.Steps},
		{"cycles", st.Cycles},
		{"ops", st.Ops},
		{"scalar_ops", st.ScalarOps},
		{"instr_fetches", st.InstrFetches},
		{"shared_reads", st.SharedReads},
		{"shared_writes", st.SharedWrites},
		{"local_reads", st.LocalReads},
		{"local_writes", st.LocalWrites},
		{"multiop_refs", st.MultiopRefs},
		{"overhead_cycles", st.OverheadCycles},
		{"stall_cycles", st.StallCycles},
		{"flow_branch_cycles", st.FlowBranchCycles},
		{"task_switch_cycles", st.TaskSwitchCycles},
		{"barriers", st.Barriers},
		{"splits", st.Splits},
		{"joins", st.Joins},
		{"flows_created", st.FlowsCreated},
		{"max_live_flows", int64(st.MaxLiveFlows)},
	}
}

func reportBounds(rep *analysis.CostReport) []analysis.Bound {
	return []analysis.Bound{
		rep.Steps, rep.Cycles, rep.Ops, rep.ScalarOps, rep.InstrFetches,
		rep.SharedReads, rep.SharedWrites, rep.LocalReads, rep.LocalWrites,
		rep.MultiopRefs, rep.OverheadCycles, rep.StallCycles,
		rep.FlowBranchCycles, rep.TaskSwitchCycles, rep.Barriers,
		rep.Splits, rep.Joins, rep.FlowsCreated, rep.MaxLiveFlows,
	}
}

// TestCostPredictionsMatchMeasuredStats is the corpus validation gate. Each
// configuration is measured twice:
//   - fresh: on a new machine;
//   - quota: on a new machine under a step quota of exactly the predicted
//     steps, which an admitted run must finish within; a quota one step
//     short must stop it with ErrMaxSteps.
func TestCostPredictionsMatchMeasuredStats(t *testing.T) {
	// configurations, those the quota leg ran in and those it engaged in
	configs, ran, engaged := 0, 0, 0
	for _, path := range corpusFiles(t) {
		c := compileCorpus(t, path)
		for _, kind := range variant.Kinds() {
			rep := analysis.Cost(c, analysis.DefaultCostParams(kind))
			for _, eng := range engines {
				name := fmt.Sprintf("%s/%s/%s", filepath.Base(path), kind, eng.name)
				configs++
				t.Run(name, func(t *testing.T) {
					t.Run("fresh", func(t *testing.T) {
						_, st, runErr := measure(t, nil, c, kind, eng, 0)
						checkPrediction(t, rep, st, runErr)
					})
					t.Run("quota", func(t *testing.T) {
						ran++
						if !rep.Resolved || rep.Note != "" {
							_, st, runErr := measure(t, nil, c, kind, eng, 0)
							checkPrediction(t, rep, st, runErr)
							return
						}
						steps := rep.Steps.Min
						m, st, runErr := measure(t, nil, c, kind, eng, steps)
						checkPrediction(t, rep, st, runErr)
						if steps < 2 {
							return // SetLimits reads a quota of 0 as the default
						}
						engaged++
						if _, _, err := measure(t, m, c, kind, eng, steps-1); !errors.Is(err, machine.ErrMaxSteps) {
							t.Fatalf("a quota of %d steps, one short of the prediction, stopped the run with %v", steps-1, err)
						}
					})
				})
			}
		}
	}
	if ran == configs && engaged == 0 {
		t.Errorf("quota engaged in none of %d configurations: it proved nothing", configs)
	}
}

// checkPrediction holds rep to one run's statistics and error.
func checkPrediction(t *testing.T, rep *analysis.CostReport, st *machine.Stats, runErr error) {
	t.Helper()
	if runErr != nil {
		// The engine rejected or aborted the program; the analyzer must
		// have predicted an abnormal stop (or given up), never a clean
		// resolution.
		if rep.Resolved && rep.Note == "" {
			t.Fatalf("engine error %q but analyzer predicted a clean run", runErr)
		}
		return
	}
	rows := statRows(st)
	bounds := reportBounds(rep)
	if rep.Resolved {
		if rep.Note != "" {
			t.Fatalf("predicted runtime error %q but the run finished cleanly", rep.Note)
		}
		for i, row := range rows {
			if !bounds[i].Exact() || bounds[i].Min != row.v {
				t.Errorf("%s: predicted %v, measured %d", row.name, bounds[i], row.v)
			}
		}
		return
	}
	// Unresolved predictions must still be sound lower bounds on the
	// measured run.
	for i, row := range rows {
		if bounds[i].Min > row.v {
			t.Errorf("%s: lower bound %d exceeds measured %d (reason %q)",
				row.name, bounds[i].Min, row.v, rep.Reason)
		}
	}
}

// TestCostResolvesCorpus pins that the analyzer fully resolves the entire
// corpus under the reference TCF variant — the predictions the golden file
// records are exact, not fallbacks.
func TestCostResolvesCorpus(t *testing.T) {
	for _, path := range corpusFiles(t) {
		c := compileCorpus(t, path)
		rep := analysis.Cost(c, analysis.DefaultCostParams(variant.SingleInstruction))
		if !rep.Resolved {
			t.Errorf("%s: not resolved: %s", filepath.Base(path), rep.Reason)
		}
	}
}
