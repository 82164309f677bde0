// Validation gate for the cost analyzer: over the whole tcf-e corpus, on all
// six variants, on the production machine and on the per-lane reference
// (machine.NewReference), with Parallel off and on, on a fresh machine and on
// a Reset one, a resolved prediction must equal the measured Stats field for
// field.
//
// The documented tolerance band is therefore ZERO for resolved
// predictions: the prediction is one serial lockstep run, and every other
// configuration of the engine must agree with it. Unresolved
// predictions (analysis budget stops) must still be sound lower bounds.
package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
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
// and runs it, as a pooled machine does in tcfserve.
func measure(tb testing.TB, m *machine.Machine, c *codegen.Compiled, kind variant.Kind, eng engine, parallel bool) (*machine.Machine, *machine.Stats, error) {
	tb.Helper()
	cfg := machine.Default(kind)
	cfg.Parallel = parallel
	if m != nil {
		m.Reset()
	} else {
		var err error
		if m, err = eng.new(cfg); err != nil {
			tb.Fatal(err)
		}
	}
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
	_, runErr := m.Run()
	return m, m.Stats(), runErr
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
// configuration is measured twice: on a fresh machine, and on the machine
// that ran the previous corpus program under it (this program, for the
// first), Reset under mem.ResetAudit.
func TestCostPredictionsMatchMeasuredStats(t *testing.T) {
	mem.ResetAudit.Store(true)
	t.Cleanup(func() { mem.ResetAudit.Store(false) })
	type config struct {
		kind     variant.Kind
		engine   string
		parallel bool
	}
	used := map[config]*machine.Machine{}
	for _, path := range corpusFiles(t) {
		c := compileCorpus(t, path)
		for _, kind := range variant.Kinds() {
			rep := analysis.Cost(c, analysis.DefaultCostParams(kind))
			for _, eng := range engines {
				for _, parallel := range []bool{false, true} {
					k := config{kind, eng.name, parallel}
					name := fmt.Sprintf("%s/%s/%s/parallel=%v", filepath.Base(path), kind, eng.name, parallel)
					t.Run(name, func(t *testing.T) {
						t.Run("fresh", func(t *testing.T) {
							m, st, runErr := measure(t, nil, c, kind, eng, parallel)
							if used[k] == nil {
								used[k] = m
							}
							checkPrediction(t, rep, st, runErr)
						})
						t.Run("reset", func(t *testing.T) {
							m, st, runErr := measure(t, used[k], c, kind, eng, parallel)
							used[k] = m
							checkPrediction(t, rep, st, runErr)
						})
					})
				}
			}
		}
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
