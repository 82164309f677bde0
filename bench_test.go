package tcfpram

// The benchmark harness regenerates every table and figure of the paper:
// run `go test -bench=. -benchmem` and see EXPERIMENTS.md for the recorded
// shapes. Each benchmark reports domain metrics (cycles, steps, fetches of
// the simulated machine) beside Go's timing so the paper's comparisons can
// be read directly from the benchmark output.

import (
	"fmt"
	"testing"

	"tcfpram/internal/exper"
	"tcfpram/internal/machine"
	"tcfpram/internal/network"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// report attaches simulated-machine metrics to the benchmark result.
func report(b *testing.B, m *machine.Machine) {
	b.Helper()
	s := m.Stats()
	b.ReportMetric(float64(s.Cycles), "cycles")
	b.ReportMetric(float64(s.Steps), "steps")
	b.ReportMetric(float64(s.InstrFetches), "fetches")
	b.ReportMetric(s.Utilization(), "util")
}

func benchWorkload(b *testing.B, kind variant.Kind, w workload.Workload, tweak func(*machine.Config)) {
	b.Helper()
	b.ReportAllocs()
	var last *machine.Machine
	for i := 0; i < b.N; i++ {
		last = exper.MustRun(kind, w, tweak)
	}
	report(b, last)
}

// ---- Table 1 ----

func BenchmarkTable1_Measure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Table1(8, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_TaskSwitch(b *testing.B) {
	benchWorkload(b, variant.SingleInstruction, workload.Multitask(48, 4), nil)
}

func BenchmarkTable1_FlowBranch(b *testing.B) {
	benchWorkload(b, variant.SingleInstruction, workload.ConditionalHalves(workload.StyleTCF, 16), nil)
}

// ---- Figure 1: network substrate ----

func BenchmarkFig1_NetworkRandomTraffic(b *testing.B) {
	for _, side := range []int{4, 8} {
		b.Run(fmt.Sprintf("mesh%dx%d", side, side), func(b *testing.B) {
			var last network.Stats
			for i := 0; i < b.N; i++ {
				s, err := network.RandomTraffic(network.Config{
					Kind: network.Mesh2D, Width: side, Height: side, LinkCapacity: 2,
				}, 8, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.ReportMetric(last.AvgLatency, "netlat")
			b.ReportMetric(last.Throughput, "netthru")
		})
	}
}

// ---- Figure 2: NUMA bunching ----

func BenchmarkFig2_NUMABunchSpeedup(b *testing.B) {
	for _, bunch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("bunch%d", bunch), func(b *testing.B) {
			benchWorkload(b, variant.SingleInstruction, workload.LowTLP(128, bunch), nil)
		})
	}
}

// ---- Figures 3/4: TCF structure ----

func BenchmarkFig34_BlockStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := exper.Fig34(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 6-9: execution schedules ----

func BenchmarkFig6_SliceInterleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_SingleInstruction(b *testing.B) {
	var last *exper.FigScheduleResult
	for i := 0; i < b.N; i++ {
		r, err := exper.FigSchedule(variant.SingleInstruction)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Steps), "steps")
	b.ReportMetric(float64(last.MaxStepOps), "maxstepops")
}

func BenchmarkFig8_Balanced(b *testing.B) {
	var last *exper.FigScheduleResult
	for i := 0; i < b.N; i++ {
		r, err := exper.FigSchedule(variant.Balanced)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Steps), "steps")
	b.ReportMetric(float64(last.MaxStepOps), "maxstepops")
}

func BenchmarkFig9_MultiInstruction(b *testing.B) {
	var last *exper.FigScheduleResult
	for i := 0; i < b.N; i++ {
		r, err := exper.FigSchedule(variant.MultiInstruction)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Steps), "steps")
}

// ---- Figures 10/11: low-TLP utilization ----

func BenchmarkFig10_SingleOperation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig1011(64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_ConfigurableSingleOp(b *testing.B) {
	benchWorkload(b, variant.ConfigurableSingleOperation, workload.LowTLP(64, 4), nil)
}

// ---- Figure 12: SIMD reduction ----

func BenchmarkFig12_FixedThickness(b *testing.B) {
	benchWorkload(b, variant.FixedThickness, workload.ConditionalHalves(workload.StyleSIMD, 16),
		func(c *machine.Config) {
			c.ProcsPerGroup = 16
			c.VectorWidth = 16
		})
}

// ---- Figure 13: fetch amortization ----

func BenchmarkFig13_FetchAmortization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Section 4 programming comparisons ----

func BenchmarkS4a_VectorAdd(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("tcf/%d", size), func(b *testing.B) {
			benchWorkload(b, variant.SingleInstruction, workload.VectorAdd(workload.StyleTCF, size, 0, 0), nil)
		})
		b.Run(fmt.Sprintf("threadloop/%d", size), func(b *testing.B) {
			benchWorkload(b, variant.SingleOperation, workload.VectorAdd(workload.StyleThread, size, 16, 0), nil)
		})
	}
}

func BenchmarkS4b_SmallVector(b *testing.B) {
	b.Run("tcf", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.VectorAdd(workload.StyleTCF, 5, 0, 0), nil)
	})
	b.Run("threadguard", func(b *testing.B) {
		benchWorkload(b, variant.SingleOperation, workload.VectorAdd(workload.StyleThread, 5, 16, 0), nil)
	})
}

func BenchmarkS4c_LowTLP(b *testing.B) {
	b.Run("pram-thick1", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.LowTLP(128, 0), nil)
	})
	b.Run("numa-bunch8", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.LowTLP(128, 8), nil)
	})
}

func BenchmarkS4d_Conditional(b *testing.B) {
	b.Run("tcf-parallel", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.ConditionalHalves(workload.StyleTCF, 16), nil)
	})
	b.Run("thread-if", func(b *testing.B) {
		benchWorkload(b, variant.SingleOperation, workload.ConditionalHalves(workload.StyleThread, 16), nil)
	})
	b.Run("simd-predicated", func(b *testing.B) {
		benchWorkload(b, variant.FixedThickness, workload.ConditionalHalves(workload.StyleSIMD, 16),
			func(c *machine.Config) {
				c.ProcsPerGroup = 16
				c.VectorWidth = 16
			})
	})
}

func BenchmarkS4e_Prefix(b *testing.B) {
	b.Run("tcf", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.PrefixSum(workload.StyleTCF, 128, 0), nil)
	})
	b.Run("threadloop", func(b *testing.B) {
		benchWorkload(b, variant.SingleOperation, workload.PrefixSum(workload.StyleThread, 128, 16), nil)
	})
}

func BenchmarkS4f_DependentLoop(b *testing.B) {
	b.Run("tcf-lockstep", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.DependentLoop(workload.StyleTCF, 16), nil)
	})
	b.Run("fork-lockstep", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.DependentLoop(workload.StyleFork, 16), nil)
	})
	b.Run("fork-xmt", func(b *testing.B) {
		benchWorkload(b, variant.MultiInstruction, workload.DependentLoop(workload.StyleFork, 16), nil)
	})
	b.Run("thread-lockstep", func(b *testing.B) {
		benchWorkload(b, variant.SingleOperation, workload.DependentLoop(workload.StyleThread, 16), nil)
	})
}

func BenchmarkS4g_Multitask(b *testing.B) {
	for _, tasks := range []int{16, 48} {
		b.Run(fmt.Sprintf("tasks%d", tasks), func(b *testing.B) {
			benchWorkload(b, variant.SingleInstruction, workload.Multitask(tasks, 4), nil)
		})
	}
}

func BenchmarkS4h_Allocation(b *testing.B) {
	b.Run("vertical", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.Allocation(64, 1, 16), nil)
	})
	b.Run("horizontal", func(b *testing.B) {
		benchWorkload(b, variant.SingleInstruction, workload.Allocation(64, 4, 16), nil)
	})
}

// ---- Engine throughput (simulator performance, not paper claims) ----

// BenchmarkEngine_StepThroughput measures the step engine on eight
// independent TCFs spread across the groups, each looping over its own memory
// slice: every group busy in every step.
func BenchmarkEngine_StepThroughput(b *testing.B) {
	benchWorkload(b, variant.SingleInstruction, workload.GroupParallel(8, 512, 100), nil)
}

// BenchmarkEngine_StepLoop measures the steady-state cost of one machine
// step on a long-lived machine (construction excluded): a thick loop body
// that stores every iteration. With tracing disabled this must run at
// zero allocations per step — the arenas absorb all step-local state
// (machine.TestStepLoopSteadyStateAllocs gates that in tier-1).
func BenchmarkEngine_StepLoop(b *testing.B) {
	src := `
shared int c[64] @ 300;
func main() {
    #64;
    for (int i = 0; i < 1000000000; i += 1) {
        c[tid] = c[tid] + i;
    }
}
`
	cfg := DefaultConfig(SingleInstruction)
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadSource("bench", src); err != nil {
		b.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		b.Fatal(err)
	}
	// Warm the arenas past their high-water mark before measuring.
	for i := 0; i < 64; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_CompileTCFE(b *testing.B) {
	src := `
shared int a[64] @ 100;
shared int c[64] @ 300;
func main() {
    #64;
    for (int i = 0; i < 4; i += 1) {
        c[tid] = a[tid] * 3 + c[tid];
    }
    parallel {
        #32: c[tid] += 1;
        #32: c[tid + 32] += 2;
    }
}
`
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(DefaultConfig(SingleInstruction))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadSource("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_TrafficPatterns exercises the classic NoC patterns on the
// torus (the adversarial complements of uniform random traffic).
func BenchmarkFig1_TrafficPatterns(b *testing.B) {
	for _, p := range network.Patterns() {
		b.Run(p.String(), func(b *testing.B) {
			var last network.Stats
			for i := 0; i < b.N; i++ {
				s, err := network.PatternTraffic(network.Config{
					Kind: network.Torus2D, Width: 8, Height: 8, LinkCapacity: 2,
				}, p, 8)
				if err != nil {
					b.Fatal(err)
				}
				last = s
			}
			b.ReportMetric(last.AvgLatency, "netlat")
			b.ReportMetric(last.AvgHops, "nethops")
		})
	}
}

// BenchmarkScaling sweeps the machine size for a fixed parallel workload.
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Scaling(256, 6); err != nil {
			b.Fatal(err)
		}
	}
}
