package tcfpram

// Ablation benchmarks for the design choices the paper discusses in Section
// 3.3: OS-level splitting of overly thick flows, the balanced bound, the
// topology's distance metric, the storage of thread-wise intermediate results
// and the XMT engine's instruction window.

import (
	"fmt"
	"testing"

	"tcfpram/internal/exper"

	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/topology"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// thickKernel is a 256-lane elementwise kernel used by the ablations.
func thickKernel() *isa.Program {
	b := isa.NewBuilder("thick-kernel")
	b.Label("main")
	b.SetThickImm(256)
	b.Id(isa.TID, isa.V(0))
	for i := 0; i < 6; i++ {
		b.ALUI(isa.MUL, isa.V(1), isa.V(0), 3)
		b.ALU(isa.ADD, isa.V(0), isa.V(0), isa.V(1))
	}
	b.St(isa.V(0), 2000, isa.V(0))
	b.Halt()
	return b.MustBuild()
}

func runKernel(b *testing.B, prog *isa.Program, tweak func(*machine.Config)) *machine.Machine {
	b.Helper()
	cfg := machine.Default(variant.SingleInstruction)
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblation_AutoSplit: fragmenting a 256-lane flow across the groups
// versus running it on one (Section 3.3's OS splitting).
func BenchmarkAblation_AutoSplit(b *testing.B) {
	prog := thickKernel()
	for _, threshold := range []int{0, 64, 32} {
		name := "off"
		if threshold > 0 {
			name = fmt.Sprintf("threshold%d", threshold)
		}
		b.Run(name, func(b *testing.B) {
			var last *machine.Machine
			for i := 0; i < b.N; i++ {
				last = runKernel(b, prog, func(c *machine.Config) { c.AutoSplitThreshold = threshold })
			}
			report(b, last)
			b.ReportMetric(float64(last.Stats().AutoSplits), "autosplits")
		})
	}
}

// BenchmarkAblation_BalancedBound: the bound trades step count against
// per-step width (and fetch bandwidth).
func BenchmarkAblation_BalancedBound(b *testing.B) {
	w := workload.VectorAdd(workload.StyleTCF, 64, 0, 0)
	for _, bound := range []int{2, 4, 16, 64} {
		b.Run(fmt.Sprintf("b%d", bound), func(b *testing.B) {
			var last *machine.Machine
			for i := 0; i < b.N; i++ {
				cfg := machine.Default(variant.Balanced)
				cfg.BalancedBound = bound
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadProgram(w.Program); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				if err := w.Check(m); err != nil {
					b.Fatal(err)
				}
				last = m
			}
			report(b, last)
		})
	}
}

// BenchmarkAblation_Topology: the distance metric shapes the memory latency
// overhead of PRAM-mode steps.
func BenchmarkAblation_Topology(b *testing.B) {
	w := workload.VectorAdd(workload.StyleTCF, 256, 0, 0)
	topos := map[string]func(n int) topology.Topology{
		"ring":    func(n int) topology.Topology { return topology.Must(topology.NewRing(n)) },
		"torus":   func(n int) topology.Topology { return topology.Must(topology.NewTorus2D(n/2, 2)) },
		"uniform": func(n int) topology.Topology { return topology.Must(topology.NewUniform(n, 1)) },
	}
	for _, name := range []string{"ring", "torus", "uniform"} {
		mk := topos[name]
		b.Run(name, func(b *testing.B) {
			var last *machine.Machine
			for i := 0; i < b.N; i++ {
				cfg := machine.Default(variant.SingleInstruction)
				cfg.Groups = 8
				cfg.Topology = mk(8)
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadProgram(w.Program); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				last = m
			}
			report(b, last)
		})
	}
}

// BenchmarkAblation_RegisterStorage compares the Section 3.3 storage options
// for thread-wise intermediate results.
func BenchmarkAblation_RegisterStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Storage(4, 50)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblation_MultiInstrWindow sweeps the XMT engine's per-step
// instruction window: wider windows pack more instructions per step at the
// cost of coarser interleaving.
func BenchmarkAblation_MultiInstrWindow(b *testing.B) {
	w := workload.DependentLoop(workload.StyleFork, 16)
	for _, window := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			var last *machine.Machine
			for i := 0; i < b.N; i++ {
				cfg := machine.Default(variant.MultiInstruction)
				cfg.MultiInstrWindow = window
				m, err := machine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadProgram(w.Program); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				if err := w.Check(m); err != nil {
					b.Fatal(err)
				}
				last = m
			}
			report(b, last)
		})
	}
}
