package exper

import (
	"strings"
	"sync"

	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/network"
	"tcfpram/internal/trace"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// ---- Figure 1: ESM substrate — distance-aware network under random traffic ----

// Fig1Row is one network size under uniform random traffic.
type Fig1Row struct {
	Nodes      int
	Kind       network.Kind
	AvgLatency float64
	AvgHops    float64
	MaxLatency int64
	Throughput float64
}

// Fig1 sweeps mesh sizes under uniform random traffic (the bandwidth/latency
// assumption behind emulated shared memory).
func Fig1(perNode int) ([]Fig1Row, error) {
	var rows []Fig1Row
	for _, side := range []int{2, 4, 6, 8} {
		for _, kind := range []network.Kind{network.Mesh2D, network.Torus2D} {
			s, err := network.RandomTraffic(network.Config{
				Kind: kind, Width: side, Height: side, LinkCapacity: 2,
			}, perNode, 42)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig1Row{
				Nodes: side * side, Kind: kind,
				AvgLatency: s.AvgLatency, AvgHops: s.AvgHops,
				MaxLatency: s.MaxLatency, Throughput: s.Throughput,
			})
		}
	}
	return rows, nil
}

// FormatFig1 renders the Figure 1 sweep.
func FormatFig1(rows []Fig1Row) string {
	t := &table{header: []string{"nodes", "network", "avg latency", "avg hops", "max latency", "throughput"}}
	for _, r := range rows {
		t.add(itoa(int64(r.Nodes)), r.Kind.String(), f2(r.AvgLatency), f2(r.AvgHops),
			itoa(r.MaxLatency), f2(r.Throughput))
	}
	return t.String()
}

// ---- Figure 2: PRAM-NUMA — bunching recovers low-TLP utilization ----

// Fig2Row reports the sequential-chain cost at one NUMA bunch size.
type Fig2Row struct {
	Bunch  int
	Cycles int64
	Steps  int64
	// StepSpeedup is steps(bunch 1) / steps(bunch T): the paper's
	// proportional law — a bunch of T executes T instructions per step.
	StepSpeedup float64
	// CycleSpeedup is the wall-cycle gain; it saturates at roughly
	// 1 + PipelineDepth in this machine because the dynamic pipeline
	// charges only executed operations plus a fixed per-step fill.
	CycleSpeedup float64
}

// Fig2 runs the low-TLP chain with growing bunch lengths.
func Fig2(chain int) ([]Fig2Row, error) {
	var rows []Fig2Row
	var baseCycles, baseSteps int64
	for _, bunch := range []int{1, 2, 4, 8, 16} {
		m, err := runWorkload(variant.SingleInstruction, workload.LowTLP(chain, bunch), nil)
		if err != nil {
			return nil, err
		}
		s := m.Stats()
		if bunch == 1 {
			baseCycles, baseSteps = s.Cycles, s.Steps
		}
		rows = append(rows, Fig2Row{Bunch: bunch, Cycles: s.Cycles, Steps: s.Steps,
			StepSpeedup:  float64(baseSteps) / float64(s.Steps),
			CycleSpeedup: float64(baseCycles) / float64(s.Cycles)})
	}
	return rows, nil
}

// FormatFig2 renders the bunch sweep.
func FormatFig2(rows []Fig2Row) string {
	t := &table{header: []string{"bunch", "cycles", "steps", "step speedup", "cycle speedup"}}
	for _, r := range rows {
		t.add(itoa(int64(r.Bunch)), itoa(r.Cycles), itoa(r.Steps), f2(r.StepSpeedup), f2(r.CycleSpeedup))
	}
	return t.String()
}

// ---- Figures 3/4: TCF block structure and thickness evolution ----

// fig34Source is the paper's Figure 3 flow graph: a thickness-23 block, a
// thickness-15 block with a branching statement, and two parallel branches
// of thicknesses 12 and 3.
const fig34Source = `
shared int sink[32];

func main() {
    #23;
    sink[tid % 32] = tid;
    sink[tid % 32] += 1;
    #15;
    sink[tid % 32] += 2;
    int which = 1;
    if (which) {
        sink[0] = 99;
    }
    parallel {
        #12: sink[tid % 32] += 3;
        #3:  sink[tid] += 4;
    }
    #1;
}
`

// Fig34 runs the Figure 3/4 program under tracing and returns the flow
// spans (block structure) and flow 0's thickness timeline.
func Fig34() ([]trace.FlowSpan, []int, *machine.Machine, error) {
	cfg := machine.Default(variant.SingleInstruction)
	cfg.TraceEnabled = true
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := compileFig34()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.LoadProgram(prog); err != nil {
		return nil, nil, nil, err
	}
	if _, err := m.Run(); err != nil {
		return nil, nil, nil, err
	}
	return trace.Spans(m), trace.ThicknessTimeline(m, 0), m, nil
}

// ---- Figures 6-12: per-variant execution schedules ----

// scheduleProgram builds the two-flow workload of Figures 7/8: flows of
// thickness 12 and 3 each executing a few thick instructions. Programs are
// immutable once built, so the figure harness shares one copy across runs.
var scheduleProgram = sync.OnceValue(func() *isa.Program {
	b := isa.NewBuilder("schedule")
	b.Label("main")
	b.Split(isa.ArmImm(12, "thickArm"), isa.ArmImm(3, "thinArm"))
	b.Halt()
	b.Label("thickArm")
	for i := 0; i < 3; i++ {
		b.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	}
	b.Op(isa.JOIN)
	b.Label("thinArm")
	for i := 0; i < 3; i++ {
		b.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	}
	b.Op(isa.JOIN)
	return b.MustBuild()
})

// FigSchedule runs the 12/3 two-flow workload on the given variant with
// tracing and returns the machine (for rendering) plus summary measures.
type FigScheduleResult struct {
	Variant    variant.Kind
	Steps      int64
	Cycles     int64
	MaxStepOps int // largest per-step per-group lane count observed
	Machine    *machine.Machine
}

// FigSchedule reproduces the execution shape of Figures 7 (single
// instruction: thick slows thin), 8 (balanced: bounded slices) and 9
// (multi-instruction: several instructions per step).
func FigSchedule(kind variant.Kind) (*FigScheduleResult, error) {
	cfg := machine.Default(kind)
	cfg.TraceEnabled = true
	cfg.Groups = 2
	cfg.ProcsPerGroup = 2
	cfg.Topology = nil
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(scheduleProgram()); err != nil {
		return nil, err
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	res := &FigScheduleResult{Variant: kind, Steps: m.Stats().Steps, Cycles: m.Stats().Cycles, Machine: m}
	perGroup := make([]int, cfg.Groups)
	for _, rec := range m.Trace() {
		for i := range perGroup {
			perGroup[i] = 0
		}
		for _, s := range rec.Slices {
			if !s.Op.Info().Control {
				perGroup[s.Group] += s.Lanes
			}
		}
		for _, n := range perGroup {
			if n > res.MaxStepOps {
				res.MaxStepOps = n
			}
		}
	}
	return res, nil
}

// Fig6 shows the single-processor latency-hiding view: two resident flows on
// one group execute their slices sequentially within each step.
func Fig6() (*machine.Machine, error) {
	cfg := machine.Default(variant.SingleInstruction)
	cfg.TraceEnabled = true
	cfg.Groups = 1
	// Three TCF slots: the suspended split parent keeps its buffer entry
	// while both children are resident.
	cfg.ProcsPerGroup = 3
	cfg.Topology = nil
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(scheduleProgram()); err != nil {
		return nil, err
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---- Figures 10/11: low-TLP utilization of the thread machines ----

// Fig1011Row reports utilization of a thread machine at a given number of
// active threads, optionally with NUMA bunching.
type Fig1011Row struct {
	Variant       variant.Kind
	ActiveThreads int
	NUMABunch     int
	Utilization   float64
	Cycles        int64
}

// lowTLPThreadProgram keeps only `active` threads computing a chain of k
// dependent scalar instructions; the rest halt immediately. With bunch > 1
// the active threads declare NUMA execution (configurable single-operation
// variant only).
func lowTLPThreadProgram(active, k, bunch int) *isa.Program {
	b := isa.NewBuilder("lowtlp-threads")
	b.Label("main")
	b.Id(isa.FID, isa.S(0))
	b.ALUI(isa.SGE, isa.S(1), isa.S(0), int64(active))
	b.Branch(isa.BNEZ, isa.S(1), "done")
	if bunch > 1 {
		b.NumaImm(int64(bunch))
	}
	for i := 0; i < k; i++ {
		b.ALUI(isa.ADD, isa.S(2), isa.S(2), 1)
	}
	b.Label("done").Halt()
	return b.MustBuild()
}

// Fig1011 measures the low-TLP utilization problem (Figure 10: the
// single-operation ESM wastes the machine when few threads are active) and
// its PRAM-NUMA fix (Figure 11: bunching).
func Fig1011(k int) ([]Fig1011Row, error) {
	var rows []Fig1011Row
	run := func(kind variant.Kind, active, bunch int) error {
		cfg := machine.Default(kind)
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		if err := m.LoadProgram(lowTLPThreadProgram(active, k, bunch)); err != nil {
			return err
		}
		if _, err := m.Run(); err != nil {
			return err
		}
		rows = append(rows, Fig1011Row{Variant: kind, ActiveThreads: active, NUMABunch: bunch,
			Utilization: m.Stats().Utilization(), Cycles: m.Stats().Cycles})
		return nil
	}
	for _, active := range []int{16, 4, 1} {
		if err := run(variant.SingleOperation, active, 1); err != nil {
			return nil, err
		}
	}
	for _, bunch := range []int{1, 4, 8} {
		if err := run(variant.ConfigurableSingleOperation, 1, bunch); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatFig1011 renders the utilization table.
func FormatFig1011(rows []Fig1011Row) string {
	t := &table{header: []string{"variant", "active threads", "NUMA bunch", "utilization", "cycles"}}
	for _, r := range rows {
		t.add(r.Variant.String(), itoa(int64(r.ActiveThreads)), itoa(int64(r.NUMABunch)),
			f2(r.Utilization), itoa(r.Cycles))
	}
	return t.String()
}

// ---- Figure 12: the vector/SIMD reduction pays for both branch paths ----

// Fig12 compares the two-way conditional on the TCF model (two parallel
// flows) versus the fixed-thickness vector model (sequential predicated
// execution of both paths).
type Fig12Result struct {
	TCFOps    int64
	SIMDOps   int64
	TCFCycles int64
	SIMDCycle int64
}

// Fig12 runs ConditionalHalves both ways.
func Fig12(size int) (*Fig12Result, error) {
	tcfM, err := runWorkload(variant.SingleInstruction, workload.ConditionalHalves(workload.StyleTCF, size), nil)
	if err != nil {
		return nil, err
	}
	simdM, err := runWorkload(variant.FixedThickness, workload.ConditionalHalves(workload.StyleSIMD, size),
		func(c *machine.Config) {
			c.ProcsPerGroup = size
			c.VectorWidth = size
		})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		TCFOps: tcfM.Stats().Ops, SIMDOps: simdM.Stats().Ops,
		TCFCycles: tcfM.Stats().Cycles, SIMDCycle: simdM.Stats().Cycles,
	}, nil
}

// ---- Figure 13: the TCF pipeline fetches once per TCF instruction ----

// Fig13Row reports fetch amortization at one thickness.
type Fig13Row struct {
	Thickness    int
	TCFFetches   float64 // fetches per thick instruction, single-instruction variant
	XMTFetches   float64 // multi-instruction variant (per-thread delivery)
	BalFetches   float64 // balanced variant, bound B
	ThreadFetch  float64 // single-operation variant (u threads execute the code)
	TCFUtilPct   float64
	OverheadNote string
}

// Fig13 sweeps thickness and measures instruction-fetch amortization — the
// implementation argument of Section 3.3 (fetch the instruction word once
// per TCF).
func Fig13() ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, u := range []int{1, 4, 16} {
		si, _, err := measureFetchesAndRegs(variant.SingleInstruction, 8, u)
		if err != nil {
			return nil, err
		}
		mi, _, err := measureFetchesAndRegs(variant.MultiInstruction, 8, u)
		if err != nil {
			return nil, err
		}
		bal, _, err := measureFetchesAndRegs(variant.Balanced, 8, u)
		if err != nil {
			return nil, err
		}
		row := Fig13Row{Thickness: u, TCFFetches: si, XMTFetches: mi, BalFetches: bal}
		if u == 16 {
			th, _, err := measureFetchesAndRegs(variant.SingleOperation, 8, u)
			if err != nil {
				return nil, err
			}
			row.ThreadFetch = th
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig13 renders the fetch sweep.
func FormatFig13(rows []Fig13Row) string {
	t := &table{header: []string{"thickness", "tcf fetches/instr", "balanced", "xmt", "threads"}}
	for _, r := range rows {
		th := "-"
		if r.ThreadFetch > 0 {
			th = f2(r.ThreadFetch)
		}
		t.add(itoa(int64(r.Thickness)), f2(r.TCFFetches), f2(r.BalFetches), f2(r.XMTFetches), th)
	}
	return t.String()
}

// compileFig34 compiles the Figure 3/4 source through the tcf-e toolchain.
// (Defined here to avoid importing codegen in multiple files.)
var compileFig34 = func() func() (*isa.Program, error) {
	return func() (*isa.Program, error) {
		return compileSource("fig34", fig34Source)
	}
}()

// renderSchedule renders a schedule figure as timeline + gantt.
func RenderSchedule(m *machine.Machine) string {
	var b strings.Builder
	b.WriteString(trace.Timeline(m))
	b.WriteString("\n")
	b.WriteString(trace.Gantt(m))
	return b.String()
}
