package exper

import (
	"strings"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/pipeline"
	"tcfpram/internal/variant"
)

// ---- Table 1 shapes ----

func TestTable1Shapes(t *testing.T) {
	const u = 16
	rows, err := Table1(8, u)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[variant.Kind]Table1Row{}
	for _, r := range rows {
		byKind[r.Variant] = r
	}
	si := byKind[variant.SingleInstruction]
	bal := byKind[variant.Balanced]
	mi := byKind[variant.MultiInstruction]
	so := byKind[variant.SingleOperation]
	cso := byKind[variant.ConfigurableSingleOperation]
	ft := byKind[variant.FixedThickness]

	// Fetches per TCF: 1 for single-instruction, ceil(u/b)=4 for balanced,
	// one per thread (u) for XMT-style delivery and thread machines.
	if si.FetchesPerTCF != 1 {
		t.Errorf("single-instruction fetches = %.2f, want 1", si.FetchesPerTCF)
	}
	if bal.FetchesPerTCF != float64(u/B) {
		t.Errorf("balanced fetches = %.2f, want %d", bal.FetchesPerTCF, u/B)
	}
	if mi.FetchesPerTCF != float64(u) {
		t.Errorf("multi-instruction fetches = %.2f, want %d", mi.FetchesPerTCF, u)
	}
	if so.FetchesPerTCF != float64(u) || cso.FetchesPerTCF != float64(u) {
		t.Errorf("thread-machine fetches = %.2f/%.2f, want %d", so.FetchesPerTCF, cso.FetchesPerTCF, u)
	}
	if ft.FetchesPerTCF != 1 {
		t.Errorf("fixed-thickness fetches = %.2f, want 1 (single vector instruction)", ft.FetchesPerTCF)
	}

	// Registers per thread: TCF variants share the common registers across
	// the thickness (R/u + m << R); thread variants hold R words each.
	if si.RegsPerThread >= so.RegsPerThread/2 {
		t.Errorf("TCF regs/thread %.2f should be far below thread-machine %.2f",
			si.RegsPerThread, so.RegsPerThread)
	}

	// Task switching: free for TCF variants, Tp for thread machines.
	for _, r := range []Table1Row{si, bal} {
		if r.TaskSwitchCost != 0 || !r.TaskSwitchMeasured {
			t.Errorf("%v task switch = %.2f (measured %v), want measured 0",
				r.Variant, r.TaskSwitchCost, r.TaskSwitchMeasured)
		}
	}
	if so.TaskSwitchCost != float64(Tp) {
		t.Errorf("single-operation task switch = %.2f, want %d", so.TaskSwitchCost, Tp)
	}

	// Flow branch: O(R) for TCF variants, O(1) for thread machines.
	if si.FlowBranchCost != float64(R) || !si.FlowBranchMeasured {
		t.Errorf("single-instruction flow branch = %.2f, want %d measured", si.FlowBranchCost, R)
	}
	if so.FlowBranchCost != 1 {
		t.Errorf("single-operation flow branch = %.2f, want 1", so.FlowBranchCost)
	}
	if mi.FlowBranchCost != 1 || !mi.FlowBranchMeasured {
		t.Errorf("multi-instruction flow branch = %.2f, want measured 1 (XMT parallel spawn)", mi.FlowBranchCost)
	}

	out := FormatTable1(rows, u)
	for _, want := range []string{"number of TCFs", "fetches/TCF", "task switch", "PRAM operation"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// ---- Figure shapes ----

func TestFig1LatencyGrowsWithDistance(t *testing.T) {
	rows, err := Fig1(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Mesh latency grows with node count.
	var meshLat []float64
	for _, r := range rows {
		if r.Kind.String() == "mesh" {
			meshLat = append(meshLat, r.AvgLatency)
		}
	}
	for i := 1; i < len(meshLat); i++ {
		if meshLat[i] <= meshLat[i-1] {
			t.Fatalf("mesh latency not growing: %v", meshLat)
		}
	}
	if FormatFig1(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig2BunchSpeedupProportional(t *testing.T) {
	rows, err := Fig2(128)
	if err != nil {
		t.Fatal(err)
	}
	// Both gains grow monotonically with bunch length.
	for i := 1; i < len(rows); i++ {
		if rows[i].StepSpeedup <= rows[i-1].StepSpeedup {
			t.Fatalf("step speedup not monotone: %+v", rows)
		}
		if rows[i].CycleSpeedup <= rows[i-1].CycleSpeedup {
			t.Fatalf("cycle speedup not monotone: %+v", rows)
		}
	}
	// The step-count law is proportional: a bunch of T executes T
	// instructions per step.
	for _, r := range rows {
		if r.StepSpeedup < 0.75*float64(r.Bunch) {
			t.Fatalf("bunch-%d step speedup only %.2f", r.Bunch, r.StepSpeedup)
		}
	}
	// Cycle gain is real but saturates near 1 + PipelineDepth.
	last := rows[len(rows)-1]
	if last.CycleSpeedup < 2 {
		t.Fatalf("bunch-%d cycle speedup only %.2f", last.Bunch, last.CycleSpeedup)
	}
	if FormatFig2(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig34BlockStructure(t *testing.T) {
	spans, timeline, m, err := Fig34()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no machine")
	}
	// Three flows: main + two parallel branches of 12 and 3 lanes.
	if len(spans) != 3 {
		t.Fatalf("spans: %+v", spans)
	}
	lanes := map[int]bool{}
	for _, sp := range spans[1:] {
		lanes[sp.MaxLanes] = true
	}
	if !lanes[12] || !lanes[3] {
		t.Fatalf("branch thicknesses wrong: %+v", spans)
	}
	// Main's thickness timeline passes through 23 then 15.
	saw23, saw15 := false, false
	order := -1
	for i, l := range timeline {
		if l == 23 {
			saw23 = true
			order = i
		}
		if l == 15 && saw23 && i > order {
			saw15 = true
		}
	}
	if !saw23 || !saw15 {
		t.Fatalf("thickness timeline %v must pass 23 then 15", timeline)
	}
}

func TestFig6SingleProcessorInterleavesSlices(t *testing.T) {
	m, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Both child flows are resident on the single group; some step must
	// execute slices of both (sequential slice-by-slice latency hiding).
	both := false
	for _, rec := range m.Trace() {
		flows := map[int]bool{}
		for _, s := range rec.Slices {
			flows[s.Flow] = true
		}
		if flows[1] && flows[2] {
			both = true
		}
	}
	if !both {
		t.Fatal("no step executed slices of both flows on the one processor")
	}
}

func TestFig7UnbalancedSingleInstruction(t *testing.T) {
	res, err := FigSchedule(variant.SingleInstruction)
	if err != nil {
		t.Fatal(err)
	}
	// One step carries a full 12-lane instruction: thick slows thin.
	if res.MaxStepOps < 12 {
		t.Fatalf("max per-step ops = %d, want >= 12", res.MaxStepOps)
	}
	if RenderSchedule(res.Machine) == "" {
		t.Fatal("empty render")
	}
}

func TestFig8BalancedBoundsSteps(t *testing.T) {
	res, err := FigSchedule(variant.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxStepOps > B {
		t.Fatalf("balanced step executed %d ops > bound %d", res.MaxStepOps, B)
	}
	si, err := FigSchedule(variant.SingleInstruction)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps <= si.Steps {
		t.Fatalf("balanced steps (%d) must exceed single-instruction steps (%d)", res.Steps, si.Steps)
	}
}

func TestFig9MultiInstructionPacksSteps(t *testing.T) {
	mi, err := FigSchedule(variant.MultiInstruction)
	if err != nil {
		t.Fatal(err)
	}
	si, err := FigSchedule(variant.SingleInstruction)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Steps >= si.Steps {
		t.Fatalf("multi-instruction steps (%d) should undercut single-instruction (%d)", mi.Steps, si.Steps)
	}
}

func TestFig1011UtilizationShapes(t *testing.T) {
	rows, err := Fig1011(64)
	if err != nil {
		t.Fatal(err)
	}
	var full, low, bunched float64
	for _, r := range rows {
		switch {
		case r.Variant == variant.SingleOperation && r.ActiveThreads == 16:
			full = r.Utilization
		case r.Variant == variant.SingleOperation && r.ActiveThreads == 1:
			low = r.Utilization
		case r.Variant == variant.ConfigurableSingleOperation && r.NUMABunch == 8:
			bunched = r.Utilization
		}
	}
	// Figure 10: utilization collapses with one active thread.
	if low >= full/4 {
		t.Fatalf("low-TLP utilization %.3f should collapse versus full %.3f", low, full)
	}
	// Figure 11: bunching recovers a large factor.
	if bunched <= 2*low {
		t.Fatalf("bunching should recover utilization: %.3f vs %.3f", bunched, low)
	}
	if FormatFig1011(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig12SIMDPaysBothPaths(t *testing.T) {
	res, err := Fig12(16)
	if err != nil {
		t.Fatal(err)
	}
	// The vector model executes both branch paths across the full width
	// (plus masking work); the TCF model splits into exactly-sized flows.
	if res.SIMDOps <= res.TCFOps {
		t.Fatalf("SIMD ops (%d) should exceed TCF ops (%d)", res.SIMDOps, res.TCFOps)
	}
}

func TestFig13FetchAmortization(t *testing.T) {
	rows, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TCFFetches != 1 {
			t.Fatalf("thickness %d: TCF fetches %.2f, want 1", r.Thickness, r.TCFFetches)
		}
		if r.XMTFetches != float64(r.Thickness) {
			t.Fatalf("thickness %d: XMT fetches %.2f, want %d", r.Thickness, r.XMTFetches, r.Thickness)
		}
		wantBal := float64((r.Thickness + B - 1) / B)
		if r.BalFetches != wantBal {
			t.Fatalf("thickness %d: balanced fetches %.2f, want %.2f", r.Thickness, r.BalFetches, wantBal)
		}
	}
	if FormatFig13(rows) == "" {
		t.Fatal("empty format")
	}
}

// ---- Section 4 shapes ----

func TestS4aThicknessBeatsThreadLoop(t *testing.T) {
	rows, err := S4a([]int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	// The thickness program issues far fewer instructions (no loop
	// arithmetic) than the thread loop.
	for i := 0; i < len(rows); i += 2 {
		tcf, thr := rows[i], rows[i+1]
		if tcf.Instrs >= thr.Instrs {
			t.Fatalf("size %d: TCF fetches %d should undercut thread loop %d", tcf.Size, tcf.Instrs, thr.Instrs)
		}
	}
	if FormatS4(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestS4bSmallSizes(t *testing.T) {
	rows, err := S4b(5)
	if err != nil {
		t.Fatal(err)
	}
	tcf, thr := rows[0], rows[1]
	// The guard version makes every thread fetch the guard code.
	if tcf.Instrs >= thr.Instrs {
		t.Fatalf("TCF %d fetches vs thread %d", tcf.Instrs, thr.Instrs)
	}
}

func TestS4cNUMAHelpsLowTLP(t *testing.T) {
	rows, err := S4c(128)
	if err != nil {
		t.Fatal(err)
	}
	pram, numa := rows[0], rows[1]
	if numa.Cycles*2 >= pram.Cycles {
		t.Fatalf("NUMA (%d cycles) should clearly beat PRAM thickness-1 (%d)", numa.Cycles, pram.Cycles)
	}
}

func TestS4dConditional(t *testing.T) {
	rows, err := S4d(16)
	if err != nil {
		t.Fatal(err)
	}
	var tcf, simd S4Row
	for _, r := range rows {
		switch r.Style {
		case "tcf":
			tcf = r
		case "simd":
			simd = r
		}
	}
	if simd.Ops <= tcf.Ops {
		t.Fatalf("SIMD must pay both paths: %d vs %d ops", simd.Ops, tcf.Ops)
	}
}

func TestS4ePrefix(t *testing.T) {
	rows, err := S4e(64)
	if err != nil {
		t.Fatal(err)
	}
	tcf, thr := rows[0], rows[1]
	if tcf.Steps >= thr.Steps {
		t.Fatalf("thick prefix (%d steps) should undercut looped prefix (%d)", tcf.Steps, thr.Steps)
	}
}

func TestS4fDependentLoop(t *testing.T) {
	rows, err := S4f(16)
	if err != nil {
		t.Fatal(err)
	}
	var tcf, forkSI, forkMI S4Row
	for _, r := range rows {
		switch {
		case r.Style == "tcf":
			tcf = r
		case r.Style == "fork" && r.Variant == variant.SingleInstruction:
			forkSI = r
		case r.Style == "fork" && r.Variant == variant.MultiInstruction:
			forkMI = r
		}
	}
	// On the same lockstep machine, the fork rounds pay split/join
	// overhead every round: more cycles and more steps.
	if forkSI.Cycles <= tcf.Cycles || forkSI.Steps <= tcf.Steps {
		t.Fatalf("fork rounds (%d cycles, %d steps) should cost more than plain TCF (%d cycles, %d steps)",
			forkSI.Cycles, forkSI.Steps, tcf.Cycles, tcf.Steps)
	}
	// The genuine XMT engine pays per-thread instruction delivery: its
	// fetch count dwarfs the fetch-once TCF execution.
	if forkMI.Instrs <= 4*tcf.Instrs {
		t.Fatalf("XMT fork fetches (%d) should dwarf TCF fetches (%d)", forkMI.Instrs, tcf.Instrs)
	}
}

func TestS4gMultitaskFree(t *testing.T) {
	res, err := S4g(48)
	if err != nil {
		t.Fatal(err)
	}
	if res.TCFSwitches == 0 {
		t.Fatal("no switches")
	}
	if res.TCFSwitchCycles != 0 {
		t.Fatalf("TCF switching cost %d, want 0", res.TCFSwitchCycles)
	}
	if res.ThreadSwitchCycles != res.TCFSwitches*int64(Tp) {
		t.Fatal("thread model mismatch")
	}
}

func TestS4hHorizontalAllocation(t *testing.T) {
	res, err := S4h(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 1.5 {
		t.Fatalf("horizontal allocation speedup %.2f too small", res.Speedup)
	}
}

// ---- Section 3.3: automatic splitting of overly thick flows ----

func TestAutoSplitSweep(t *testing.T) {
	rows, err := AutoSplit()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Threshold != 0 || rows[0].Fragments != 0 || rows[0].Planned != 0 || rows[0].Rejoins != 0 {
		t.Fatalf("baseline row wrong: %+v", rows[0])
	}
	base := rows[0]
	for _, r := range rows[1:] {
		if r.Fragments == 0 {
			t.Fatalf("threshold %d produced no fragments", r.Threshold)
		}
		// The frontend splitter is the single source of truth: the run must
		// create exactly the planned fragments (ceil(256/threshold)) and
		// every fragment must rejoin its container.
		if want := (256 + r.Threshold - 1) / r.Threshold; r.Planned != want {
			t.Fatalf("threshold %d planned %d fragments, want %d", r.Threshold, r.Planned, want)
		}
		if r.Fragments != int64(r.Planned) {
			t.Fatalf("threshold %d created %d fragments, splitter planned %d", r.Threshold, r.Fragments, r.Planned)
		}
		if r.Rejoins != r.Fragments {
			t.Fatalf("threshold %d rejoined %d of %d fragments", r.Threshold, r.Rejoins, r.Fragments)
		}
		if r.Cycles >= base.Cycles {
			t.Fatalf("threshold %d (%d cycles) should beat no splitting (%d)", r.Threshold, r.Cycles, base.Cycles)
		}
		// 256/threshold fragments occupy min(fragments, P) groups.
		wantBusy := int(r.Fragments)
		if wantBusy > 4 {
			wantBusy = 4
		}
		if r.GroupsBusy < wantBusy {
			t.Fatalf("threshold %d should occupy %d groups: %+v", r.Threshold, wantBusy, r)
		}
		if r.Utilization <= base.Utilization {
			t.Fatalf("threshold %d utilization %.2f should beat %.2f", r.Threshold, r.Utilization, base.Utilization)
		}
	}
	if FormatAutoSplit(rows) == "" {
		t.Fatal("empty format")
	}
}

// Cross-validation: the machine's per-step cost agrees with the slice-level
// pipeline model on a single-group, single-flow straight-line workload —
// exactly for compute steps, and to the one cycle the step law documents
// (pipeline.StepCost) for a step that references shared memory.
func TestMachineStepCostMatchesPipelineModel(t *testing.T) {
	const thickness, instrs = 24, 5
	b := isa.NewBuilder("crossval")
	b.Label("main")
	b.SetThickImm(thickness)
	for i := 0; i < instrs; i++ {
		b.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	}
	b.Id(isa.TID, isa.V(0))
	b.Ld(isa.V(2), isa.V(0), 100)
	b.Halt()
	cfg := machine.Default(variant.SingleInstruction)
	cfg.Groups = 1
	cfg.Topology = nil
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Each compute step executes one thickness-wide instruction; the
	// pipeline model prices it at thickness + depth.
	pcfg := pipeline.Config{Depth: cfg.PipelineDepth, MemLatency: cfg.MemLatencyBase}
	compute, err := pipeline.Schedule(pcfg, []pipeline.Instr{{Thickness: thickness}})
	if err != nil {
		t.Fatal(err)
	}
	// The load step's last slice is a reference to the one module, at
	// distance zero: the schedule holds the step MemLatency-1 cycles past
	// it, the machine MemLatency (the default latency exceeds the depth).
	load, err := pipeline.Schedule(pcfg, []pipeline.Instr{{Thickness: thickness, MemRef: true}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MemLatencyBase <= cfg.PipelineDepth {
		t.Fatalf("default latency %d is hidden by the depth %d; the load step proves nothing",
			cfg.MemLatencyBase, cfg.PipelineDepth)
	}
	// SETTHICK and HALT are 1-op steps costing 1 + depth each; TID is one
	// more compute step.
	want := int64(instrs+1)*int64(compute.Cycles) + int64(load.Cycles+1) + 2*int64(1+cfg.PipelineDepth)
	if m.Stats().Cycles != want {
		t.Fatalf("machine cycles %d != pipeline model %d", m.Stats().Cycles, want)
	}
}

// ---- Section 3.3: intermediate-result storage options ----

func TestStorageSchemes(t *testing.T) {
	rows, err := Storage(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MemoryToMemory != 12 || r.LocalMemory != 1 {
			t.Fatalf("fixed schemes wrong: %+v", r)
		}
	}
	// Fitting thickness: cached register file near zero; overflowing
	// thickness: thrash toward memory cost.
	if rows[0].CachedRegFile >= 1 {
		t.Fatalf("fitting cache cost %.2f", rows[0].CachedRegFile)
	}
	last := rows[len(rows)-1]
	if last.CachedRegFile <= rows[0].CachedRegFile {
		t.Fatalf("cache should thrash at thickness %d: %+v", last.Thickness, rows)
	}
	if last.CacheHitRate > 0.2 {
		t.Fatalf("thrashing hit rate %.2f", last.CacheHitRate)
	}
	if FormatStorage(rows) == "" {
		t.Fatal("empty format")
	}
}

// ---- headline summary matrix ----

func TestSummaryMatrix(t *testing.T) {
	cells, err := Summary(16)
	if err != nil {
		t.Fatal(err)
	}
	byKV := map[string]SummaryCell{}
	for _, c := range cells {
		byKV[c.Kernel+"/"+c.Variant.String()] = c
	}
	// Headline shapes: on every kernel, the single-instruction TCF machine
	// issues far fewer instruction fetches than the thread machine.
	for _, kernel := range []string{"vecadd", "conditional", "prefix", "deploop"} {
		tcf, ok1 := byKV[kernel+"/single-instruction"]
		thr, ok2 := byKV[kernel+"/single-operation"]
		if !ok1 || !ok2 {
			t.Fatalf("missing cells for %s", kernel)
		}
		if tcf.Fetches*2 >= thr.Fetches {
			t.Errorf("%s: TCF fetches %d should be far below thread %d", kernel, tcf.Fetches, thr.Fetches)
		}
		if tcf.Steps >= thr.Steps {
			t.Errorf("%s: TCF steps %d should undercut thread %d", kernel, tcf.Steps, thr.Steps)
		}
	}
	if FormatSummary(cells) == "" {
		t.Fatal("empty format")
	}
}

// ---- machine-size scaling ----

func TestScalingSweep(t *testing.T) {
	rows, err := Scaling(256, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Groups != 1 || rows[0].Speedup != 1 {
		t.Fatalf("baseline: %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup <= rows[i-1].Speedup {
			t.Fatalf("speedup not monotone: %+v", rows)
		}
	}
	// Parallel work divides cleanly: 4 groups must give >= 2.5x.
	for _, r := range rows {
		if r.Groups == 4 && r.Speedup < 2.5 {
			t.Fatalf("4-group speedup %.2f too low", r.Speedup)
		}
	}
	if FormatScaling(rows) == "" {
		t.Fatal("empty format")
	}
}

// ---- Figure 5: machine organization ----

func TestFig5MachineOrganization(t *testing.T) {
	cfg := machine.Default(variant.SingleInstruction)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// P groups of Tp TCF processors.
	if cfg.Groups != P || cfg.ProcsPerGroup != Tp || cfg.TotalProcessors() != P*Tp {
		t.Fatalf("shape: %d x %d", cfg.Groups, cfg.ProcsPerGroup)
	}
	// Shared memory is partitioned into P modules; every address maps to
	// exactly one.
	if m.Shared().Modules() != P {
		t.Fatalf("modules = %d", m.Shared().Modules())
	}
	for addr := int64(0); addr < 64; addr++ {
		mod := m.Shared().ModuleOf(addr)
		if mod < 0 || mod >= P {
			t.Fatalf("module of %d = %d", addr, mod)
		}
	}
	// Each group owns a local memory block.
	for g := 0; g < P; g++ {
		if m.LocalMem(g) == nil || m.LocalMem(g).Group() != g {
			t.Fatalf("group %d local memory wrong", g)
		}
	}
	// The distance metric covers every (group, module) pair, is zero on
	// the diagonal and symmetric.
	topo := m.Config().Topology
	if topo.Size() != P {
		t.Fatalf("topology size %d", topo.Size())
	}
	for g := 0; g < P; g++ {
		if topo.Distance(g, g) != 0 {
			t.Fatal("self distance")
		}
		for mm := 0; mm < P; mm++ {
			if topo.Distance(g, mm) != topo.Distance(mm, g) {
				t.Fatal("asymmetric distance")
			}
		}
	}
}
