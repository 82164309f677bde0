package trace

import (
	"strings"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

func tracedRun(t *testing.T, kind variant.Kind, w workload.Workload, tweak func(*machine.Config)) *machine.Machine {
	t.Helper()
	cfg := machine.Default(kind)
	cfg.TraceEnabled = true
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(w.Program); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTimelineAndGanttRender(t *testing.T) {
	m := tracedRun(t, variant.SingleInstruction, workload.VectorAdd(workload.StyleTCF, 8, 16, 0), nil)
	tl := Timeline(m)
	if !strings.Contains(tl, "step") || !strings.Contains(tl, "G0") {
		t.Fatalf("timeline header missing:\n%s", tl)
	}
	if !strings.Contains(tl, "ADDx8") {
		t.Fatalf("timeline missing thick ADD:\n%s", tl)
	}
	g := Gantt(m)
	if !strings.Contains(g, "00000000") {
		t.Fatalf("gantt missing 8-lane occupancy of flow 0:\n%s", g)
	}
}

func TestNUMAMarkedInTimeline(t *testing.T) {
	src := `
main:
    NUMA 4
    LDI S0, 1
    ADD S0, S0, S0
    ADD S0, S0, S0
    ADD S0, S0, S0
    PRAM
    HALT
`
	cfg := machine.Default(variant.SingleInstruction)
	cfg.TraceEnabled = true
	m, _ := machine.New(cfg)
	m.LoadProgram(isa.MustAssemble("t", src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tl := Timeline(m); !strings.Contains(tl, "/1") {
		t.Fatalf("NUMA slices not marked:\n%s", tl)
	}
}

func TestThicknessTimeline(t *testing.T) {
	src := `
main:
    SETTHICK 4
    TID V0
    SETTHICK 8
    TID V0
    SETTHICK 2
    TID V0
    HALT
`
	cfg := machine.Default(variant.SingleInstruction)
	cfg.TraceEnabled = true
	m, _ := machine.New(cfg)
	m.LoadProgram(isa.MustAssemble("t", src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tlm := ThicknessTimeline(m, 0)
	// The TID steps must show 4, then 8, then 2 lanes, in order.
	var thick []int
	for _, l := range tlm {
		if l > 1 {
			thick = append(thick, l)
		}
	}
	want := []int{4, 8, 2}
	if len(thick) != 3 || thick[0] != want[0] || thick[1] != want[1] || thick[2] != want[2] {
		t.Fatalf("thickness timeline = %v (thick %v), want %v", tlm, thick, want)
	}
}

func TestSpans(t *testing.T) {
	m := tracedRun(t, variant.SingleInstruction, workload.ConditionalHalves(workload.StyleTCF, 12), nil)
	spans := Spans(m)
	if len(spans) != 3 { // parent + two arms
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Flow != 0 {
		t.Fatalf("spans not sorted: %v", spans)
	}
	for _, sp := range spans[1:] {
		if sp.MaxLanes != 6 {
			t.Fatalf("arm lanes = %d, want 6", sp.MaxLanes)
		}
		if sp.FirstStep <= spans[0].FirstStep {
			t.Fatalf("child started before parent: %v", spans)
		}
	}
}

func TestCSV(t *testing.T) {
	m := tracedRun(t, variant.SingleInstruction, workload.VectorAdd(workload.StyleTCF, 4, 16, 0), nil)
	csv := CSV(m)
	if !strings.HasPrefix(csv, "step,group,slot,flow,pc,op,lanes,numa\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
	if !strings.Contains(csv, ",ADD,4,false") {
		t.Fatalf("csv missing ADD row:\n%s", csv)
	}
}

// A traced run's per-step stage deltas add up to the totals Stats.Stages
// carries: the two places the engine keeps the Figure 13 attribution agree.
func TestStepStagesSumToTotals(t *testing.T) {
	for _, c := range []struct {
		kind  variant.Kind
		w     workload.Workload
		tweak func(*machine.Config)
	}{
		{variant.SingleInstruction, workload.VectorAdd(workload.StyleTCF, 64, 16, 0), nil},
		{variant.Balanced, workload.ConditionalHalves(workload.StyleTCF, 64), nil},
		{variant.MultiInstruction, workload.Allocation(64, 4, 4), nil},
		{variant.SingleOperation, workload.VectorAdd(workload.StyleThread, 64, 16, 0), nil},
		{variant.FixedThickness, workload.VectorAdd(workload.StyleSIMD, 64, 0, 8), func(c *machine.Config) {
			c.ProcsPerGroup = 8
			c.VectorWidth = 8
		}},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			m := tracedRun(t, c.kind, c.w, c.tweak)
			var sum [machine.NumStages]machine.StageStats
			for _, rec := range m.Trace() {
				for s := range rec.Stages {
					sum[s].Cycles += rec.Stages[s].Cycles
					sum[s].Events += rec.Stages[s].Events
				}
			}
			got := m.Stats().Stages
			if sum != got {
				t.Fatalf("trace sums to %v, Stats.Stages = %v", sum, got)
			}
			if got[machine.StageOpGen].Cycles == 0 {
				t.Fatal("no operation-generation cycles attributed")
			}
		})
	}
}

func TestGroupOccupancySpreads(t *testing.T) {
	m := tracedRun(t, variant.SingleInstruction, workload.Allocation(64, 4, 4), nil)
	occ := m.Stats().PerGroupOps
	busy := 0
	for _, o := range occ {
		if o > 16 {
			busy++
		}
	}
	if busy < 4 {
		t.Fatalf("horizontal allocation should occupy all 4 groups: %v", occ)
	}
}

func TestBalancedGanttBounded(t *testing.T) {
	m := tracedRun(t, variant.Balanced, workload.VectorAdd(workload.StyleTCF, 12, 16, 0),
		func(c *machine.Config) { c.BalancedBound = 4 })
	// No step row of group 0 may show more than 4 slice characters for
	// elementwise ops; the Gantt makes that visible as short rows.
	for _, rec := range m.Trace() {
		lanes := 0
		for _, s := range rec.Slices {
			if s.Group == 0 && !s.Op.Info().Control && !s.Op.IsReduction() {
				lanes += s.Lanes
			}
		}
		if lanes > 4 {
			t.Fatalf("step %d executed %d lanes > bound", rec.Step, lanes)
		}
	}
}

func TestSVGRendering(t *testing.T) {
	m := tracedRun(t, variant.SingleInstruction, workload.ConditionalHalves(workload.StyleTCF, 12), nil)
	svg := SVG(m)
	if !strings.HasPrefix(svg, "<svg xmlns=") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("not an svg document:\n%.200s", svg)
	}
	// Both arms and the parent must appear as colored rectangles with
	// descriptive titles.
	for _, want := range []string{"flow 0", "flow 1", "flow 2", "x6", "<rect", "<title>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Distinct flows get distinct colors.
	if flowColor(0) == flowColor(1) {
		t.Fatal("flow colors collide")
	}
}
