package analysis

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/topology"
	"tcfpram/internal/variant"
)

// This file is the cost analyzer: a prediction is a fuelled run. CostOn runs
// the engine over a machine of the shape the parameters describe, loaded with
// the compiled program, until the program ends or a budget is spent, and
// reads the report off machine.Stats — so a resolved prediction is the
// statistics of a run, for every variant, and cannot disagree with the
// engine. Cost runs it on a fresh machine, the execution server on the
// machine it leased for the request. The CFG +
// thickness dataflow that tcfvet owns provides the static thickness ceiling
// that stands in whenever the fuel runs out first.

// Bound is a predicted [Min, Max] interval. Max == -1 means the analyzer
// could not bound the quantity from above; Min is always a sound lower
// bound. A resolved prediction has Min == Max.
type Bound struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

func exactBound(v int64) Bound { return Bound{Min: v, Max: v} }
func minOnly(v int64) Bound    { return Bound{Min: v, Max: -1} }

// Exact reports whether the bound pins one value.
func (b Bound) Exact() bool { return b.Max >= 0 && b.Min == b.Max }

func (b Bound) String() string {
	if b.Exact() {
		return fmt.Sprintf("%d", b.Min)
	}
	if b.Max < 0 {
		return fmt.Sprintf(">=%d", b.Min)
	}
	return fmt.Sprintf("[%d,%d]", b.Min, b.Max)
}

// CostParams describes the machine the prediction is for — each shape field
// is the machine.Config field of the same name, with the same meaning and
// the same default for a zero value — plus the three budgets of the run.
type CostParams struct {
	Variant            variant.Kind
	Groups             int
	ProcsPerGroup      int
	SharedWords        int
	LocalWords         int
	Topology           topology.Topology
	WritePolicy        mem.Policy
	PipelineDepth      int
	MemLatencyBase     int
	BalancedBound      int
	MultiInstrWindow   int
	VectorWidth        int
	TimeSliceSteps     int64
	AutoSplitThreshold int
	MaxThickness       int

	// MaxSteps bounds the steps of the run before the analyzer gives up with
	// lower bounds only (default 1<<20).
	MaxSteps int64
	// MaxConcreteLanes is the widest flow the analysis will materialise: a
	// thickness request above it stops the run unresolved, before a lane of
	// it is allocated (default 1<<16).
	MaxConcreteLanes int
	// MaxLaneWork bounds the run's operation slices plus instruction fetches
	// before the analyzer gives up with lower bounds only (default 1<<26). It
	// is checked between steps, so a run overshoots it by at most one step.
	MaxLaneWork int64
}

// ParamsFor describes cfg's machine to the analyzer, so that a prediction
// and a run are of the same machine shape. The budgets stay at their
// defaults. Of cfg's run bounds only MaxThickness is carried; its fault
// plan, discipline checker and observers are not: they are not part of what
// a program costs.
func ParamsFor(cfg machine.Config) CostParams {
	return CostParams{
		Variant:            cfg.Variant,
		Groups:             cfg.Groups,
		ProcsPerGroup:      cfg.ProcsPerGroup,
		SharedWords:        cfg.SharedWords,
		LocalWords:         cfg.LocalWords,
		Topology:           cfg.Topology,
		WritePolicy:        cfg.WritePolicy,
		PipelineDepth:      cfg.PipelineDepth,
		MemLatencyBase:     cfg.MemLatencyBase,
		BalancedBound:      cfg.BalancedBound,
		MultiInstrWindow:   cfg.MultiInstrWindow,
		VectorWidth:        cfg.VectorWidth,
		TimeSliceSteps:     cfg.TimeSliceSteps,
		AutoSplitThreshold: cfg.AutoSplitThreshold,
		MaxThickness:       cfg.MaxThickness,
	}
}

// DefaultCostParams returns parameters matching machine.Default(kind).
func DefaultCostParams(kind variant.Kind) CostParams { return ParamsFor(machine.Default(kind)) }

// withBudgets returns p with its zero budgets at their defaults.
func (p CostParams) withBudgets() CostParams {
	if p.MaxSteps <= 0 {
		p.MaxSteps = 1 << 20
	}
	if p.MaxConcreteLanes <= 0 {
		p.MaxConcreteLanes = 1 << 16
	}
	if p.MaxLaneWork <= 0 {
		p.MaxLaneWork = 1 << 26
	}
	return p
}

// laneCapped says the run's thickness cap, the tighter of the machine's own
// limit and the analysis's lane cap, is the lane cap: a refusal then is a
// budget stop, not a fault of the program on that machine.
func (p *CostParams) laneCapped() bool {
	return p.MaxThickness <= 0 || p.MaxThickness > p.MaxConcreteLanes
}

// spent is the run's stop: the step or the lane-work budget is exhausted.
func (p *CostParams) spent(m *machine.Machine) bool {
	st := m.Stats()
	return st.Steps >= p.MaxSteps || st.Ops+st.ScalarOps+st.InstrFetches > p.MaxLaneWork
}

// boot builds Cost's fresh machine — p's shape under its thickness cap,
// serial and lockstep, with no fault plan, discipline checker,
// watchdog or observer and its step quota at the step budget — loaded with
// c and booted. The execution server builds none: it runs CostOn on a lease.
func (p *CostParams) boot(c *codegen.Compiled) (*machine.Machine, error) {
	maxThickness := p.MaxThickness
	if p.laneCapped() {
		maxThickness = p.MaxConcreteLanes
	}
	m, err := machine.New(machine.Config{
		Variant:            p.Variant,
		Groups:             p.Groups,
		ProcsPerGroup:      p.ProcsPerGroup,
		SharedWords:        p.SharedWords,
		LocalWords:         p.LocalWords,
		Topology:           p.Topology,
		WritePolicy:        p.WritePolicy,
		PipelineDepth:      p.PipelineDepth,
		MemLatencyBase:     p.MemLatencyBase,
		BalancedBound:      p.BalancedBound,
		MultiInstrWindow:   p.MultiInstrWindow,
		VectorWidth:        p.VectorWidth,
		TimeSliceSteps:     p.TimeSliceSteps,
		AutoSplitThreshold: p.AutoSplitThreshold,
		MaxThickness:       maxThickness,
		MaxSteps:           p.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(c.Program); err != nil {
		return nil, err
	}
	for _, seg := range c.LocalData {
		for g := 0; g < m.Config().Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				return nil, err
			}
		}
	}
	return m, m.Boot()
}

// CostReport is the predicted cost of one program on one machine shape.
// When Resolved is true every bound is exact: the run ended, and the
// predictions are the Stats of any run of that machine.
// Otherwise Reason says which budget stopped the run and every bound is a
// sound lower bound: the statistics only grow, and the run
// got that far.
type CostReport struct {
	Program  string `json:"program"`
	Variant  string `json:"variant"`
	Resolved bool   `json:"resolved"`
	Reason   string `json:"reason,omitempty"`
	// Note is the engine's error when the run ended abnormally (deadlock, an
	// instruction the variant refuses, the machine's own thickness limit): the
	// bounds are exact up to that stop.
	Note string `json:"note,omitempty"`

	Steps            Bound `json:"steps"`
	Cycles           Bound `json:"cycles"`
	Ops              Bound `json:"ops"`
	ScalarOps        Bound `json:"scalar_ops"`
	InstrFetches     Bound `json:"instr_fetches"`
	SharedReads      Bound `json:"shared_reads"`
	SharedWrites     Bound `json:"shared_writes"`
	LocalReads       Bound `json:"local_reads"`
	LocalWrites      Bound `json:"local_writes"`
	MultiopRefs      Bound `json:"multiop_refs"`
	OverheadCycles   Bound `json:"overhead_cycles"`
	StallCycles      Bound `json:"stall_cycles"`
	FlowBranchCycles Bound `json:"flow_branch_cycles"`
	TaskSwitchCycles Bound `json:"task_switch_cycles"`
	Barriers         Bound `json:"barriers"`
	Splits           Bound `json:"splits"`
	Joins            Bound `json:"joins"`
	FlowsCreated     Bound `json:"flows_created"`
	MaxLiveFlows     Bound `json:"max_live_flows"`
	// MaxThickness is the widest thickness the program asked for, also when
	// the thickness cap refused it.
	MaxThickness Bound `json:"max_thickness"`
}

// Cost predicts the execution cost of a compiled program under params: it
// boots a fresh machine and runs CostOn over it.
func Cost(c *codegen.Compiled, params CostParams) *CostReport {
	p := params.withBudgets()
	if c == nil || c.Program == nil {
		return &CostReport{Variant: p.Variant.String(), Reason: "no compiled program"}
	}
	m, err := p.boot(c)
	if err != nil {
		return &CostReport{Program: c.Program.Name, Variant: p.Variant.String(), Reason: err.Error()}
	}
	rep, _ := CostOn(context.Background(), m, c, p)
	return rep
}

// CostOn is the prediction run: it runs m — params' shape under Cost's
// thickness cap, loaded with c, under any run bounds —
// until c ends, a budget is spent or the run fails, and returns the report
// read off m and the run's error. The report is Cost's wherever the run
// stops where Cost's would: not on ctx, a lower step quota, the watchdog or
// the discipline checker. After a budget stop RunContext continues the run.
func CostOn(ctx context.Context, m *machine.Machine, c *codegen.Compiled, params CostParams) (*CostReport, error) {
	p := params.withBudgets()
	_, err := m.RunUntil(ctx, p.spent)
	st := m.Stats()
	demand := m.KernelStats().MaxThickness
	rep := &CostReport{Program: c.Program.Name, Variant: p.Variant.String()}
	switch {
	case err == nil && m.Done():
	case err == nil && st.Steps >= p.MaxSteps:
		rep.Reason = fmt.Sprintf("step budget exhausted (%d steps)", p.MaxSteps)
	case err == nil:
		rep.Reason = fmt.Sprintf("lane-work budget exhausted (%d operation slices and fetches)", p.MaxLaneWork)
	case p.laneCapped() && errors.Is(err, machine.ErrThicknessLimit):
		rep.Reason = fmt.Sprintf("thickness %d exceeds the widest flow the analysis materialises (%d lanes)", demand, p.MaxConcreteLanes)
	default:
		rep.Note = err.Error()
	}

	rep.Resolved = rep.Reason == ""
	mk := exactBound
	if !rep.Resolved {
		mk = minOnly
	}
	rep.Steps = mk(st.Steps)
	rep.Cycles = mk(st.Cycles)
	rep.Ops = mk(st.Ops)
	rep.ScalarOps = mk(st.ScalarOps)
	rep.InstrFetches = mk(st.InstrFetches)
	rep.SharedReads = mk(st.SharedReads)
	rep.SharedWrites = mk(st.SharedWrites)
	rep.LocalReads = mk(st.LocalReads)
	rep.LocalWrites = mk(st.LocalWrites)
	rep.MultiopRefs = mk(st.MultiopRefs)
	rep.OverheadCycles = mk(st.OverheadCycles)
	rep.StallCycles = mk(st.StallCycles)
	rep.FlowBranchCycles = mk(st.FlowBranchCycles)
	rep.TaskSwitchCycles = mk(st.TaskSwitchCycles)
	rep.Barriers = mk(st.Barriers)
	rep.Splits = mk(st.Splits)
	rep.Joins = mk(st.Joins)
	rep.FlowsCreated = mk(st.FlowsCreated)
	rep.MaxLiveFlows = mk(int64(st.MaxLiveFlows))
	rep.MaxThickness = mk(demand)
	if !rep.Resolved {
		// The static thickness ceiling is a fact of the checked program,
		// independent of the machine (the vet gate recorded it), and still
		// bounds thickness where the run could not finish. A thread machine
		// boots wider flows than a program that never sets a thickness
		// mentions.
		if ceiling := thickCeiling(c); ceiling > 0 {
			rep.MaxThickness.Max = max(ceiling, demand)
		}
	}
	return rep, err
}

// CostSource compiles tcf-e source and predicts its cost.
func CostSource(name, src string, params CostParams) (*CostReport, error) {
	c, err := codegen.CompileSource(name, src)
	if err != nil {
		return nil, err
	}
	return Cost(c, params), nil
}

// Render formats a report for terminal output.
func (r *CostReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: variant=%s", r.Program, r.Variant)
	if r.Resolved {
		b.WriteString(" resolved=exact")
	} else {
		fmt.Fprintf(&b, " resolved=false (%s)", r.Reason)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, " note=%q", r.Note)
	}
	b.WriteString("\n")
	row := func(name string, v Bound) {
		fmt.Fprintf(&b, "  %-18s %s\n", name, v)
	}
	row("steps", r.Steps)
	row("cycles", r.Cycles)
	row("ops", r.Ops)
	row("scalar-ops", r.ScalarOps)
	row("fetches", r.InstrFetches)
	row("shared-reads", r.SharedReads)
	row("shared-writes", r.SharedWrites)
	row("local-reads", r.LocalReads)
	row("local-writes", r.LocalWrites)
	row("multiop-refs", r.MultiopRefs)
	row("overhead-cycles", r.OverheadCycles)
	row("stall-cycles", r.StallCycles)
	row("branch-cycles", r.FlowBranchCycles)
	row("switch-cycles", r.TaskSwitchCycles)
	row("barriers", r.Barriers)
	row("splits", r.Splits)
	row("max-thickness", r.MaxThickness)
	row("max-live-flows", r.MaxLiveFlows)
	return b.String()
}
