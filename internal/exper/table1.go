package exper

import (
	"fmt"

	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// Table1Row is one measured column of the paper's Table 1 for a machine with
// P groups of Tp processors, R scalar registers and balanced bound b. The
// qualitative rows are the variant's Props.
type Table1Row struct {
	Variant variant.Kind
	NumTCFs int // TCF storage slots: P*Tp

	// RegsPerThread is the measured register words held per implicit
	// thread at thickness u (paper: R/u + m for TCF variants, R for
	// thread variants).
	RegsPerThread float64

	// FetchesPerTCF is the measured machine-wide instruction fetches per
	// thick instruction of thickness u (paper: 1, u/b, or one per
	// thread).
	FetchesPerTCF float64

	// TaskSwitchCost is cycles per task switch. Measured for variants
	// whose task model is exercised by the multitask workload (TCF
	// variants); otherwise the rate the engine charges,
	// Policy.TaskSwitchCycles.
	TaskSwitchCost     float64
	TaskSwitchMeasured bool

	// FlowBranchCost is cycles per flow branch (split child). Measured
	// for control-parallel variants; Policy.FlowBranchCycles otherwise.
	FlowBranchCost     float64
	FlowBranchMeasured bool
}

// fetchProgram builds a straight-line program of k thick instructions at
// thickness u for the TCF variants, or the equivalent per-thread scalar
// program for the fixed-thread variants.
func fetchProgram(kind variant.Kind, k, u int) (*isa.Program, int) {
	b := isa.NewBuilder("fetches")
	b.Label("main")
	prologue := 0
	if kind.Props().FixedThreads {
		for i := 0; i < k; i++ {
			b.ALUI(isa.ADD, isa.S(1), isa.S(1), 1)
		}
		b.Halt()
		return b.MustBuild(), prologue
	}
	if kind.Props().VariableThickness {
		b.SetThickImm(int64(u))
		prologue = 1
	}
	for i := 0; i < k; i++ {
		b.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	}
	b.Halt()
	return b.MustBuild(), prologue
}

// measureFetchesAndRegs runs the straight-line workload and returns the
// machine-wide fetches per thick instruction and the register words per
// implicit thread.
func measureFetchesAndRegs(kind variant.Kind, k, u int) (fetches, regsPerThread float64, err error) {
	prog, prologue := fetchProgram(kind, k, u)
	cfg := machine.Default(kind)
	if kind == variant.FixedThickness {
		cfg.ProcsPerGroup = u
		cfg.VectorWidth = u
	}
	m, err := machine.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if err := m.LoadProgram(prog); err != nil {
		return 0, 0, err
	}
	if _, err := m.Run(); err != nil {
		return 0, 0, err
	}
	var totalFetches, nonCompute int64
	var regWords int64
	var threads int64
	for _, f := range m.Flows() {
		totalFetches += f.InstrFetches
		regWords += f.RegWordsPeak
	}
	if kind.Props().FixedThreads {
		// Every thread fetches its own HALT.
		nonCompute = int64(len(m.Flows()))
		threads = int64(len(m.Flows()))
	} else {
		nonCompute = int64(prologue) + 1 // SETTHICK + HALT of the single flow
		threads = int64(u)
	}
	fetches = float64(totalFetches-nonCompute) / float64(k)
	regsPerThread = float64(regWords) / float64(threads)
	return fetches, regsPerThread, nil
}

// measureTaskSwitch oversubscribes the TCF slots with independent tasks and
// returns the measured cycles per task switch.
func measureTaskSwitch(kind variant.Kind) (float64, error) {
	m, err := runWorkload(kind, workload.Multitask(3*P*Tp, 4), nil)
	if err != nil {
		return 0, err
	}
	s := m.Stats()
	if s.TaskSwitches == 0 {
		return 0, fmt.Errorf("multitask workload produced no task switches on %v", kind)
	}
	return float64(s.TaskSwitchCycles) / float64(s.TaskSwitches), nil
}

// measureFlowBranch splits a flow and returns the measured cycles per
// created child.
func measureFlowBranch(kind variant.Kind) (float64, error) {
	m, err := runWorkload(kind, workload.ConditionalHalves(styleFor(kind), 8), nil)
	if err != nil {
		return 0, err
	}
	s := m.Stats()
	children := int64(0)
	for _, f := range m.Flows() {
		if f.Parent != nil {
			children++
		}
	}
	if children == 0 {
		return 0, fmt.Errorf("no splits on %v", kind)
	}
	return float64(s.FlowBranchCycles) / float64(children), nil
}

func styleFor(kind variant.Kind) workload.Style {
	switch kind {
	case variant.MultiInstruction:
		return workload.StyleFork
	default:
		return workload.StyleTCF
	}
}

// Table1 measures the cost/property table for thickness u and k straight-
// line instructions.
func Table1(k, u int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, kind := range variant.Kinds() {
		row := Table1Row{Variant: kind, NumTCFs: P * Tp}
		if kind == variant.FixedThickness {
			row.NumTCFs = 1 // one fixed-width flow on the single processor
		}
		f, r, err := measureFetchesAndRegs(kind, k, u)
		if err != nil {
			return nil, err
		}
		row.FetchesPerTCF, row.RegsPerThread = f, r
		if kind.Props().ControlParallel {
			// TCF task model: measure.
			ts, err := measureTaskSwitch(kind)
			if err != nil {
				return nil, err
			}
			row.TaskSwitchCost, row.TaskSwitchMeasured = ts, true
			fb, err := measureFlowBranch(kind)
			if err != nil {
				return nil, err
			}
			row.FlowBranchCost, row.FlowBranchMeasured = fb, true
		} else {
			pol, err := variant.PolicyFor(kind)
			if err != nil {
				return nil, err
			}
			row.TaskSwitchCost = float64(pol.TaskSwitchCycles(Tp))
			row.FlowBranchCost = float64(pol.FlowBranchCycles(R))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders measured Table 1.
func FormatTable1(rows []Table1Row, u int) string {
	t := &table{header: []string{"property", "single-instr", "balanced", "multi-instr", "single-op", "conf-single-op", "fixed-thick"}}
	cell := func(f func(Table1Row) string) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, f(r))
		}
		return out
	}
	addRow := func(name string, f func(Table1Row) string) {
		t.add(append([]string{name}, cell(f)...)...)
	}
	addRow("number of TCFs", func(r Table1Row) string { return itoa(int64(r.NumTCFs)) })
	addRow("number of threads", func(r Table1Row) string {
		if r.Variant.Props().UnboundedThreads {
			return "u (unbounded)"
		}
		return itoa(P * Tp)
	})
	addRow(fmt.Sprintf("regs/thread @u=%d", u), func(r Table1Row) string { return f2(r.RegsPerThread) })
	addRow(fmt.Sprintf("fetches/TCF @u=%d", u), func(r Table1Row) string { return f2(r.FetchesPerTCF) })
	addRow("task switch (cyc)", func(r Table1Row) string {
		s := f2(r.TaskSwitchCost)
		if !r.TaskSwitchMeasured {
			s += "*"
		}
		return s
	})
	addRow("flow branch (cyc)", func(r Table1Row) string {
		s := f2(r.FlowBranchCost)
		if !r.FlowBranchMeasured {
			s += "*"
		}
		return s
	})
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	addRow("PRAM operation", func(r Table1Row) string { return yn(r.Variant.Props().PRAMOperation) })
	addRow("NUMA operation", func(r Table1Row) string { return yn(r.Variant.Props().NUMAOperation) })
	addRow("sequential via", func(r Table1Row) string { return r.Variant.Props().SequentialVia })
	addRow("MIMD", func(r Table1Row) string { return yn(r.Variant.Props().MIMD) })
	return t.String() + "(* the rate the variant's policy charges: its task/branch model is not exercised by the TCF workloads)\n"
}
