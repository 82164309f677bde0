// Package tcfpram is a software realization of the extended PRAM-NUMA model
// of computation for Thick Control Flow (TCF) programming (Forsell &
// Leppänen, 2012).
//
// The package bundles a complete stack:
//
//   - a TCF machine (P processor groups × Tp TCF processor slots, shared
//     memory with PRAM step semantics, per-group local memories, a
//     distance-aware latency model, multioperations and ordered
//     multiprefixes);
//   - the six execution variants of the model (single-instruction,
//     balanced, multi-instruction/XMT, single-operation/ESM, configurable
//     single-operation/PRAM-NUMA, fixed-thickness/SIMD);
//   - a TCF assembler and the tcf-e language (thickness statements #N;,
//     NUMA statements #1/T;, thick variables, parallel statements,
//     flow-level functions, multiprefix intrinsics);
//   - execution tracing that reproduces the paper's schedule figures.
//
// Quick start:
//
//	m, _ := tcfpram.NewMachine(tcfpram.DefaultConfig(tcfpram.SingleInstruction))
//	_ = m.LoadSource("add", `
//	    shared int a[8] @ 100 = {1,2,3,4,5,6,7,8};
//	    shared int c[8] @ 300;
//	    func main() { #8; c[tid] = a[tid] * 10; }
//	`)
//	stats, _ := m.Run()
//	fmt.Println(m.Words(300, 8), stats.Cycles)
package tcfpram

import (
	"context"
	"fmt"
	"io"
	"strings"

	"tcfpram/internal/analysis"
	"tcfpram/internal/checkpoint"
	"tcfpram/internal/codegen"
	"tcfpram/internal/diag"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/trace"
	"tcfpram/internal/variant"
)

// Variant selects one of the six execution models of Section 3.2.
type Variant = variant.Kind

// The execution variants (Table 1 column order).
const (
	// SingleInstruction is the full TCF-aware extended PRAM-NUMA model.
	SingleInstruction = variant.SingleInstruction
	// Balanced bounds the operations per step, splitting thick
	// instructions across steps.
	Balanced = variant.Balanced
	// MultiInstruction is the XMT-style model: multiple instructions per
	// step, no lockstep between flows.
	MultiInstruction = variant.MultiInstruction
	// SingleOperation is the classic interleaved ESM (SB-PRAM, ECLIPSE).
	SingleOperation = variant.SingleOperation
	// ConfigurableSingleOperation is the original PRAM-NUMA model
	// (TOTAL ECLIPSE).
	ConfigurableSingleOperation = variant.ConfigurableSingleOperation
	// FixedThickness is the vector/SIMD reduction of the model.
	FixedThickness = variant.FixedThickness
)

// Variants lists all execution variants.
func Variants() []Variant { return variant.Kinds() }

// Policy is the execution discipline of a variant: its step shape (window,
// budget, fetch discipline), boot population, and the Table 1
// task-switch/flow-branch cost rates the staged engine charges.
type Policy = variant.Policy

// StepShape describes how a policy shapes one machine step.
type StepShape = variant.StepShape

// MachineShape is the configuration slice a policy consults.
type MachineShape = variant.MachineShape

// PolicyFor resolves the execution policy of a variant.
func PolicyFor(v Variant) (Policy, error) { return variant.PolicyFor(v) }

// Stage identifies one stage of the Figure 13 execution pipeline
// (frontend, operation generation, memory resolution, commit).
type Stage = machine.Stage

// The pipeline stages, in execution order.
const (
	StageFrontend = machine.StageFrontend
	StageOpGen    = machine.StageOpGen
	StageMemory   = machine.StageMemory
	StageCommit   = machine.StageCommit
)

// StageStats is the per-stage cost attribution (see Stats.Stages for the
// cumulative per-run view and StepRecord.Stages for each step's share).
type StageStats = machine.StageStats

// ParseVariant resolves a variant name ("tcf", "xmt", "esm", "pram-numa",
// "simd", "balanced", or the full names).
func ParseVariant(s string) (Variant, error) { return variant.ParseKind(s) }

// Config describes a machine instance; see DefaultConfig for a ready-made
// one.
type Config = machine.Config

// Backend is the type of Config.Backend, which nothing reads: the machine has
// one engine, and both values build it.
//
// Deprecated: kept only for the benchmark module, which still assigns it
// (ROADMAP item 1).
type Backend = machine.Backend

const (
	// Deprecated: see Backend.
	BackendInterp = machine.BackendInterp
	// Deprecated: see Backend.
	BackendFused = machine.BackendFused
)

// Sched is the type of Config.Sched, which nothing reads: the machine has
// one step loop, and both values run it.
//
// Deprecated: kept only for the benchmark module, which still assigns it
// (ROADMAP item 1).
type Sched = machine.Sched

const (
	// Deprecated: see Sched.
	SchedLockstep = machine.SchedLockstep
	// Deprecated: see Sched.
	SchedDataflow = machine.SchedDataflow
)

// The error taxonomy of Run/RunContext. Abnormal stops wrap exactly one of
// these; dispatch with errors.Is.
var (
	ErrDeadlock            = machine.ErrDeadlock
	ErrMaxSteps            = machine.ErrMaxSteps
	ErrCanceled            = machine.ErrCanceled
	ErrDisciplineViolation = machine.ErrDisciplineViolation
	ErrThicknessLimit      = machine.ErrThicknessLimit
)

// Discipline selects the PRAM memory discipline checked by the tcfvet
// static analyzer (Vet) and the runtime cross-checker
// (Config.MemDiscipline).
type Discipline = mem.Discipline

// The memory disciplines. Off and CRCW check nothing: arbitrary concurrent
// reads and writes are the model's native semantics.
const (
	DisciplineOff  = mem.DisciplineOff
	DisciplineEREW = mem.DisciplineEREW
	DisciplineCREW = mem.DisciplineCREW
	DisciplineCRCW = mem.DisciplineCRCW
)

// ParseDiscipline resolves a discipline name ("erew", "crew", "crcw",
// "off"/"none"/"").
func ParseDiscipline(s string) (Discipline, error) { return mem.ParseDiscipline(s) }

// DisciplineViolation is the runtime cross-checker's report: the first
// same-step conflict observed, with step, address and both accesses. Runs
// stopped by it return an error unwrapping to ErrDisciplineViolation;
// recover the report with errors.As.
type DisciplineViolation = machine.DisciplineViolation

// DiscAccess is one side of a DisciplineViolation.
type DiscAccess = machine.DiscAccess

// Diagnostic is one position-carrying finding of the tcfvet static
// analyzer.
type Diagnostic = diag.Diagnostic

// VetOptions configures a Vet run.
type VetOptions struct {
	// Discipline is the memory model checked (default CREW; Off and CRCW
	// run the hygiene checks only).
	Discipline Discipline
	// Variant is the execution variant assumed for variant-sensitive
	// checks. The zero value is the single-instruction TCF variant.
	Variant Variant
}

// Vet statically analyzes tcf-e source: memory-discipline conformance
// under the selected PRAM model plus flow hygiene (unreachable code, dead
// stores, zero thickness, barriers inside parallel arms, constant
// out-of-range indices, overlapping @ placements). Parse and sema failures
// come back as a single diagnostic rather than an error.
func Vet(name, src string, opts VetOptions) []Diagnostic {
	return analysis.AnalyzeSource(name, src, analysis.Options{
		Discipline: opts.Discipline,
		Variant:    opts.Variant,
	})
}

// RenderDiagnostics formats findings one per line, in sorted order, in the
// "file:line:col: severity: message [check]" form.
func RenderDiagnostics(ds []Diagnostic) string { return diag.Render(ds) }

// DiagnosticsHaveErrors reports whether any finding has error severity.
func DiagnosticsHaveErrors(ds []Diagnostic) bool { return diag.HasErrors(ds) }

// CostReport is the cost analyzer's prediction for one program on one
// machine shape: step/cycle/traffic bounds under the extended PRAM-NUMA cost
// model, read off a fuelled run of the step engine. When Resolved is true
// every bound is exact and equals the measured Stats of a real run.
type CostReport = analysis.CostReport

// CostBound is one predicted [Min, Max] interval of a CostReport.
type CostBound = analysis.Bound

// CostParams describes the machine a cost prediction is for plus the
// analysis budgets.
type CostParams = analysis.CostParams

// CostParamsFor derives cost-prediction parameters from a machine Config,
// so a prediction and a run describe the same machine shape. Analysis
// budgets stay at their defaults.
func CostParamsFor(cfg Config) CostParams { return analysis.ParamsFor(cfg) }

// PredictCost predicts the cost of tcf-e source on the machine cfg
// describes: it compiles the source and runs it on a machine of that shape
// under the analysis budgets.
func PredictCost(name, src string, cfg Config) (*CostReport, error) {
	return analysis.CostSource(name, src, CostParamsFor(cfg))
}

// PredictCost predicts the cost of the loaded program on this machine's
// configuration. The machine must have a program loaded; the prediction
// runs on a machine of its own and never touches this one, so it may be
// called before or after a run.
func (m *Machine) PredictCost() (*CostReport, error) {
	if m.compiled == nil || m.compiled.Program == nil {
		return nil, fmt.Errorf("tcfpram: no program loaded")
	}
	return analysis.Cost(m.compiled, CostParamsFor(m.inner.Config())), nil
}

// predictionRow pairs one predicted bound with the statistic it predicts.
type predictionRow struct {
	name      string
	predicted CostBound
	measured  int64
}

// predictionRows lines rep up against st, statistic by statistic.
func predictionRows(rep *CostReport, st *Stats) []predictionRow {
	return []predictionRow{
		{"steps", rep.Steps, st.Steps},
		{"cycles", rep.Cycles, st.Cycles},
		{"ops", rep.Ops, st.Ops},
		{"scalar-ops", rep.ScalarOps, st.ScalarOps},
		{"instr-fetches", rep.InstrFetches, st.InstrFetches},
		{"shared-reads", rep.SharedReads, st.SharedReads},
		{"shared-writes", rep.SharedWrites, st.SharedWrites},
		{"local-reads", rep.LocalReads, st.LocalReads},
		{"local-writes", rep.LocalWrites, st.LocalWrites},
		{"multiop-refs", rep.MultiopRefs, st.MultiopRefs},
		{"overhead-cycles", rep.OverheadCycles, st.OverheadCycles},
		{"stall-cycles", rep.StallCycles, st.StallCycles},
		{"flow-branch-cycles", rep.FlowBranchCycles, st.FlowBranchCycles},
		{"task-switch-cycles", rep.TaskSwitchCycles, st.TaskSwitchCycles},
		{"barriers", rep.Barriers, st.Barriers},
		{"splits", rep.Splits, st.Splits},
		{"joins", rep.Joins, st.Joins},
		{"flows-created", rep.FlowsCreated, st.FlowsCreated},
		{"max-live-flows", rep.MaxLiveFlows, int64(st.MaxLiveFlows)},
	}
}

// PredictionTable renders a predicted-vs-measured comparison, one row per
// statistic: the predicted bound, the measured value, and — for exact
// predictions — the signed relative error. st may be nil (prediction only,
// e.g. when the run aborted before producing stats).
func PredictionTable(rep *CostReport, st *Stats) string {
	if rep == nil {
		return ""
	}
	if st == nil {
		return rep.Render()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "prediction for %s (%s)", rep.Program, rep.Variant)
	if !rep.Resolved {
		fmt.Fprintf(&b, " — lower bounds only: %s", rep.Reason)
	}
	if rep.Note != "" {
		fmt.Fprintf(&b, " — %s", rep.Note)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  %-20s %12s %12s %10s\n", "stat", "predicted", "measured", "error")
	for _, r := range predictionRows(rep, st) {
		errCol := "-"
		switch {
		case r.predicted.Exact():
			d := r.predicted.Min - r.measured
			switch {
			case d == 0:
				errCol = "0%"
			case r.measured == 0:
				errCol = "inf"
			default:
				errCol = fmt.Sprintf("%+.1f%%", 100*float64(d)/float64(r.measured))
			}
		case r.predicted.Min > r.measured:
			// A sound lower bound can never exceed the measurement.
			errCol = "BOUND VIOLATED"
		}
		fmt.Fprintf(&b, "  %-20s %12s %12d %10s\n", r.name, r.predicted, r.measured, errCol)
	}
	return b.String()
}

// Stats are the measured execution statistics.
type Stats = machine.Stats

// Output is one print record.
type Output = machine.Output

// DefaultConfig returns the small reference configuration for a variant
// (P=4 groups of Tp=4 TCF processors; 1 group for FixedThickness).
func DefaultConfig(v Variant) Config { return machine.Default(v) }

// Machine is a ready-to-run TCF machine with a loaded program.
type Machine struct {
	inner    *machine.Machine
	compiled *codegen.Compiled
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) (*Machine, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{inner: m}, nil
}

// LoadSource compiles tcf-e source and loads it (including initialized
// shared and local data).
func (m *Machine) LoadSource(name, src string) error {
	c, err := codegen.CompileSource(name, src)
	if err != nil {
		return err
	}
	if err := m.inner.LoadProgram(c.Program); err != nil {
		return err
	}
	for _, seg := range c.LocalData {
		for g := 0; g < m.inner.Config().Groups; g++ {
			if err := m.inner.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				return err
			}
		}
	}
	m.compiled = c
	return nil
}

// LoadAssembly assembles TCF assembler source and loads it.
func (m *Machine) LoadAssembly(name, src string) error {
	p, err := isa.Assemble(name, src)
	if err != nil {
		return err
	}
	if err := m.inner.LoadProgram(p); err != nil {
		return err
	}
	// Assembly carries no local-data segments, so the bare program is a
	// complete unit for cost prediction too.
	m.compiled = &codegen.Compiled{Program: p}
	return nil
}

// LoadBinary loads a TCFB object (produced by cmd/tcfas or isa.Encode).
func (m *Machine) LoadBinary(data []byte) error {
	p, err := m.inner.LoadBinary(data)
	if err != nil {
		return err
	}
	m.compiled = &codegen.Compiled{Program: p}
	return nil
}

// Reset returns the machine to its just-built state while keeping its
// internal arenas, so it can be reused for another program: the next
// LoadSource/Run is bit-identical to the same run on a fresh machine with
// the same Config. Previously returned Stats, Outputs and traces are
// invalidated.
func (m *Machine) Reset() {
	m.inner.Reset()
	m.compiled = nil
}

// SetLimits adjusts the per-run governance bounds (MaxSteps, MaxThickness)
// of an un-booted or freshly Reset machine — the quota hook of pooled,
// multi-tenant execution. maxSteps <= 0 selects the default bound;
// maxThickness 0 disables the thickness quota.
func (m *Machine) SetLimits(maxSteps int64, maxThickness int) error {
	return m.inner.SetLimits(maxSteps, maxThickness)
}

// CheckpointSink receives periodic machine snapshots from a run that
// SetCheckpointing wired.
type CheckpointSink = machine.CheckpointSink

// FileCheckpointSink is a CheckpointSink writing each snapshot atomically
// (temp file + fsync + rename) to a fixed path; the file always holds the
// latest complete checkpoint. Zero value is not usable — set Path.
type FileCheckpointSink = checkpoint.FileSink

// Snapshot serializes the complete machine state — program, memories, flows,
// storage buffers, statistics and accumulated output — as a versioned,
// checksummed binary stream. Snapshots are only well-defined at step
// boundaries (between Step calls, or after Run returns); a machine stopped
// by a runtime error refuses to snapshot.
func (m *Machine) Snapshot(w io.Writer) error { return m.inner.Snapshot(w) }

// SetCheckpointing wires periodic checkpointing at a step boundary — before
// Boot, or on a booted or restored machine: every `every` steps the sink
// receives a complete snapshot. every=0 (or a nil sink) disables, and so
// does Reset. Checkpointing never changes results.
func (m *Machine) SetCheckpointing(every int64, sink CheckpointSink) error {
	return m.inner.SetCheckpointing(every, sink)
}

// RestoreMachine rebuilds a machine from a Snapshot stream and the same
// behavior-relevant Config the snapshot was taken with (mismatches are
// rejected with an error naming the field). The program is embedded in the
// snapshot, so the restored machine is immediately runnable — Run continues
// from the checkpointed step and is bit-identical to the uninterrupted run.
// Source-level symbol lookups (Array, Global) are unavailable on a restored
// machine; raw Words access works as usual.
func RestoreMachine(r io.Reader, cfg Config) (*Machine, error) {
	inner, err := machine.Restore(r, cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{inner: inner}, nil
}

// Run executes the program to completion and returns the statistics.
func (m *Machine) Run() (*Stats, error) { return m.inner.Run() }

// RunContext is Run with cooperative cancellation: the context is checked
// between machine steps, and a canceled run stops promptly with an error
// wrapping ErrCanceled.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) { return m.inner.RunContext(ctx) }

// Step advances one synchronous machine step (Boot is implicit on first
// use via Run; call Boot explicitly when stepping manually).
func (m *Machine) Step() error { return m.inner.Step() }

// Boot creates the initial flow population for the variant.
func (m *Machine) Boot() error { return m.inner.Boot() }

// Done reports whether every flow has terminated.
func (m *Machine) Done() bool { return m.inner.Done() }

// Stats returns the statistics accumulated so far.
func (m *Machine) Stats() *Stats { return m.inner.Stats() }

// Outputs returns the print records in deterministic order.
func (m *Machine) Outputs() []Output { return m.inner.Outputs() }

// PrintedValues flattens all PRINT outputs into one slice.
func (m *Machine) PrintedValues() []int64 {
	var out []int64
	for _, o := range m.inner.Outputs() {
		out = append(out, o.Values...)
	}
	return out
}

// Words reads n shared-memory words starting at addr.
func (m *Machine) Words(addr int64, n int) []int64 { return m.inner.Shared().Snapshot(addr, n) }

// Word reads one shared-memory word.
func (m *Machine) Word(addr int64) int64 { return m.inner.Shared().Peek(addr) }

// SetWords preloads shared memory (workload inputs).
func (m *Machine) SetWords(addr int64, words []int64) error {
	return m.inner.Shared().Load(addr, words)
}

// Array reads a named global array of the loaded tcf-e program.
func (m *Machine) Array(name string) ([]int64, error) {
	sym, err := m.symbol(name)
	if err != nil {
		return nil, err
	}
	if sym.ArrayLen < 0 {
		return nil, fmt.Errorf("tcfpram: %s is not an array", name)
	}
	return m.Words(sym.Addr, sym.ArrayLen), nil
}

// Global reads a named global scalar of the loaded tcf-e program.
func (m *Machine) Global(name string) (int64, error) {
	sym, err := m.symbol(name)
	if err != nil {
		return 0, err
	}
	if sym.ArrayLen >= 0 {
		return 0, fmt.Errorf("tcfpram: %s is an array; use Array", name)
	}
	return m.Word(sym.Addr), nil
}

func (m *Machine) symbol(name string) (sym symInfo, err error) {
	if m.compiled == nil {
		return sym, fmt.Errorf("tcfpram: no tcf-e program loaded")
	}
	for _, d := range m.compiled.Info.Prog.Globals {
		if d.Name == name {
			s := m.compiled.Info.SymOf(d)
			return symInfo{Addr: s.Addr, ArrayLen: s.ArrayLen}, nil
		}
	}
	return sym, fmt.Errorf("tcfpram: no global named %s", name)
}

type symInfo struct {
	Addr     int64
	ArrayLen int
}

// HostCounters renders the simulator's host-side counters, not simulated
// statistics, one line each: the routes the step commit's stores took, the
// combiners' references and accumulators, how operation slices were
// generated and register banks found, and what the stages behind operation
// generation had to do. `tcfrun -stages` prints them under the stage table.
func (m *Machine) HostCounters() string {
	return fmt.Sprintf("%s\n%s\n%s\n%s", m.inner.CommitStats(), m.inner.CombineStats(), m.inner.KernelStats(), m.inner.TailStats())
}

// StageTable renders the cumulative Figure 13 per-stage cost attribution of
// the run so far (always available; no tracing required).
func (m *Machine) StageTable() string { return trace.StageTable(m.inner.Stats()) }

// Timeline renders the step/slice schedule (requires Config.TraceEnabled).
func (m *Machine) Timeline() string { return trace.Timeline(m.inner) }

// Gantt renders the per-group occupancy schedule (requires
// Config.TraceEnabled).
func (m *Machine) Gantt() string { return trace.Gantt(m.inner) }

// TraceCSV exports the execution trace as CSV (requires
// Config.TraceEnabled).
func (m *Machine) TraceCSV() string { return trace.CSV(m.inner) }

// TraceSVG renders the schedule as an SVG document in the style of the
// paper's execution figures (requires Config.TraceEnabled).
func (m *Machine) TraceSVG() string { return trace.SVG(m.inner) }

// Disassembly renders the loaded program.
func (m *Machine) Disassembly() string {
	if p := m.inner.Program(); p != nil {
		return p.Listing()
	}
	return ""
}

// RunSource compiles and runs tcf-e source on a fresh machine with cfg,
// returning the machine for inspection.
func RunSource(cfg Config, name, src string) (*Machine, *Stats, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.LoadSource(name, src); err != nil {
		return nil, nil, err
	}
	stats, err := m.Run()
	if err != nil {
		return m, stats, err
	}
	return m, stats, nil
}

// RunAssembly assembles and runs TCF assembler source on a fresh machine.
func RunAssembly(cfg Config, name, src string) (*Machine, *Stats, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.LoadAssembly(name, src); err != nil {
		return nil, nil, err
	}
	stats, err := m.Run()
	if err != nil {
		return m, stats, err
	}
	return m, stats, nil
}

// EncodeProgram serializes the currently loaded program to the TCFB object
// format (the inverse of LoadBinary).
func (m *Machine) EncodeProgram() ([]byte, error) {
	p := m.inner.Program()
	if p == nil {
		return nil, fmt.Errorf("tcfpram: no program loaded")
	}
	return isa.Encode(p), nil
}
