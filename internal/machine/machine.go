package machine

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// Group is one physical pipeline: Tp TCF processor slots sharing a local
// memory block. Buf is the group's TCF storage buffer (Figure 13), owned by
// the frontend.
type Group struct {
	Index int
	Local *mem.Local
	Buf   StorageBuf
}

// Machine is one extended PRAM-NUMA machine instance, organized as the
// staged pipeline of Figure 13: the frontend owns the TCF storage buffers
// (residency, task rotation, balanced splitting of overly thick flows), the
// backend owns operation generation, memory resolution and commit, and each
// step hands a StepPlan from the one to the other.
type Machine struct {
	cfg    Config
	policy variant.Policy
	props  variant.Properties // the variant's, fetched once at New
	// plan is the plan of the lockstep step under way: the policy's step
	// shape and the variant's Lockstep, fixed at New, and the step index
	// prepare stamps. The groups' arenas refer to it; a struct of this size
	// handed down by value was an eighth of a thin step.
	plan StepPlan
	prog *isa.Program
	// code is the loaded program's per-PC table, compiled at
	// LoadProgram/Restore into the array the machine keeps across loads
	// (Reset truncates it), and the only form in which the step engine reads
	// instructions.
	code []fuse.Instr
	// reference marks a NewReference machine: its table carries no kernels
	// and execLaneRange never calls bulkMemRange, so every lane runs on the
	// per-lane path.
	reference bool

	shared *mem.Shared
	groups []*Group

	// flowList holds every flow ever created, indexed by id (ids are dense
	// creation order). Nothing on the per-step path walks it: live counts the
	// flows not yet Done — up in newFlow, down where foldGroup folds a group's
	// terminations and where retireEvents completes an auto-split container —
	// and the groups' storage buffers hold exactly those flows.
	flowList []*tcf.Flow
	live     int
	// slab is the unused rest of the chunk flows are handed out from, so a
	// program of many flows allocates per chunk, not per flow: a chunk is 4 to
	// 16 flows (4.6 KB), or as many as whoever draws the next flow is about to
	// draw — the arms of a split come as one block. chunks are the first
	// chunks the machine drew, keptFlows flows between them and never more
	// than maxKeptFlows: they survive Reset, and the next run draws them again,
	// oldest first (nextChunk), before it allocates. Their flows hold what the
	// last run left in them — links to a parent among them, to a table and a
	// call stack in the first chunks of the register arena — until they are
	// drawn again: slabStale says the slab is such a chunk, whose flows are
	// zeroed as they are handed out; the allocator zeroed the others.
	// reusable is what keptFlows was at the last Reset.
	slab      []tcf.Flow
	slabStale bool
	chunks    [][]tcf.Flow
	nextChunk int
	keptFlows int
	reusable  int
	// regs is the register arena the flows' header tables, vector banks and
	// call stacks come from and, at Reset, go back to. It survives Reset like
	// every other arena, holds at most SharedWords words, and is no part of a
	// snapshot.
	regs *tcf.RegArena

	combiners [len(multiop.Kinds)]*multiop.Combiner

	// Step-engine state, allocated once and reused every step (exec.go):
	// per-group execution arenas, the flattened group×module distance
	// table, and the merge scratch slices.
	execs       []*groupExec
	nmods       int
	dist        []int
	stepOutputs []Output
	stepEvents  []deferredEvent
	discAccs    []discAcc // step's recorded accesses (Config.MemDiscipline)
	// stepTraffic is the number of store words and combining references the
	// step's fold handed to the memory and the combiners.
	stepTraffic int

	stats  Stats
	tail   TailStats
	output []Output

	halted  bool
	runErr  error
	stepRec *StepRecord // current step's trace record (when tracing)
	trace   []*StepRecord

	// recArena/gcArena chunk-allocate trace records and their GroupCycles
	// rows so tracing costs ~1 allocation per step instead of several.
	// Records handed out stay alive through m.trace; Reset drops both.
	recArena   []StepRecord
	gcArena    []int64
	sliceArena []SliceExec
}

// New builds a machine for cfg (normalized) with an empty program.
func New(cfg Config) (*Machine, error) {
	c, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	pol, err := variant.PolicyFor(c.Variant)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	shared, err := mem.NewShared(c.SharedWords, c.Groups, c.WritePolicy)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	props := c.Variant.Props()
	m := &Machine{
		cfg:      c,
		policy:   pol,
		props:    props,
		plan:     StepPlan{StepShape: pol.Shape(c.machineShape()), Lockstep: props.Lockstep},
		shared:   shared,
		flowList: make([]*tcf.Flow, 0, 8),
		regs:     tcf.NewRegArena(c.SharedWords),
	}
	m.combiners = multiop.NewCombinerBank()
	m.stats.PerGroupOps = make([]int64, c.Groups)
	m.stats.PerGroupCycles = make([]int64, c.Groups)
	// One backing array per kind: the per-group structs are small and
	// always allocated together, so batching them keeps machine
	// construction (pool misses, benchmark iterations) cheap.
	garr := make([]Group, c.Groups)
	xarr := make([]groupExec, c.Groups)
	m.groups = make([]*Group, c.Groups)
	m.execs = make([]*groupExec, c.Groups)
	for i := 0; i < c.Groups; i++ {
		local, err := mem.NewLocal(i, c.LocalWords)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		garr[i] = Group{Index: i, Local: local}
		xarr[i] = groupExec{m: m, g: &garr[i],
			fenv: fuse.Env{Group: i, Groups: c.Groups, Procs: c.TotalProcessors()}}
		m.groups[i] = &garr[i]
		m.execs[i] = &xarr[i]
	}
	// Group→module distances never change (failover remaps the module
	// index, not the metric), so the hot path indexes a flat table instead
	// of calling into the topology per reference.
	m.nmods = m.shared.Modules()
	m.dist = make([]int, c.Groups*m.nmods)
	for g := 0; g < c.Groups; g++ {
		for mod := 0; mod < m.nmods; mod++ {
			m.dist[g*m.nmods+mod] = c.Topology.Distance(g, mod)
		}
	}
	for _, x := range m.execs {
		for _, d := range m.dist[x.g.Index*m.nmods:][:m.nmods] {
			x.rowMax = max(x.rowMax, d)
		}
	}
	return m, nil
}

// NewReference builds the machine New builds for cfg as the per-lane
// reference the tests hold it to: every instruction executes lane by lane
// through isa.Eval and the per-reference memory paths, where New's machine
// runs compiled kernels and bulk LD/ST. The two agree on everything a run
// shows — outputs, memory, statistics, step records, snapshots — except
// KernelStats. Being the reference is no part of the configuration: not of
// a snapshot (Restore builds New's machine) nor of a pool's key.
func NewReference(cfg Config) (*Machine, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m.reference = true
	return m, nil
}

// Config returns the effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// Shared exposes the shared memory (inspection, preloading workloads).
func (m *Machine) Shared() *mem.Shared { return m.shared }

// LocalMem exposes group g's local memory.
func (m *Machine) LocalMem(g int) *mem.Local { return m.groups[g].Local }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

// CommitStats returns the routes the step commit's stores took: host-side
// counters of the simulator, not statistics of the simulated machine.
func (m *Machine) CommitStats() mem.CommitStats { return m.shared.CommitStats() }

// CombineStats sums the combiners' counters: the combining references
// resolved, their accumulators and the references resolved by index.
// Host-side counters like CommitStats.
func (m *Machine) CombineStats() multiop.Stats {
	var s multiop.Stats
	for _, c := range m.combiners {
		s = s.Add(c.Stats())
	}
	return s
}

// KernelStats counts how the run's operation slices were generated and where
// its vector banks came from, since the machine was built or Reset: lanes
// that ran in a bulk form (a compiled kernel, a bulk LD/ST, a combining run),
// lanes that ran one at a time on the per-lane reference path, instructions
// retired inside fused register runs, the banks the register arena lent
// out again or had to allocate (the shorter ones it bumps are TailStats'),
// and the register columns, one per instruction, that an affine form left
// unwritten (tcf.Flow.SetAffine) and that a reader made the flow materialise
// after all. MaxThickness is the widest thickness a flow was created with or asked for,
// also when Config.MaxThickness refused it: what the cost analyzer reports
// as the program's demand. Host-side counters like CommitStats: in no
// snapshot and no simulated statistic.
type KernelStats struct {
	BulkLanes, PerLaneLanes, RunInstrs, BanksReused, BanksAllocated int64
	ColumnsSkipped, ColumnsMaterialised                             int64
	MaxThickness                                                    int64
}

func (k KernelStats) String() string {
	return fmt.Sprintf("kernels: bulk_lanes=%d per_lane_lanes=%d run_instrs=%d banks_reused=%d banks_allocated=%d columns_skipped=%d columns_materialised=%d",
		k.BulkLanes, k.PerLaneLanes, k.RunInstrs, k.BanksReused, k.BanksAllocated, k.ColumnsSkipped, k.ColumnsMaterialised)
}

// KernelStats returns the kernel-coverage counters. Not to be called while
// the machine steps.
func (m *Machine) KernelStats() KernelStats {
	var k KernelStats
	for _, x := range m.execs {
		k.BulkLanes += x.kern.BulkLanes
		k.PerLaneLanes += x.kern.PerLaneLanes
		k.RunInstrs += x.kern.RunInstrs
		k.MaxThickness = max(k.MaxThickness, x.kern.MaxThickness)
	}
	c := m.regs.Counts()
	k.BanksReused, k.BanksAllocated = c.BanksReused, c.BanksAllocated
	k.ColumnsSkipped, k.ColumnsMaterialised = c.ColumnsSkipped, c.ColumnsMaterialised
	return k
}

// TailStats counts what the stages behind operation generation had to do
// since the machine was built or Reset: the steps taken, those among them that
// had stores or combining references to commit, the storage buffers compacted
// (a step may compact several groups', or none), the steps whose outputs
// needed ordering, the flows that were drawn from chunks an earlier run left
// or had to be allocated, and what those flows drew from the register arena
// below the size it lends bank by bank: words bumped for thin banks and call
// stacks, and header tables attached. Host-side counters like CommitStats: in
// no snapshot and no simulated statistic.
type TailStats struct {
	Steps, Commits, Compactions, OutputSorts, FlowsReused, FlowsAllocated int64
	ThinWords, Tables                                                     int64
}

func (s TailStats) String() string {
	return fmt.Sprintf("tail: steps=%d commits=%d compactions=%d output_sorts=%d flows_reused=%d flows_allocated=%d thin_words=%d tables=%d",
		s.Steps, s.Commits, s.Compactions, s.OutputSorts, s.FlowsReused, s.FlowsAllocated, s.ThinWords, s.Tables)
}

// TailStats returns the tail-stage counters. Not to be called while the
// machine steps.
func (m *Machine) TailStats() TailStats {
	s := m.tail
	// Flows fill the chunks in id order, the kept ones first.
	s.FlowsReused = int64(min(len(m.flowList), m.reusable))
	s.FlowsAllocated = int64(len(m.flowList)) - s.FlowsReused
	c := m.regs.Counts()
	s.ThinWords, s.Tables = c.ThinWords, c.Tables
	return s
}

// Outputs returns the PRINT/PRINTS records in deterministic order.
func (m *Machine) Outputs() []Output { return m.output }

// Trace returns the recorded step trace (TraceEnabled configs only).
func (m *Machine) Trace() []*StepRecord { return m.trace }

// Flows returns all flows ever created, in id order.
func (m *Machine) Flows() []*tcf.Flow { return slices.Clone(m.flowList) }

// Flow returns the flow with the given id, or nil.
func (m *Machine) Flow(id int) *tcf.Flow {
	if id < 0 || id >= len(m.flowList) {
		return nil
	}
	return m.flowList[id]
}

// LoadProgram installs p and preloads its data segments into shared memory.
func (m *Machine) LoadProgram(p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return m.load(p)
}

// LoadBinary decodes a TCFB object and loads its program as LoadProgram
// does. The program is validated once, by isa.Decode.
func (m *Machine) LoadBinary(data []byte) (*isa.Program, error) {
	p, err := isa.Decode(data)
	if err != nil {
		return nil, err
	}
	return p, m.load(p)
}

// load preloads the data segments of the valid program p and installs it.
func (m *Machine) load(p *isa.Program) error {
	for _, d := range p.Data {
		if err := m.shared.Load(d.Addr, d.Words); err != nil {
			return fmt.Errorf("machine: loading %s: %w", p.Name, err)
		}
	}
	m.setProgram(p)
	return nil
}

// setProgram installs p with its per-PC table.
func (m *Machine) setProgram(p *isa.Program) {
	m.prog = p
	if m.reference {
		m.code = fuse.Decode(m.code, p)
	} else {
		m.code = fuse.CompileTo(m.code, p)
	}
}

// Program returns the loaded program.
func (m *Machine) Program() *isa.Program { return m.prog }

// maxKeptFlows bounds the flows whose chunks a machine keeps across Reset, by
// their bytes: 78 KB of flows, 256 of them. A run of more flows allocates the
// rest and drops them.
const (
	maxKeptFlowBytes = 78 << 10
	maxKeptFlows     = maxKeptFlowBytes / int(unsafe.Sizeof(tcf.Flow{}))
)

// nextFlow returns the zeroed storage of the run's next flow and appends it to
// flowList: its id is its index. more is how many flows the caller will draw
// right after this one: a chunk that has to be allocated holds them all.
func (m *Machine) nextFlow(more int) *tcf.Flow {
	if len(m.slab) == 0 {
		if m.slabStale = m.nextChunk < len(m.chunks); m.slabStale {
			m.slab = m.chunks[m.nextChunk]
			m.nextChunk++
		} else {
			// The first maxKeptFlows flows lie in chunks that are kept whole.
			n, room := max(1+more, min(16, max(4, len(m.flowList)))), maxKeptFlows-m.keptFlows
			if room > 0 {
				n = min(n, room)
			}
			m.slab = make([]tcf.Flow, n)
			if room > 0 {
				m.chunks = append(m.chunks, m.slab)
				m.nextChunk++
				m.keptFlows += n
			}
		}
	}
	f := &m.slab[0]
	if m.slabStale {
		*f = tcf.Flow{}
	}
	m.slab = m.slab[1:]
	m.flowList = append(m.flowList, f)
	return f
}

// newFlow creates a flow and registers it on group g (resident if a slot is
// free, otherwise pending); more as for nextFlow.
func (m *Machine) newFlow(pc, thickness, g, more int) *tcf.Flow {
	id := len(m.flowList)
	f := m.nextFlow(more)
	f.Init(id, pc, thickness)
	f.Regs = m.regs
	m.place(f, g)
	kern := &m.execs[g].kern
	kern.MaxThickness = max(kern.MaxThickness, int64(thickness))
	m.stats.FlowsCreated++
	m.live++
	m.stats.MaxLiveFlows = max(m.stats.MaxLiveFlows, m.live)
	return f
}

// Boot creates the initial flow population the variant's policy prescribes:
//
//   - TCF variants (SingleInstruction, Balanced, MultiInstruction): one flow
//     of thickness 1 at the program entry (Section 2.2: a program starts
//     with a flow of thickness one).
//   - Thread variants (SingleOperation, ConfigurableSingleOperation): P*Tp
//     flows of thickness 1, one per slot; flow id = global thread id.
//   - FixedThickness: one flow of the fixed vector width on group 0.
func (m *Machine) Boot() error {
	if m.prog == nil {
		return fmt.Errorf("machine: Boot before LoadProgram")
	}
	if len(m.flowList) != 0 {
		return fmt.Errorf("machine: already booted")
	}
	entry := m.prog.Entry()
	boot := m.policy.BootFlows(m.cfg.machineShape())
	for i, bf := range boot {
		m.newFlow(entry, bf.Thickness, bf.Group, len(boot)-1-i)
	}
	return nil
}

// Done reports whether every flow has terminated (or the machine errored).
func (m *Machine) Done() bool {
	if m.halted || m.runErr != nil {
		return true
	}
	return len(m.flowList) != 0 && m.live == 0
}

// Err returns the runtime error that stopped the machine, if any.
func (m *Machine) Err() error { return m.runErr }

// Run boots (if needed) and steps the machine until completion. It returns
// the final statistics.
func (m *Machine) Run() (*Stats, error) { return m.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is checked
// between steps, and a canceled run stops with an error wrapping
// ErrCanceled. The progress watchdog (Config.WatchdogSteps) also runs here,
// converting silent livelock into an error wrapping ErrDeadlock.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) { return m.RunUntil(ctx, nil) }

// RunUntil is RunContext that also stops, with no error, at the first step
// boundary where stop holds (checked first), so a later call continues the
// run. Each call starts its own watchdog: at most a later livelock verdict.
func (m *Machine) RunUntil(ctx context.Context, stop func(*Machine) bool) (*Stats, error) {
	if len(m.flowList) == 0 {
		if err := m.Boot(); err != nil {
			return nil, err
		}
	}
	done := ctx.Done()
	wd := newWatchdog(m.cfg.WatchdogSteps)
	for !m.Done() {
		if stop != nil && stop(m) {
			break
		}
		if done != nil && canceled(done) {
			m.runErr = fmt.Errorf("machine: %w after %d steps: %v", ErrCanceled, m.stats.Steps, ctx.Err())
			break
		}
		if m.stats.Steps >= m.cfg.MaxSteps {
			m.runErr = fmt.Errorf("machine: exceeded MaxSteps=%d (livelock?): %w", m.cfg.MaxSteps, ErrMaxSteps)
			break
		}
		if wd.window > 0 && wd.observe(m) {
			m.runErr = fmt.Errorf("machine: watchdog: state cycle with no observable work over %d+ steps (silent livelock): %w", wd.window, ErrDeadlock)
			break
		}
		if err := m.Step(); err != nil {
			m.runErr = err
			break
		}
		// Periodic checkpointing (Config.CheckpointEvery): the snapshot is
		// taken here, at the step boundary, where the machine state is
		// well-defined. The trigger lives in RunContext rather than Step so
		// the direct step loop stays allocation-free when disabled.
		if every := m.cfg.CheckpointEvery; every > 0 && m.cfg.CheckpointSink != nil && m.stats.Steps%every == 0 {
			if err := m.cfg.CheckpointSink.Checkpoint(m.stats.Steps, m.Snapshot); err != nil {
				m.runErr = fmt.Errorf("machine: checkpoint at step %d: %w", m.stats.Steps, err)
				break
			}
		}
	}
	return &m.stats, m.runErr
}

// canceled is the run loops' per-step context check: a non-blocking receive,
// where ctx.Err() locks a cancelable context's mutex.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// progressMark summarizes the observable work of the run: memory traffic
// (issued and committed references, local reads and writes), flow
// population events (splits, joins, creations), barriers and outputs.
// Every term is monotone, so the mark is constant over a stretch of steps
// exactly when the machine did no observable work in that stretch. Quiet is
// not itself livelock — register-only computation is quiet too — so the
// watchdog treats a quiet stretch only as the trigger to start cycle
// detection (watchdog.go). Spin-waiting on shared or local memory still
// counts as work (the reads are issued traffic), so lockstep polling
// patterns never even reach the detector.
func (m *Machine) progressMark() int64 {
	_, committed, issued := m.shared.Stats()
	return committed + issued +
		m.stats.LocalReads + m.stats.LocalWrites +
		m.stats.FlowsCreated + m.stats.Splits + m.stats.Joins +
		m.stats.Barriers + int64(len(m.output))
}

// failf records a runtime error and stops the machine.
func (m *Machine) failf(format string, args ...any) error {
	err := fmt.Errorf("machine: "+format, args...)
	m.runErr = err
	return err
}

// failw is failf wrapping a sentinel from the error taxonomy.
func (m *Machine) failw(sentinel error, format string, args ...any) error {
	err := fmt.Errorf("machine: "+format+": %w", append(args, sentinel)...)
	m.runErr = err
	return err
}
