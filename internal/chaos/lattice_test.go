package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fault"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// allKinds is every execution variant, the per-thread ones after
// single-instruction, as relate reads them.
var allKinds = []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction,
	variant.SingleOperation, variant.ConfigurableSingleOperation, variant.FixedThickness}

var tcfKinds, siOnly = allKinds[:3], allKinds[:1]

// entry is one program of the lattice: its code, the machines it runs on and,
// when it has one, its own reference, which the fault-free oracle of every
// shape is held to.
type entry struct {
	name      string
	c         *codegen.Compiled
	shapes    []shape
	check     func(*machine.Machine) error
	unrelated string   // the engine bug that keeps the shapes from relate's relations
	quick     []string // when set, the only rows the entry runs in, fault-free
}

// shape is one machine a program runs on: a variant's default configuration
// changed by tweak.
type shape struct {
	name  string
	kind  variant.Kind
	tweak func(*machine.Config)
}

// on is one shape per kind, named after it, each changed by tweak.
func on(kinds []variant.Kind, tweak func(*machine.Config)) []shape {
	ss := make([]shape, len(kinds))
	for i, kind := range kinds {
		ss[i] = shape{name: kind.String(), kind: kind, tweak: tweak}
	}
	return ss
}

// gatherSrc loads through a computed index: ascending from a lane on (the
// page-wise copy and its break), reversed, scattered, and flow-common.
const gatherSrc = `
shared int a[1024] @ 1024;
shared int b[1024] @ 4096;
shared int c[1024] @ 8192;
func main() {
    #1024;
    a[tid] = tid * 3 + 1;
    b[tid] = a[(tid * 40503 + 7) & 1023] + a[1023 - tid];
    c[tid] = a[(tid + 300) & 1023] - b[(tid >> 3) * 8] + a[5];
    c[(tid * 37) & 1023] = b[tid];
    print(radd(c[tid] * (tid & 7)));
}`

// laneParSrc exercises every lane-parallel op class at a thickness of 513,
// whose last lane chunk is ragged: per-lane loads, vector ALU, a multiprefix,
// two stores, a reduction and a scalar print.
const laneParSrc = `
shared int in[513] @ 8000;
shared int out[513] @ 2000;
shared int pre[513] @ 4000;
shared int aux @ 900;
func main() {
    #513;
    in[tid] = tid * 7 % 23 - 11;
    thick int x = in[tid] * 3 + tid;
    out[tid] = x;
    pre[tid] = mpadd(&aux, in[tid]);
    print(radd(x));
}`

// programs is the lattice's one program list: the tcf-e corpus on every
// variant; the commit-bound, gather and lane-parallel programs and three
// workload kernels at 2^10 on single-instruction; the occupancy cases on the
// variants and machine shapes that idle their groups; and genSeeds seeds of
// each generator, quick past the first fullSeeds.
func programs(tb testing.TB) []entry {
	tb.Helper()
	var es []entry
	for _, file := range corpusFiles(tb) {
		es = append(es, entry{name: filepath.Base(file), c: compile(tb, file), shapes: on(allKinds, nil)})
	}
	srcs := maps.Clone(commitPrograms)
	srcs["gather"], srcs["lane-parallel"] = gatherSrc, laneParSrc
	var names []string
	for name := range srcs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		es = append(es, entry{name: name, c: compileSrc(tb, name, srcs[name]), shapes: on(siOnly, nil)})
	}
	for _, oc := range occupancyCases {
		es = append(es, entry{name: oc.name, c: compileSrc(tb, oc.name, oc.src), shapes: on(oc.kinds, oc.tweak), check: occupancyCheck(tb, oc.name)})
	}
	for _, w := range []workload.Workload{
		workload.VectorAdd(workload.StyleTCF, 1<<10, 0, 0),
		workload.PrefixSum(workload.StyleTCF, 1<<10, 0),
		workload.ConditionalHalves(workload.StyleTCF, 1<<10),
	} {
		es = append(es, entry{name: w.Name, c: &codegen.Compiled{Program: w.Program}, shapes: on(siOnly, nil), check: w.Check})
	}
	for seed := int64(1); seed <= genSeeds; seed++ {
		for _, gen := range generators {
			e := gen(seed)
			if seed <= fullSeeds {
				e.quick = nil
			}
			es = append(es, e)
		}
	}
	return es
}

// outcome is everything a run shows: the error that stopped it, its outputs,
// the whole shared memory, Stats, a digest of its step records, and — not
// compared — how many lanes the bulk kernels ran and, for a kill row, the step
// it was first killed at and how many faults had fired by its last kill.
type outcome struct {
	err                error
	outputs            []machine.Output
	memory             []int64
	stats              machine.Stats
	trace              uint64 // traceSum, 0 when the run did not trace
	bulk               int64
	kill, faultsAtKill int64
}

// images recycles the shared-memory images of the runs: hold drops each once
// compared, TestLattice an oracle's once its program is done. Allocating them
// fresh cost a third of the lattice's time.
var images sync.Pool

func recycle(img []int64) { images.Put(&img) }

// sameImage compares two memory images as bytes: a loop over their 64Ki words
// is instrumented word by word under -race and cost more than the runs.
func sameImage(a, b []int64) bool {
	view := func(w []int64) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w)) }
	return bytes.Equal(view(a), view(b))
}

// observe takes what a finished machine shows, copied out of what its next
// Reset reuses.
func observe(m *machine.Machine, err error) *outcome {
	o := &outcome{err: err, stats: *m.Stats(), bulk: m.KernelStats().BulkLanes}
	if img, _ := images.Get().(*[]int64); img != nil && len(*img) == m.Config().SharedWords {
		o.memory = *img
	} else {
		o.memory = make([]int64, m.Config().SharedWords)
	}
	m.Shared().PeekRun(o.memory, 0)
	o.stats.PerGroupOps = slices.Clone(o.stats.PerGroupOps)
	o.stats.PerGroupCycles = slices.Clone(o.stats.PerGroupCycles)
	for _, out := range m.Outputs() {
		out.Values = slices.Clone(out.Values)
		o.outputs = append(o.outputs, out)
	}
	if m.Config().TraceEnabled {
		o.trace = traceSum(m.Trace())
	}
	return o
}

// traceSum is the lattice's digest of the step records: every field of every
// StepRecord, as occupancy.json's traceHash covers them, but without
// formatting them, and faster than reflect.DeepEqual compares them.
func traceSum(recs []*machine.StepRecord) uint64 {
	h := uint64(14695981039346656037)
	mix := func(vs ...int64) {
		for _, v := range vs {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	for _, r := range recs {
		mix(r.Step, r.Cycles, r.DiscReads, r.DiscWrites, int64(len(r.GroupCycles)), int64(len(r.Slices)))
		mix(r.GroupCycles...)
		for _, st := range r.Stages {
			mix(st.Cycles, st.Events)
		}
		for _, s := range r.Slices {
			mix(int64(s.Group), int64(s.Slot), int64(s.Flow), int64(s.PC), int64(s.Op), int64(s.FirstLane), int64(s.Lanes))
			if s.NUMA {
				mix(1)
			}
		}
	}
	return h
}

// compare is the lattice's one comparison: the run error's text, the
// outputs, the whole shared memory, Stats but for the fields free zeroes, and
// the step records when got traced.
func compare(got, want *outcome, free func(*machine.Stats)) error {
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Errorf("run error %v, oracle %v", got.err, want.err)
	}
	if !reflect.DeepEqual(got.outputs, want.outputs) {
		return fmt.Errorf("outputs %v, oracle %v", got.outputs, want.outputs)
	}
	if !sameImage(got.memory, want.memory) {
		i := 0
		for got.memory[i] == want.memory[i] {
			i++
		}
		return fmt.Errorf("shared word %d = %d, oracle %d", i, got.memory[i], want.memory[i])
	}
	a, b := got.stats, want.stats
	if free != nil {
		free(&a)
		free(&b)
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("stats diverged:\ngot    %+v\noracle %+v", a, b)
	}
	if got.trace != 0 && got.trace != want.trace {
		return fmt.Errorf("step records %x, oracle %x", got.trace, want.trace)
	}
	return nil
}

// oracleConfig is the reference every row is held to: the serial lockstep
// interpreter on the per-lane path, tracing. Without a fault plan it gets an
// empty one: a non-nil Config.FaultPlan, the one selector of that path the
// machine has, sends every shared reference through the per-lane loops
// (bulkMemRange declines, as each reference under a plan draws its own fault
// decision), and an empty plan injects nothing.
func oracleConfig(cfg machine.Config) machine.Config {
	cfg.TraceEnabled = true
	if cfg.FaultPlan == nil {
		cfg.FaultPlan = &fault.Plan{}
	}
	return cfg
}

// faultCosts zeroes the Stats a recoverable fault may change: when the run
// did what it did — its cycles — and how it recovered.
func faultCosts(s *machine.Stats) {
	s.Cycles, s.OverheadCycles, s.StallCycles, s.PerGroupCycles = 0, 0, 0, nil
	s.FaultStallCycles, s.Retransmits, s.Reroutes, s.Failovers = 0, 0, 0, 0
	for i := range s.Stages {
		s.Stages[i].Cycles = 0
	}
}

// cell is one (program, shape, fault plan) of the lattice: its oracle, the
// configuration rows apply their delta to, and what the rows run in it must
// agree on among themselves.
type cell struct {
	name   string
	e      *entry
	other  *entry // the program a reset row runs first
	cfg    machine.Config
	oracle *outcome
	snaps  map[int64]uint64 // kill step → hash of the snapshot taken there
	chunks map[int]int64    // lane threshold → LaneChunks of a Parallel run
}

// The two cells of a (program, shape): without a fault plan, and under the
// recoverable plan the lattice draws for them.
const (
	clean = iota
	faulty
)

// newCells runs the oracles of e on s: fault-free and, unless plan is 0,
// under fault.Random(plan). The fault-free oracle is held to e's own
// reference, the faulted one to the degradation invariant: faults change
// when, never what — all but faultCosts and the step records' cycles. (Not
// "never fewer cycles": a failed-over module's spare may be nearer.)
func newCells(t testing.TB, e, other *entry, s shape, plan int64) []*cell {
	t.Helper()
	seeds := []int64{0}
	if plan != 0 {
		seeds = append(seeds, plan)
	}
	var cells []*cell
	for _, seed := range seeds {
		cfg := machine.Default(s.kind)
		if s.tweak != nil {
			s.tweak(&cfg)
		}
		if seed != 0 {
			cfg.FaultPlan = fault.Random(seed, cfg.Groups, cfg.Groups)
		}
		m := buildRun(t, e.c, oracleConfig(cfg))
		_, err := m.Run()
		c := &cell{name: fmt.Sprintf("%s/%s/plan %d", e.name, s.name, seed), e: e, other: other, cfg: cfg,
			oracle: observe(m, err), snaps: map[int64]uint64{}, chunks: map[int]int64{}}
		cells = append(cells, c)
		if seed == 0 {
			if e.check != nil {
				if err := e.check(m); err != nil {
					t.Fatalf("%s: the oracle fails the program's reference: %v", c.name, err)
				}
			}
			continue
		}
		untimed := *c.oracle
		untimed.trace = 0
		if err := compare(&untimed, cells[clean].oracle, faultCosts); err != nil {
			t.Fatalf("%s: the faults changed what the run did, not only when: %v", c.name, err)
		}
	}
	return cells
}

// lifecycle runs a row's configuration of a cell's program and returns what
// it showed, or nil when the row cannot run the cell.
type lifecycle func(t *testing.T, c *cell, cfg machine.Config) *outcome

// fresh is one Run on a new machine.
func fresh(t *testing.T, c *cell, cfg machine.Config) *outcome {
	m := buildRun(t, c.e.c, cfg)
	_, err := m.Run()
	return observe(m, err)
}

// stepped boots the row's machine beside the oracle's and steps the two
// together, holding every flow's state digest to the oracle's after each step.
func stepped(t *testing.T, c *cell, cfg machine.Config) *outcome {
	ref, m := buildRun(t, c.e.c, oracleConfig(c.cfg)), buildRun(t, c.e.c, cfg)
	if err := errors.Join(ref.Boot(), m.Boot()); err != nil {
		t.Fatal(err)
	}
	var err error
	for step := 1; !ref.Done(); step++ {
		refErr := ref.Step()
		if err = m.Step(); err != nil || refErr != nil {
			break
		}
		for id, f := range ref.Flows() {
			if g := m.Flow(id); g == nil || g.StateDigest() != f.StateDigest() {
				t.Fatalf("%s: step %d: flow %d diverges from the oracle's", c.name, step, id)
			}
		}
	}
	return observe(m, err)
}

// reset runs the cell's program on a machine Reset after running the next
// program of the list on it, the Reset audited for a word left behind.
func reset(t *testing.T, c *cell, cfg machine.Config) *outcome {
	mem.ResetAudit.Store(true)
	defer mem.ResetAudit.Store(false)
	m := buildRun(t, c.other.c, cfg)
	_, _ = m.Run() // its result, a refusal included, is only dirt to clear here
	m.Reset()
	loadInto(t, m, c.e.c)
	_, err := m.Run()
	return observe(m, err)
}

// errKilled is what a kill row's checkpoint sink answers: the run stops at
// the step boundary the snapshot was taken at, as a crash there would stop it.
var errKilled = errors.New("killed")

// killSink keeps the snapshot a kill row restores from and kills the run.
type killSink struct{ snap bytes.Buffer }

func (s *killSink) Checkpoint(_ int64, snapshot func(io.Writer) error) error {
	s.snap.Reset()
	if err := snapshot(&s.snap); err != nil {
		return err
	}
	return errKilled
}

// killed is the crash-recovery lifecycle: the run is killed by its checkpoint
// sink at a step k seeded from the cell, anywhere in the run (a dataflow run
// drains to that boundary first), restored into the configuration as changed
// by into and run on; with times = 2, k is folded into the run's first half,
// and the restored run is killed again at 2k and restored back. Snapshots
// taken at one step of a cell must be the same bytes, whichever row took them
// (the fold keeps k for half the cells), and every Reset is audited.
func killed(times int, into func(*machine.Config)) lifecycle {
	return func(t *testing.T, c *cell, cfg machine.Config) *outcome {
		total := c.oracle.stats.Steps
		if total < 1+int64(times) {
			return nil
		}
		k := 1 + int64(hash([]byte(c.name))%uint64(total-1))
		if times == 2 {
			k = 1 + (k-1)%((total-1)/2)
		}
		mem.ResetAudit.Store(true)
		defer mem.ResetAudit.Store(false)
		sink := &killSink{}
		var m *machine.Machine
		var faults int64
		for i := 0; ; i++ {
			run := cfg
			if i%2 == 1 {
				into(&run)
			}
			if i < times {
				run.CheckpointEvery, run.CheckpointSink = k, sink
			}
			var err error
			if i == 0 {
				m = buildRun(t, c.e.c, run)
			} else if m, err = machine.Restore(bytes.NewReader(sink.snap.Bytes()), run); err != nil {
				t.Fatalf("%s: restore at step %d: %v", c.name, int64(i)*k, err)
			}
			_, err = m.Run()
			if i == times {
				o := observe(m, err)
				o.kill, o.faultsAtKill = k, faults
				m.Reset()
				return o
			}
			if !errors.Is(err, errKilled) {
				t.Fatalf("%s: kill %d at step %d never came: %v", c.name, i+1, int64(i+1)*k, err)
			}
			faults = faultEvents(m.Stats())
			// A Parallel run's snapshot carries the lane chunks it took.
			if step, sum := m.Stats().Steps, hash(sink.snap.Bytes()); !run.Parallel {
				if prev, ok := c.snaps[step]; ok && prev != sum {
					t.Fatalf("%s: the snapshot at step %d is not the bytes another row took there", c.name, step)
				}
				c.snaps[step] = sum
			}
			m.Reset()
		}
	}
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func faultEvents(s *machine.Stats) int64 { return s.Retransmits + s.Reroutes + s.Failovers }

// row is one engine configuration of the lattice: a delta on the oracle's
// configuration, the lifecycle its runs go through, and the cells it runs in
// (clean, faulty).
type row struct {
	name    string
	delta   func(*machine.Config)
	life    lifecycle
	plans   []int
	free    func(*machine.Stats)            // zeroes the Stats fields the row may change
	engaged func(got, oracle *outcome) bool // must hold on atLeast programs (one when 0) of a pass
	atLeast int
	drops   error // a run that stops on it leaves its program out of the row
}

func with(deltas ...func(*machine.Config)) func(*machine.Config) {
	return func(c *machine.Config) {
		for _, d := range deltas {
			d(c)
		}
	}
}

// lanes turns on the pooled step engine and chunks lanes from a thickness of
// n on.
func lanes(n int) func(*machine.Config) {
	return func(c *machine.Config) { c.Parallel, c.LaneParallelThreshold = true, n }
}

var (
	fused    = func(c *machine.Config) { c.Backend = machine.BackendFused }
	dataflow = func(c *machine.Config) { c.Sched = machine.SchedDataflow }
	lockstep = func(c *machine.Config) { c.Sched = machine.SchedLockstep }
	traced   = func(c *machine.Config) { c.TraceEnabled = true }

	cleanOnly = []int{clean}
	both      = []int{clean, faulty}

	laneChunks   = func(s *machine.Stats) { s.LaneChunks = 0 }
	discAccesses = func(s *machine.Stats) { s.DiscReads, s.DiscWrites = 0, 0 }

	faultsFired = func(got, _ *outcome) bool {
		s := got.stats
		return s.Retransmits > 0 && s.Reroutes > 0 && s.Failovers > 0 && s.FaultStallCycles > 0
	}
	chunked   = func(got, _ *outcome) bool { return got.stats.LaneChunks > 0 }
	moreBulk  = func(got, oracle *outcome) bool { return got.bulk > oracle.bulk }
	crossed   = func(got, _ *outcome) bool { return faultEvents(&got.stats) > got.faultsAtKill }
	completed = func(_, _ *outcome) bool { return true }
)

// rows is the lattice: a covering set of backend × scheduler × Parallel × lane
// threshold × fault plan × lifecycle — every pair of backend, scheduler and
// Parallel is some row's — not the product.
var rows = []row{
	{name: "interp", life: fresh, plans: cleanOnly},
	{name: "fused", delta: fused, life: fresh, plans: both, engaged: faultsFired},
	{name: "dataflow", delta: with(dataflow, traced), life: fresh, plans: both, engaged: faultsFired},
	{name: "lanes", delta: lanes(1), life: fresh, plans: both, free: laneChunks, engaged: chunked},
	{name: "fused-lanes", delta: with(fused, lanes(1)), life: fresh, plans: cleanOnly, free: laneChunks, engaged: chunked},
	{name: "fused-dataflow-lanes300", delta: with(fused, dataflow, lanes(300), traced), life: fresh, plans: cleanOnly, free: laneChunks, engaged: chunked},
	{name: "step", life: stepped, plans: cleanOnly, engaged: moreBulk, atLeast: 12},
	{name: "crew-step", delta: func(c *machine.Config) { c.MemDiscipline = mem.DisciplineCREW }, life: stepped, plans: cleanOnly,
		free: discAccesses, engaged: completed, atLeast: 8, drops: machine.ErrDisciplineViolation},
	{name: "fused-reset", delta: fused, life: reset, plans: cleanOnly},
	{name: "kill", life: killed(1, fused), plans: both, engaged: crossed},
	// Fault-free: under a plan dataflow steps strictly, and kill's bytes would hold little.
	{name: "dataflow-kill2", delta: dataflow, life: killed(2, with(fused, lockstep, lanes(1))), plans: cleanOnly, free: laneChunks, engaged: chunked},
}

// hold runs row r in cell c and holds what it shows to the oracle; it reports
// whether the row engaged.
func hold(t *testing.T, r row, c *cell) bool {
	t.Helper()
	cfg := c.cfg
	if r.delta != nil {
		r.delta(&cfg)
	}
	got := r.life(t, c, cfg)
	if got == nil || r.drops != nil && errors.Is(got.err, r.drops) {
		return false
	}
	if err := compare(got, c.oracle, r.free); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	recycle(got.memory)
	// Every row chunking lanes at one threshold makes the same fan-out decisions,
	// whatever its backend or scheduler (a killed run counts two configurations').
	if cfg.Parallel && got.kill == 0 {
		if n, ok := c.chunks[cfg.LaneParallelThreshold]; ok && n != got.stats.LaneChunks {
			t.Fatalf("%s: %d lane chunks, another row at threshold %d took %d", c.name, got.stats.LaneChunks, cfg.LaneParallelThreshold, n)
		}
		c.chunks[cfg.LaneParallelThreshold] = got.stats.LaneChunks
	}
	return r.engaged != nil && r.engaged(got, c.oracle)
}

// relate holds one program's fault-free oracles, one per shape, to what the
// model says relates them: every shape that completes the program leaves the
// same shared memory; single-instruction, balanced, multi-instruction and
// fixed-thickness print the same values; the per-thread variants, listed after
// one of those, print what it printed in a step P·Tp times in a row. (A
// variant that refuses a program refuses it under every row: rows compare
// errors.)
func relate(t *testing.T, shapes []shape, oracles []*outcome) {
	values := func(outs []machine.Output) (v [][]int64) {
		for _, o := range outs {
			v = append(v, o.Values)
		}
		return v
	}
	first, printer := -1, -1 // the first shape to complete, the first of those that prints per step
	for i, o := range oracles {
		if o == nil || o.err != nil {
			continue
		}
		if first < 0 {
			first = i
		} else if !sameImage(o.memory, oracles[first].memory) {
			t.Errorf("%s leaves a shared memory other than %s's", shapes[i].name, shapes[first].name)
		}
		switch kind := shapes[i].kind; {
		case kind == variant.SingleOperation || kind == variant.ConfigurableSingleOperation:
			if printer < 0 {
				continue
			}
			printed := oracles[printer].outputs
			var want [][]int64
			for a, b := 0, 0; a < len(printed); a = b {
				for b = a; b < len(printed) && printed[b].Step == printed[a].Step; b++ {
				}
				for range machine.Default(kind).TotalProcessors() {
					want = append(want, values(printed[a:b])...)
				}
			}
			if !reflect.DeepEqual(values(o.outputs), want) {
				t.Errorf("%s prints %v, not each step of %s's %v once per thread", shapes[i].name, values(o.outputs), shapes[printer].name, values(printed))
			}
		case printer < 0:
			printer = i
		case !reflect.DeepEqual(values(o.outputs), values(oracles[printer].outputs)):
			t.Errorf("%s prints %v, %s %v", shapes[i].name, values(o.outputs), shapes[printer].name, values(oracles[printer].outputs))
		}
	}
}

// TestLattice is the one differential harness of the engine: every program of
// the list, on every shape it runs on, under every row, is held to the oracle
// of its (program, shape, fault plan) by compare. Subtests are
// TestLattice/<program>/<shape>/<row> (DESIGN.md §5).
func TestLattice(t *testing.T) {
	progs := programs(t)
	// row → cells it must run in, cells it ran in, programs it engaged on
	cells, ran, hits := map[string]int{}, map[string]int{}, map[string]int{}
	for i := range progs {
		e, other := &progs[i], &progs[(i+1)%len(progs)]
		var rs []row
		for _, r := range rows {
			if e.quick == nil || slices.Contains(e.quick, r.name) {
				rs = append(rs, r)
				cells[r.name] += len(e.shapes)
			}
		}
		t.Run(e.name, func(t *testing.T) {
			oracles, hit := make([]*outcome, len(e.shapes)), map[string]bool{}
			for k, s := range e.shapes {
				t.Run(s.name, func(t *testing.T) {
					plan := int64(1 + (i+k)%3)
					if e.quick != nil {
						plan = 0
					}
					cs := newCells(t, e, other, s, plan)
					oracles[k] = cs[clean].oracle
					for _, r := range rs {
						t.Run(r.name, func(t *testing.T) {
							ran[r.name]++
							for _, p := range r.plans {
								if p < len(cs) && hold(t, r, cs[p]) {
									hit[r.name] = true
								}
							}
						})
					}
					for _, c := range cs[1:] {
						recycle(c.oracle.memory)
					}
				})
			}
			t.Run("variants", func(t *testing.T) {
				if e.unrelated != "" {
					t.Skip(e.unrelated)
				}
				relate(t, e.shapes, oracles)
			})
			for _, o := range oracles {
				if o != nil {
					recycle(o.memory)
				}
			}
			for name := range hit {
				hits[name]++
			}
		})
	}
	for _, r := range rows {
		if r.engaged != nil && ran[r.name] == cells[r.name] && hits[r.name] < max(1, r.atLeast) {
			t.Errorf("row %s engaged on %d programs, want %d: it proved nothing", r.name, hits[r.name], max(1, r.atLeast))
		}
	}
}

// FuzzLattice fuzzes the lattice over (seed, program, variant, row, plan):
// program indexes the program list and then the generators, which build from
// seed; variant indexes the program's shapes; plan is a fault-plan seed, 0 for
// none.
func FuzzLattice(f *testing.F) {
	progs := programs(f)
	for i := range rows { // every row, every variant of a corpus program
		f.Add(int64(i), i, i, i, int64(i%3))
	}
	for g := range generators {
		f.Add(int64(100+g), len(progs)+g, g, g, int64(g))
	}
	f.Fuzz(func(t *testing.T, seed int64, program, kind, r int, plan int64) {
		at := func(i, n int) int { return (i%n + n) % n }
		all := progs[:len(progs):len(progs)]
		for _, gen := range generators {
			all = append(all, gen(seed))
		}
		p := at(program, len(all))
		e := &all[p]
		cs := newCells(t, e, &progs[at(p+1, len(progs))], e.shapes[at(kind, len(e.shapes))], plan)
		hold(t, rows[at(r, len(rows))], cs[len(cs)-1])
	})
}
