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
	name   string
	c      *codegen.Compiled
	shapes []shape
	check  func(*machine.Machine) error
	quick  []string // when set, the only rows the entry runs in, fault-free
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

// laneParSrc exercises every op class of a thick instruction at a thickness
// of 513, one lane past a multiple of a register bank's 64: per-lane loads,
// vector ALU, a multiprefix, two stores, a reduction and a scalar print.
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
// variant; the commit-bound, gather and 513-lane programs and three
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
// compared — how many lanes the bulk kernels ran, for a kill row the step it
// was first killed at and how many faults had fired by its last kill, for
// the abort row the step quota that stopped the program before it, and for
// the checkpoint row how many of its snapshots a kill row took too.
type outcome struct {
	err                error
	outputs            []machine.Output
	memory             []int64
	stats              machine.Stats
	trace              uint64 // traceSum, 0 when the run did not trace
	bulk               int64
	kill, faultsAtKill int64
	quota              int64
	sharedSnaps        int
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

// buildOracle builds the machine every row is held to: the per-lane reference
// (machine.NewReference) of the cell's serial configuration, tracing, loaded
// with c. It runs every lane through isa.Eval and every shared reference on
// its own, so the rows' kernels, isa's bulk forms and the bulk LD/ST are
// checked against code they do not share.
func buildOracle(tb testing.TB, c *codegen.Compiled, cfg machine.Config) *machine.Machine {
	tb.Helper()
	cfg.TraceEnabled = true
	return buildReference(tb, c, cfg)
}

// builder makes the machine a row runs: buildRun the production one,
// buildReference the per-lane reference.
type builder func(tb testing.TB, c *codegen.Compiled, cfg machine.Config) *machine.Machine

// buildReference is machine.NewReference of cfg, loaded with c.
func buildReference(tb testing.TB, c *codegen.Compiled, cfg machine.Config) *machine.Machine {
	tb.Helper()
	m, err := machine.NewReference(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	loadInto(tb, m, c)
	return m
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
	other  *entry // the program the reset and abort rows run first
	cfg    machine.Config
	oracle *outcome
	snaps  map[int64]uint64 // kill step → hash of the snapshot taken there
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
		m := buildOracle(t, e.c, cfg)
		_, err := m.Run()
		c := &cell{name: fmt.Sprintf("%s/%s/plan %d", e.name, s.name, seed), e: e, other: other, cfg: cfg,
			oracle: observe(m, err), snaps: map[int64]uint64{}}
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

// lifecycle runs a row's configuration of a cell's program on the machines
// build makes and returns what it showed, or nil when the row cannot run the
// cell.
type lifecycle func(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome

// fresh is one Run on a new machine.
func fresh(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	m := build(t, c.e.c, cfg)
	_, err := m.Run()
	return observe(m, err)
}

// stepped boots the row's machine beside the oracle's and steps the two
// together, holding every flow's state digest to the oracle's after each step.
func stepped(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	ref, m := buildOracle(t, c.e.c, c.cfg), build(t, c.e.c, cfg)
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
func reset(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	mem.ResetAudit.Store(true)
	defer mem.ResetAudit.Store(false)
	m := build(t, c.other.c, cfg)
	_, _ = m.Run() // its result, a refusal included, is only dirt to clear here
	m.Reset()
	loadInto(t, m, c.e.c)
	_, err := m.Run()
	return observe(m, err)
}

// aborted is the way a quota-stopped tcfserve lease goes back into the pool:
// the next program of the list runs under a step quota seeded from the cell
// until ErrMaxSteps stops it mid-run, the machine is Reset, under
// mem.ResetAudit, and given the row's limits back, and the cell's program runs
// on it. A quota the other program finishes within leaves the row unengaged
// in the cell.
func aborted(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	mem.ResetAudit.Store(true)
	defer mem.ResetAudit.Store(false)
	quota := 1 + int64(hash([]byte(c.name))%uint64(max(1, c.oracle.stats.Steps)))
	m := build(t, c.other.c, cfg)
	if err := m.SetLimits(quota, 0); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	stopped := errors.Is(err, machine.ErrMaxSteps)
	m.Reset()
	if err := m.SetLimits(cfg.MaxSteps, cfg.MaxThickness); err != nil {
		t.Fatal(err)
	}
	loadInto(t, m, c.e.c)
	_, err = m.Run()
	o := observe(m, err)
	if stopped {
		o.quota = quota
	}
	return o
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

// killed is the crash-recovery lifecycle: the run, on the machine build
// makes, is killed by its checkpoint sink at a step k seeded from the cell,
// anywhere in the run, restored — into the production machine, as a snapshot
// does not say which machine took it — in the same configuration and run on;
// with times = 2, k is folded into the run's first half, and the restored run
// is killed again at 2k and restored again. Snapshots taken at one step of a cell must be the
// same bytes, whichever row and machine took them (the fold keeps k for half
// the cells), and every Reset is audited.
func killed(times int) lifecycle {
	return func(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
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
			if i < times {
				run.CheckpointEvery, run.CheckpointSink = k, sink
			}
			var err error
			if i == 0 {
				m = build(t, c.e.c, run)
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
			step, sum := m.Stats().Steps, hash(sink.snap.Bytes())
			if prev, ok := c.snaps[step]; ok && prev != sum {
				t.Fatalf("%s: the snapshot at step %d is not the bytes another row took there", c.name, step)
			}
			c.snaps[step] = sum
			m.Reset()
		}
	}
}

// snapSink is the checkpoint row's sink: it takes every snapshot, holds it to
// the bytes a kill row took at its step, and lets the run go on.
type snapSink struct {
	c      *cell
	snap   bytes.Buffer
	shared int
	err    error
}

func (s *snapSink) Checkpoint(step int64, snapshot func(io.Writer) error) error {
	s.snap.Reset()
	if err := snapshot(&s.snap); err != nil {
		return err
	}
	sum := hash(s.snap.Bytes())
	if prev, ok := s.c.snaps[step]; !ok {
		s.c.snaps[step] = sum
	} else if prev != sum {
		s.err = fmt.Errorf("the snapshot at step %d is not the bytes another row took there", step)
	} else {
		s.shared++
	}
	return nil
}

// checkpointed is a recoverable tcfserve run: it checkpoints every k steps,
// k seeded from the cell as the kill row's, and goes on. Taking the
// snapshots must not change the run, and each must be the bytes every other
// row took at its step.
func checkpointed(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	total := c.oracle.stats.Steps
	if total < 2 {
		return nil
	}
	sink := &snapSink{c: c}
	cfg.CheckpointEvery, cfg.CheckpointSink = 1+int64(hash([]byte(c.name))%uint64(total-1)), sink
	m := build(t, c.e.c, cfg)
	_, err := m.Run()
	if sink.err != nil {
		t.Fatalf("%s: %v", c.name, sink.err)
	}
	o := observe(m, err)
	o.sharedSnaps = sink.shared
	return o
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
	build   builder // the machine the row runs; buildRun when nil
	delta   func(*machine.Config)
	life    lifecycle
	plans   []int
	free    func(*machine.Stats)            // zeroes the Stats fields the row may change
	engaged func(got, oracle *outcome) bool // must hold on atLeast programs (one when 0) of a pass
	atLeast int
	drops   error // a run that stops on it leaves its program out of the row
}

var (
	traced = func(c *machine.Config) { c.TraceEnabled = true }

	cleanOnly = []int{clean}
	both      = []int{clean, faulty}

	discAccesses = func(s *machine.Stats) { s.DiscReads, s.DiscWrites = 0, 0 }

	faultsFired = func(got, _ *outcome) bool {
		s := got.stats
		return s.Retransmits > 0 && s.Reroutes > 0 && s.Failovers > 0 && s.FaultStallCycles > 0
	}
	moreBulk     = func(got, oracle *outcome) bool { return got.bulk > oracle.bulk }
	crossed      = func(got, _ *outcome) bool { return faultEvents(&got.stats) > got.faultsAtKill }
	completed    = func(_, _ *outcome) bool { return true }
	quotaStopped = func(got, _ *outcome) bool { return got.quota > 0 }
	snapsShared  = func(got, _ *outcome) bool { return got.sharedSnaps > 0 }
)

// rows is the lattice: a covering set of machine × fault plan × lifecycle,
// not the product. A row runs the production machine unless it names the
// reference: ref-kill restores a snapshot the reference took into the
// production machine. checkpoint comes after the kill rows, so the
// snapshots it takes are held to theirs.
var rows = []row{
	{name: "fresh", life: fresh, plans: both, engaged: faultsFired},
	{name: "traced", delta: traced, life: fresh, plans: cleanOnly},
	{name: "step", life: stepped, plans: cleanOnly, engaged: moreBulk, atLeast: 12},
	{name: "crew-step", delta: func(c *machine.Config) { c.MemDiscipline = mem.DisciplineCREW }, life: stepped, plans: cleanOnly,
		free: discAccesses, engaged: completed, atLeast: 8, drops: machine.ErrDisciplineViolation},
	{name: "reset", life: reset, plans: cleanOnly},
	{name: "abort", life: aborted, plans: both, engaged: quotaStopped},
	{name: "kill", life: killed(1), plans: both, engaged: crossed},
	{name: "kill2", life: killed(2), plans: cleanOnly},
	{name: "ref-kill", build: buildReference, life: killed(1), plans: both, engaged: crossed},
	{name: "checkpoint", life: checkpointed, plans: both, engaged: snapsShared},
}

// hold runs row r in cell c and holds what it shows to the oracle; it reports
// whether the row engaged.
func hold(t *testing.T, r row, c *cell) bool {
	t.Helper()
	cfg := c.cfg
	if r.delta != nil {
		r.delta(&cfg)
	}
	build := r.build
	if build == nil {
		build = buildRun
	}
	got := r.life(t, c, cfg, build)
	if got == nil || r.drops != nil && errors.Is(got.err, r.drops) {
		return false
	}
	if err := compare(got, c.oracle, r.free); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	recycle(got.memory)
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
			t.Run("variants", func(t *testing.T) { relate(t, e.shapes, oracles) })
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
