package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tcfpram/bench/gen"
	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/serve"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// allKinds is every execution variant, the per-thread ones after
// single-instruction, as relate reads them.
var allKinds = []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction,
	variant.SingleOperation, variant.ConfigurableSingleOperation, variant.FixedThickness}

var tcfKinds, siOnly = allKinds[:3], allKinds[:1]

// entry is one program of the lattice: its code, the machines it runs on and,
// when it has one, its own reference, which the oracle of every shape is held
// to.
type entry struct {
	name   string
	c      *codegen.Compiled
	shapes []shape
	check  func(*machine.Machine) error
	quick  []string // when set, the only rows the entry runs in
}

// shape is one machine a program runs on: a variant's default configuration
// changed by tweak.
type shape struct {
	name  string
	kind  variant.Kind
	tweak func(*machine.Config)
	quick []string // when set, the only rows the shape runs in
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

// affineSrc computes on thread indices at 80 to 300 lanes, where the lane
// kernels keep registers in affine form: TID-indexed stores and loads,
// addresses of stride 2, a shift then an XOR, which the form cannot take, and
// an mpadd of the thread index, in a loop that changes the thickness; then,
// at the auto-split threshold of affineShapes, an index that outlives two
// thickness changes: a narrower one, under which its form covers every lane
// and hides some, and back, which uncovers them.
const affineSrc = `
shared int a[512] @ 1024;
shared int b[512] @ 1536;
shared int c[512] @ 2048;
shared int total @ 3000;
func main() {
    #256;
    a[tid] = tid * 3 + 1;
    b[tid * 2] = tid - 5;
    b[tid * 2 + 1] = (tid << 3) ^ tid;
    for (int i = 0; i < 3; i += 1) {
        #256 - i * 64;
        c[tid + i * 64] = a[tid * 2 + i] + b[tid + 1] + mpadd(&total, tid);
    }
    #100;
    thick int k = tid * 2 + 1;
    #80;
    c[tid + 300] = k + a[k];
    #100;
    c[tid + 400] = k + b[tid];
    #1;
    print(total);
    print(c[0] + c[299] + c[399]);
}`

// affineShapes are the machines affineSrc runs on: every variant — the three
// with a fixed thread set stop at its first #, as their oracles do —
// Balanced slicing instructions into stretches of 100 lanes, and auto-split
// into fragments of at most 100.
var affineShapes = append(on(allKinds, small),
	shape{name: "balanced-100", kind: variant.Balanced,
		tweak: func(c *machine.Config) { small(c); c.BalancedBound = 100 }},
	shape{name: "single-instruction-autosplit100", kind: variant.SingleInstruction,
		tweak: func(c *machine.Config) { small(c); c.AutoSplitThreshold = 100 }})

// programs is the lattice's one program list: the tcf-e corpus on every
// variant and on autoSplits, each held to its "// EXPECT:" line (to extend
// it, add a .te file with an EXPECT line to internal/codegen/testdata); the
// commit-bound, gather, 513-lane and bank-offset programs and three workload
// kernels at 2^10 on single-instruction; the affine program on affineShapes;
// splitPrograms; the occupancy cases on the variants and machine shapes that
// idle their groups; the five engine-thick kernels at 2^10 on the TCF
// variants, in fresh, step and reset; and the seeds of each generator, quick
// past its first full.
func programs(tb testing.TB) []entry {
	tb.Helper()
	var es []entry
	for _, file := range corpusFiles(tb) {
		c, check := compileCorpus(tb, file)
		es = append(es, entry{name: filepath.Base(file), c: c, shapes: append(on(allKinds, nil), autoSplits(nil)...), check: check})
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
	es = append(es, entry{name: "bank-offset", c: bankOffsetProgram(), shapes: on(siOnly, nil)})
	es = append(es, entry{name: "affine", c: compileSrc(tb, "affine", affineSrc), shapes: affineShapes})
	crewSmall := func(c *machine.Config) { small(c); crew(c) }
	for _, p := range splitPrograms {
		es = append(es, entry{name: p.name, c: compileSrc(tb, p.name, p.src), shapes: append(on(tcfKinds, crewSmall), autoSplits(crewSmall)...)})
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
	for _, p := range gen.ThickKernels(1, gen.ThickShape{Thickness: 1 << 10, SharedWords: 1 << 15}) {
		e := entry{name: "thick-" + p.Name, c: compileSrc(tb, p.Name, p.Source), quick: []string{"fresh", "step", "reset"},
			shapes: on(tcfKinds, func(c *machine.Config) { c.SharedWords = p.SharedWords; c.BalancedBound = 100 })}
		if p.Discipline != "crcw" {
			es = append(es, e)
			continue
		}
		for _, s := range e.shapes { // an arbitrary-CRCW answer differs between variants, which relate would compare
			e.name, e.shapes = "thick-"+p.Name+"-"+s.name, []shape{s}
			es = append(es, e)
		}
	}
	for seed := int64(1); seed <= genSeeds; seed++ { // seed by seed: a cell's other program follows the order
		for _, gen := range generators {
			if seed > gen.seeds {
				continue
			}
			e := gen.build(seed)
			if seed <= gen.full {
				e.quick = nil
			}
			es = append(es, e)
		}
	}
	return es
}

// outcome is everything a run shows: the error that stopped it, its outputs,
// the whole shared memory, Stats, a digest of its step records, and — not
// compared — how many lanes the bulk kernels ran, for a kill row how many
// shared words had been written by its last kill, for a reuse row whether the
// program before it stopped the way the row stops it, and for the checkpoint
// row how many of its snapshots a kill row took too.
type outcome struct {
	err          error
	outputs      []machine.Output
	memory       []int64
	stats        machine.Stats
	trace        uint64 // traceSum, 0 when the run did not trace
	bulk         int64
	writesAtKill int64
	stopped      bool
	sharedSnaps  int
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

// cell is one (program, shape) of the lattice: its oracle, the configuration
// rows apply their delta to, and what the rows run in it must agree on among
// themselves.
type cell struct {
	name   string
	e      *entry
	other  *entry // the program the reset and abort rows run first
	cfg    machine.Config
	oracle *outcome
	snaps  map[int64]uint64 // kill step → hash of the snapshot taken there
}

// fullCapability says kind runs every program: it may change thickness,
// split and switch to NUMA mode.
func fullCapability(kind variant.Kind) bool {
	p := kind.Props()
	return p.VariableThickness && p.ControlParallel && p.NUMAOperation
}

// costLaw holds a run to its variant's step cost law (Table 1, Figure 13),
// whether it completed or stopped: a task switch costs the policy's rate,
// TaskSwitchCycles(Tp) for a rotation and PreemptCycles(Tp) for a time-slice
// preemption; a split child costs FlowBranchCycles(R) and an
// auto-split fragment the TCF rate R; a variant without control parallelism
// never splits, nor does a machine without an auto-split threshold
// fragment; every cost and frontend event lands in its one stage; and under a
// per-thread fetch (Table 1's XMT discipline) a traced run that completed
// fetched once per thread of every instruction it executed: InstrFetches is
// the sum over its trace's slices of max(1, Lanes), a thickness-u
// instruction u fetches and a thin one, or one of thickness 0, one.
func costLaw(m *machine.Machine) error {
	cfg, s := m.Config(), m.Stats()
	pol, err := variant.PolicyFor(cfg.Variant)
	if err != nil {
		return err
	}
	rotate, preempt := pol.TaskSwitchCycles(cfg.ProcsPerGroup), pol.PreemptCycles(cfg.ProcsPerGroup)
	extra, preempted := s.TaskSwitchCycles-s.TaskSwitches*rotate, int64(0)
	if cfg.TimeSliceSteps > 0 && preempt != rotate {
		preempted = extra / (preempt - rotate)
	}
	if extra != preempted*(preempt-rotate) || preempted < 0 || preempted > s.TaskSwitches {
		return fmt.Errorf("%d task switches cost %d cycles, not %d per rotation and %d per preemption", s.TaskSwitches, s.TaskSwitchCycles, rotate, preempt)
	}
	var children, fragments int64
	for _, f := range m.Flows() {
		switch {
		case f.IsFragment:
			fragments++
		case f.Parent != nil:
			children++
		}
	}
	if want := children*pol.FlowBranchCycles(isa.NumSRegs) + fragments*isa.NumSRegs; s.FlowBranchCycles != want {
		return fmt.Errorf("%d split children and %d fragments cost %d flow-branch cycles, the policy's rates %d", children, fragments, s.FlowBranchCycles, want)
	}
	if !cfg.Variant.Props().ControlParallel && s.Splits != 0 || cfg.AutoSplitThreshold == 0 && s.AutoSplits != 0 {
		return fmt.Errorf("%d splits and %d auto-splits on a machine that has neither", s.Splits, s.AutoSplits)
	}
	st := &s.Stages
	for _, c := range []struct {
		stage     machine.Stage
		got, want int64
	}{
		{machine.StageOpGen, st[machine.StageOpGen].Cycles, s.Ops + s.ScalarOps},
		{machine.StageOpGen, st[machine.StageOpGen].Events, s.InstrFetches},
		{machine.StageMemory, st[machine.StageMemory].Cycles, s.OverheadCycles + s.StallCycles},
		{machine.StageFrontend, st[machine.StageFrontend].Cycles, s.FlowBranchCycles + s.TaskSwitchCycles},
		{machine.StageFrontend, st[machine.StageFrontend].Events, s.Splits + s.Joins + s.AutoSplits + s.TaskSwitches},
	} {
		if c.got != c.want {
			return fmt.Errorf("%v stage: %d cycles or events, its costs %d: %+v", c.stage, c.got, c.want, s.Stages)
		}
	}
	shape := pol.Shape(variant.MachineShape{Groups: cfg.Groups, ProcsPerGroup: cfg.ProcsPerGroup,
		BalancedBound: cfg.BalancedBound, MultiInstrWindow: cfg.MultiInstrWindow, VectorWidth: cfg.VectorWidth})
	if shape.PerThreadFetch && cfg.TraceEnabled && m.Err() == nil {
		var threads int64
		for _, r := range m.Trace() {
			for _, sl := range r.Slices {
				threads += int64(max(1, sl.Lanes))
			}
		}
		if s.InstrFetches != threads {
			return fmt.Errorf("per-thread fetch: %d instruction fetches for %d executed threads", s.InstrFetches, threads)
		}
	}
	return nil
}

// newCell runs the oracle of e on s. The oracle is held to the cost law, to
// e's own reference, when it stops with an error to the capabilities of its
// variant — only a variant without every capability refuses a program, and
// then it says which capability — and, on a TCF variant, to the thickness
// ceiling the analyzer recorded for a tcf-e program: no flow is thicker,
// unless the ceiling is unbounded (-1).
func newCell(t testing.TB, e, other *entry, s shape) *cell {
	t.Helper()
	cfg := machine.Default(s.kind)
	if s.tweak != nil {
		s.tweak(&cfg)
	}
	build := buildOracle
	if e.quick != nil || s.quick != nil {
		build = buildReference // no quick row traces
	}
	m := build(t, e.c, cfg)
	_, err := m.Run()
	c := &cell{name: e.name + "/" + s.name, e: e, other: other, cfg: cfg,
		oracle: observe(m, err), snaps: map[int64]uint64{}}
	if err := costLaw(m); err != nil {
		t.Fatalf("%s: the oracle breaks the cost law: %v", c.name, err)
	}
	if err != nil && fullCapability(s.kind) == strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("%s: %v stopped the oracle with %v", c.name, s.kind, err)
	}
	if e.check != nil {
		if err := e.check(m); err != nil {
			t.Fatalf("%s: the oracle fails the program's reference: %v", c.name, err)
		}
	}
	if ceiling, got := e.c.ThickCeiling, m.KernelStats().MaxThickness; ceiling > 0 && got > ceiling && slices.Contains(tcfKinds, s.kind) {
		t.Fatalf("%s: the analyzer's thickness ceiling is %d, the oracle's flows reached %d", c.name, ceiling, got)
	}
	return c
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

// reused is the lifecycle of a machine that goes back into a tcfserve pool:
// dirty runs another program on the machine build makes and stops it, the
// machine is Reset, under mem.ResetAudit, and given the row's limits back, and
// the cell's program runs on it. dirty returns the machine to reuse — the one
// it built or one it restored — and whether the program stopped the way the
// row is about, which is when the row engages.
func reused(dirty func(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool)) lifecycle {
	return func(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
		m, stopped := dirty(t, c, cfg, build)
		m.Reset()
		if err := m.SetLimits(cfg.MaxSteps, cfg.MaxThickness); err != nil {
			t.Fatal(err)
		}
		loadInto(t, m, c.e.c)
		_, err := m.Run()
		o := observe(m, err)
		o.stopped = stopped
		return o
	}
}

// seededStep is the step of the other program at which a reuse row stops it,
// seeded from the cell: anywhere in a run as long as the cell's.
func seededStep(c *cell) int64 {
	return 1 + int64(hash([]byte(c.name))%uint64(max(1, c.oracle.stats.Steps)))
}

// ranOther runs the next program of the list to its end, a refusal included:
// its result is only dirt to clear.
func ranOther(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	m := build(t, c.other.c, cfg)
	_, _ = m.Run()
	return m, true
}

// quotaStopped runs the next program of the list under a step quota until
// ErrMaxSteps stops it mid-run: a quota-stopped tcfserve lease.
func quotaStopped(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	m := build(t, c.other.c, cfg)
	if err := m.SetLimits(seededStep(c), 0); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	return m, errors.Is(err, machine.ErrMaxSteps)
}

// canceled cancels the next program of the list's RunContext at the seeded
// step, as a tcfserve request's deadline does.
func canceled(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	m, at := build(t, c.other.c, cfg), seededStep(c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := m.RunUntil(ctx, func(m *machine.Machine) bool {
		if m.Stats().Steps >= at {
			cancel()
		}
		return false
	})
	return m, errors.Is(err, machine.ErrCanceled)
}

// waiting starts a program of the reuse rows: a seeded wait of one to eight
// loop rounds, and a base address seeded from the cell below words-128.
func waiting(c *cell, name string, words int) (*isa.Builder, int64) {
	seed := hash([]byte(c.name))
	b := isa.NewBuilder(name)
	b.Label("main")
	b.Ldi(isa.S(1), int64(1+seed%8))
	b.Label("wait")
	b.ALUI(isa.SUB, isa.S(1), isa.S(1), 1)
	b.Branch(isa.BNEZ, isa.S(1), "wait")
	return b, int64(seed % uint64(words-128))
}

// failingProgram stops on a runtime error in the middle of a step: after the
// wait, four arms start together, and in their second step two store a thick
// vector and one adds into a combining word while the third sets a negative
// thickness, so the groups before its own have folded their traffic when it
// fails.
func failingProgram(c *cell, words int) *codegen.Compiled {
	b, base := waiting(c, "failing", words)
	b.Ldi(isa.S(5), -1)
	b.Split(isa.ArmImm(64, "store"), isa.ArmImm(64, "combine"), isa.ArmImm(1, "fail"), isa.ArmImm(64, "store"))
	b.Halt()
	b.Label("store")
	b.Id(isa.TID, isa.V(0))
	b.St(isa.V(0), base, isa.V(0))
	b.Op(isa.JOIN)
	b.Label("combine")
	b.Id(isa.TID, isa.V(0))
	b.Multi(isa.MADD, isa.RegNone, base+100, isa.V(0))
	b.Op(isa.JOIN)
	b.Label("fail")
	b.Op(isa.NOP)
	b.SetThick(isa.S(5))
	b.Op(isa.JOIN)
	return &codegen.Compiled{Program: b.MustBuild()}
}

// failed runs failingProgram to its runtime error.
func failed(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	m := build(t, failingProgram(c, cfg.SharedWords), cfg)
	_, err := m.Run()
	return m, err != nil && strings.Contains(err.Error(), "negative thickness")
}

// panicked runs the next program of the list until its stop function
// panics at the seeded step boundary, and recovers the panic: it unwinds out
// of RunUntil with live flows and filled storage buffers, the state tcfserve
// recovers a panic in.
func panicked(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	at := seededStep(c)
	m := build(t, c.other.c, cfg)
	return m, func() (p bool) {
		defer func() { p = recover() != nil }()
		_, _ = m.RunUntil(context.Background(), func(m *machine.Machine) bool {
			if m.Stats().Steps >= at {
				panic("injected panic at a step boundary")
			}
			return false
		})
		return false
	}()
}

// discardedProgram ends in a step the discipline checker discards: after the
// wait it stores a 16-lane vector, then stores again with two lanes to each
// word, a concurrent write no exclusive-write discipline admits.
func discardedProgram(c *cell, words int) *codegen.Compiled {
	b, base := waiting(c, "discarded", words)
	b.SetThickImm(16)
	b.Id(isa.TID, isa.V(0))
	b.St(isa.V(0), base, isa.V(0))
	b.ALUI(isa.SHR, isa.V(1), isa.V(0), 1)
	b.St(isa.V(1), base+32, isa.V(0))
	b.Halt()
	return &codegen.Compiled{Program: b.MustBuild()}
}

// discarded runs discardedProgram until the checker discards its step.
func discarded(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	m := build(t, discardedProgram(c, cfg.SharedWords), cfg)
	_, err := m.Run()
	return m, errors.Is(err, machine.ErrDisciplineViolation)
}

// restoredOther steps the next program of the list to the seeded step,
// restores its snapshot into a new machine, Resets that one — it holds only
// pages the restore wrote — restores again, runs three more steps and
// abandons the run, as a recovered tcfserve run that fails after its restore
// is abandoned.
func restoredOther(t *testing.T, c *cell, cfg machine.Config, build builder) (*machine.Machine, bool) {
	src := build(t, c.other.c, cfg)
	if err := src.Boot(); err != nil {
		return src, false
	}
	for at := seededStep(c); src.Stats().Steps < at; {
		if src.Done() || src.Step() != nil {
			return src, false
		}
	}
	if src.Done() {
		return src, false
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatalf("%s: snapshot: %v", c.name, err)
	}
	restore := func() *machine.Machine {
		m, err := machine.Restore(bytes.NewReader(snap.Bytes()), cfg)
		if err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		return m
	}
	restore().Reset()
	m := restore()
	for range 3 {
		if m.Done() || m.Step() != nil {
			break
		}
	}
	return m, true
}

// pooled is a tcfserve lease: a serve.MachinePool of one machine leases it,
// the next program of the list runs on it under the seeded step quota, the
// lease is Released — the pool's Reset — and the next Get must hand the same
// machine back, which runs the cell's program with the row's limits stamped
// on, every Reset audited. The row engages where the quota stopped the first
// lease.
func pooled(t *testing.T, c *cell, cfg machine.Config, _ builder) *outcome {
	pool := serve.NewMachinePool(1)
	lease := func(maxSteps int64, prog *codegen.Compiled) *serve.Lease {
		l, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.M.SetLimits(maxSteps, cfg.MaxThickness); err != nil {
			t.Fatal(err)
		}
		loadInto(t, l.M, prog)
		return l
	}
	first := lease(seededStep(c), c.other.c)
	_, err := first.M.RunContext(context.Background())
	stopped := errors.Is(err, machine.ErrMaxSteps)
	first.Release()
	l := lease(cfg.MaxSteps, c.e.c)
	if !l.Pooled || l.M != first.M {
		t.Fatalf("%s: the second lease was not the first one's machine", c.name)
	}
	_, err = l.M.RunContext(context.Background())
	o := observe(l.M, err)
	o.stopped = stopped
	l.Release()
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

// killStep is the step a kill row kills the cell's run at, and the checkpoint
// row's period: seeded from the cell, anywhere in the run, the last step
// included when the run completes. A kill there restores a finished machine,
// whose snapshot RunContext takes when the period divides the run.
func killStep(c *cell) int64 {
	last := c.oracle.stats.Steps
	if c.oracle.err != nil {
		last-- // the step a run stops in takes no snapshot
	}
	return 1 + int64(hash([]byte(c.name))%uint64(max(1, last)))
}

// killed is the crash-recovery lifecycle: the run, on the machine build
// makes, is killed by its checkpoint sink at k = killStep, restored — into
// the production machine, as a snapshot does not say which machine took it —
// in the same configuration and run on; with times = 2, k is folded into the
// run's first half, and the restored run is killed again at 2k and restored
// again. Snapshots taken at one step of a cell must be the same bytes,
// whichever row and machine took them (the fold keeps k for half the cells),
// and every Reset is audited. The outcome records the shared words the run had
// written by its last kill.
func killed(times int) lifecycle {
	return func(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
		total := c.oracle.stats.Steps
		if total < 1+int64(times) {
			return nil
		}
		k := killStep(c)
		if times == 2 {
			k = 1 + (k-1)%((total-1)/2)
		}
		sink := &killSink{}
		var m *machine.Machine
		var writes int64
		for i := 0; ; i++ {
			var err error
			if i == 0 {
				m = build(t, c.e.c, cfg)
			} else if m, err = machine.Restore(bytes.NewReader(sink.snap.Bytes()), cfg); err != nil {
				t.Fatalf("%s: restore at step %d: %v", c.name, int64(i)*k, err)
			}
			if i < times {
				if err := m.SetCheckpointing(k, sink); err != nil {
					t.Fatal(err)
				}
			}
			_, err = m.Run()
			if i == times {
				o := observe(m, err)
				o.writesAtKill = writes
				m.Reset()
				return o
			}
			if !errors.Is(err, errKilled) {
				t.Fatalf("%s: kill %d at step %d never came: %v", c.name, i+1, int64(i+1)*k, err)
			}
			writes = m.Stats().SharedWrites
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

// checkpointed is a recoverable tcfserve run: it checkpoints every killStep
// steps and goes on. Taking the snapshots must not change the run, and each
// must be the bytes every other row took at its step.
func checkpointed(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	total := c.oracle.stats.Steps
	if total < 2 {
		return nil
	}
	sink := &snapSink{c: c}
	m := build(t, c.e.c, cfg)
	if err := m.SetCheckpointing(killStep(c), sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	if sink.err != nil {
		t.Fatalf("%s: %v", c.name, sink.err)
	}
	o := observe(m, err)
	o.sharedSnaps = sink.shared
	return o
}

// admitted is a tcfserve run admitted on a cost-memo miss (DESIGN.md §13):
// analysis.CostOn, with ParamsFor the cell's configuration, runs the
// production machine under the prediction's budgets, the report is held to
// the oracle (checkReport), and the run goes on on the same machine. Then
// the quota leg, where the report resolved a clean run of two steps or more:
// the machine is Reset and loaded again under a quota one step short of the
// prediction, which must stop it with ErrMaxSteps; the row engages there.
func admitted(t *testing.T, c *cell, cfg machine.Config, build builder) *outcome {
	m := build(t, c.e.c, cfg)
	rep, err := analysis.CostOn(context.Background(), m, c.e.c, analysis.ParamsFor(cfg))
	if err := checkReport(rep, c.oracle); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if err == nil {
		_, err = m.RunContext(context.Background())
	}
	o := observe(m, err)
	if steps := rep.Steps.Min; rep.Resolved && rep.Note == "" && steps >= 2 {
		m.Reset()
		if err := m.SetLimits(steps-1, cfg.MaxThickness); err != nil {
			t.Fatal(err)
		}
		loadInto(t, m, c.e.c)
		if _, err := m.Run(); !errors.Is(err, machine.ErrMaxSteps) {
			t.Fatalf("%s: a quota of %d steps, one short of the prediction, stopped the run with %v", c.name, steps-1, err)
		}
		o.stopped = true
	}
	return o
}

// checkReport holds a cost report to the oracle of the run it predicts: a
// resolved report notes the oracle's error, or none where the oracle
// completed, and is exact in all 19 bounds, each the oracle's Stats field; an
// unresolved report's minimums are lower bounds of them.
func checkReport(rep *analysis.CostReport, oracle *outcome) error {
	note := ""
	if oracle.err != nil {
		note = oracle.err.Error()
	}
	if rep.Resolved && rep.Note != note {
		return fmt.Errorf("the report notes %q, the oracle stopped with %v", rep.Note, oracle.err)
	}
	s := &oracle.stats
	for _, f := range []struct {
		name string
		b    analysis.Bound
		stat int64
	}{
		{"steps", rep.Steps, s.Steps}, {"cycles", rep.Cycles, s.Cycles}, {"ops", rep.Ops, s.Ops},
		{"scalar_ops", rep.ScalarOps, s.ScalarOps}, {"instr_fetches", rep.InstrFetches, s.InstrFetches},
		{"shared_reads", rep.SharedReads, s.SharedReads}, {"shared_writes", rep.SharedWrites, s.SharedWrites},
		{"local_reads", rep.LocalReads, s.LocalReads}, {"local_writes", rep.LocalWrites, s.LocalWrites},
		{"multiop_refs", rep.MultiopRefs, s.MultiopRefs}, {"overhead_cycles", rep.OverheadCycles, s.OverheadCycles},
		{"stall_cycles", rep.StallCycles, s.StallCycles}, {"flow_branch_cycles", rep.FlowBranchCycles, s.FlowBranchCycles},
		{"task_switch_cycles", rep.TaskSwitchCycles, s.TaskSwitchCycles}, {"barriers", rep.Barriers, s.Barriers},
		{"splits", rep.Splits, s.Splits}, {"joins", rep.Joins, s.Joins}, {"flows_created", rep.FlowsCreated, s.FlowsCreated},
		{"max_live_flows", rep.MaxLiveFlows, int64(s.MaxLiveFlows)},
	} {
		if rep.Resolved && (!f.b.Exact() || f.b.Min != f.stat) || f.b.Min > f.stat {
			return fmt.Errorf("%s: predicted %v, the oracle's %d (%s)", f.name, f.b, f.stat, rep.Reason)
		}
	}
	return nil
}

func hash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// row is one engine configuration of the lattice: a delta on the oracle's
// configuration, and the lifecycle its runs go through.
type row struct {
	name    string
	build   builder // the machine the row runs; buildRun when nil
	delta   func(*machine.Config)
	life    lifecycle
	free    func(*machine.Stats)            // zeroes the Stats fields the row may change
	engaged func(got, oracle *outcome) bool // must hold on atLeast programs (one when 0) of a pass
	atLeast int
	drops   error // a run that stops on it leaves its program out of the row
}

var (
	traced = func(c *machine.Config) { c.TraceEnabled = true }
	crew   = func(c *machine.Config) { c.MemDiscipline = mem.DisciplineCREW }

	discAccesses = func(s *machine.Stats) { s.DiscReads, s.DiscWrites = 0, 0 }

	moreBulk = func(got, oracle *outcome) bool { return got.bulk > oracle.bulk }
	// wroteAfter: the restored run stored to shared memory after its kill, so
	// the restore carried state a later write had to land on.
	wroteAfter  = func(got, _ *outcome) bool { return got.stats.SharedWrites > got.writesAtKill }
	completed   = func(_, _ *outcome) bool { return true }
	stopped     = func(got, _ *outcome) bool { return got.stopped }
	snapsShared = func(got, _ *outcome) bool { return got.sharedSnaps > 0 }
)

// rows is the lattice: a covering set of machine × lifecycle, not the
// product. A row runs the production machine unless it names the
// reference: ref-kill restores a snapshot the reference took into the
// production machine. checkpoint comes after the kill rows, so the
// snapshots it takes are held to theirs.
var rows = []row{
	{name: "fresh", life: fresh},
	{name: "traced", delta: traced, life: fresh},
	{name: "step", life: stepped, engaged: moreBulk, atLeast: 12},
	{name: "crew-step", delta: crew, life: stepped,
		free: discAccesses, engaged: completed, atLeast: 8, drops: machine.ErrDisciplineViolation},
	{name: "reset", life: reused(ranOther)},
	{name: "abort", life: reused(quotaStopped), engaged: stopped},
	{name: "cancel", life: reused(canceled), engaged: stopped},
	{name: "error", life: reused(failed), engaged: stopped},
	{name: "panic", life: reused(panicked), engaged: stopped},
	{name: "discard", delta: crew, life: reused(discarded),
		free: discAccesses, engaged: stopped, atLeast: 8, drops: machine.ErrDisciplineViolation},
	{name: "restored", life: reused(restoredOther), engaged: stopped},
	{name: "pooled", life: pooled, engaged: stopped},
	{name: "kill", life: killed(1), engaged: wroteAfter},
	{name: "kill2", life: killed(2)},
	{name: "ref-kill", build: buildReference, life: killed(1), engaged: wroteAfter},
	{name: "checkpoint", life: checkpointed, engaged: snapsShared},
	{name: "admitted", life: admitted, engaged: stopped, atLeast: 60},
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

// relate holds one program's oracles, one per shape, to what the
// model says relates them: every shape that completes the program leaves the
// same shared memory; single-instruction, balanced, multi-instruction and
// fixed-thickness print the same values; the per-thread variants, listed after
// one of those, print what it printed in a step P·Tp times in a row; and
// Section 3.3's OS splitting is invisible to the program: an auto-split shape
// completes where its variant's unsplit shape does, and prints the same texts
// in the same order too. (A variant that refuses a program refuses it under
// every row: rows compare errors.)
func relate(t *testing.T, shapes []shape, oracles []*outcome) {
	if slices.Contains(oracles, nil) {
		t.Skip("the oracles come from the shapes' subtests: -run the whole program to relate its variants")
	}
	values := func(outs []machine.Output) (v [][]int64) {
		for _, o := range outs {
			v = append(v, o.Values)
		}
		return v
	}
	texts := func(outs []machine.Output) (s []string) {
		for _, o := range outs {
			s = append(s, o.Text)
		}
		return s
	}
	first, printer := -1, -1 // the first shape to complete, the first of those that prints per step
	for i, o := range oracles {
		if base, _, split := strings.Cut(shapes[i].name, "-autosplit"); split {
			j := slices.IndexFunc(shapes, func(s shape) bool { return s.name == base })
			switch {
			case j < 0 || oracles[j].err != nil:
			case o.err != nil:
				t.Errorf("%s stops with %v, %s completes", shapes[i].name, o.err, base)
			case !slices.Equal(texts(o.outputs), texts(oracles[j].outputs)):
				t.Errorf("%s prints %q, %s %q", shapes[i].name, texts(o.outputs), base, texts(oracles[j].outputs))
			}
		}
		if o.err != nil {
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

// poisoned runs tb's machines with tcf.PoisonBanks and mem.ResetAudit on: every
// bank the register arenas lend comes filled with tcf.Poison, as a pooled
// machine's come with an earlier tenant's lanes, so that a lane a row reads
// before the run wrote it differs from the oracle's, which never takes a bank
// unzeroed; and every Reset checks that it left no word written.
func poisoned(tb testing.TB) {
	tcf.PoisonBanks.Store(true)
	mem.ResetAudit.Store(true)
	tb.Cleanup(func() {
		tcf.PoisonBanks.Store(false)
		mem.ResetAudit.Store(false)
	})
}

// runs says whether row runs in shape s of e: neither leaves it out.
func runs(e *entry, s shape, row string) bool {
	in := func(quick []string) bool { return quick == nil || slices.Contains(quick, row) }
	return in(e.quick) && in(s.quick)
}

// TestLattice is the one differential harness of the engine: every program of
// the list, on every shape it runs on, under every row, poisoned, is held to
// the oracle of its (program, shape) by compare, and its shapes' oracles to
// one another by relate. Subtests are TestLattice/<program>/<shape>/<row> and
// TestLattice/<program>/variants (DESIGN.md §5).
func TestLattice(t *testing.T) {
	poisoned(t)
	progs := programs(t)
	// row → cells it must run in, cells it ran in, programs it engaged on
	cells, ran, hits := map[string]int{}, map[string]int{}, map[string]int{}
	// variant → its shapes, those whose oracles ran, those that completed
	shapes, oracled, completed := map[variant.Kind]int{}, map[variant.Kind]int{}, map[variant.Kind]int{}
	for i := range progs {
		e, other := &progs[i], &progs[(i+1)%len(progs)]
		for _, s := range e.shapes {
			shapes[s.kind]++
			for _, r := range rows {
				if runs(e, s, r.name) {
					cells[r.name]++
				}
			}
		}
		t.Run(e.name, func(t *testing.T) {
			oracles, hit := make([]*outcome, len(e.shapes)), map[string]bool{}
			for k, s := range e.shapes {
				t.Run(s.name, func(t *testing.T) {
					c := newCell(t, e, other, s)
					oracles[k] = c.oracle
					oracled[s.kind]++
					if oracles[k].err == nil {
						completed[s.kind]++
					}
					for _, r := range rows {
						if !runs(e, s, r.name) {
							continue
						}
						t.Run(r.name, func(t *testing.T) {
							ran[r.name]++
							if hold(t, r, c) {
								hit[r.name] = true
							}
						})
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
	for _, kind := range allKinds {
		if oracled[kind] == shapes[kind] && completed[kind] == 0 {
			t.Errorf("no %v oracle completed: the cost law holds on no whole run of it", kind)
		}
	}
}

// FuzzLattice fuzzes the lattice over (seed, program, variant, row): program
// indexes the program list and then the generators, which build from seed;
// variant indexes the program's shapes.
func FuzzLattice(f *testing.F) {
	poisoned(f)
	progs := programs(f)
	for i := range rows { // every row, every variant of a corpus program
		f.Add(int64(i), i, i, i)
	}
	for g := range generators {
		f.Add(int64(100+g), len(progs)+g, g, g)
	}
	f.Fuzz(func(t *testing.T, seed int64, program, kind, r int) {
		at := func(i, n int) int { return (i%n + n) % n }
		p := at(program, len(progs)+len(generators))
		var e entry
		if p < len(progs) {
			e = progs[p]
		} else {
			e = generators[p-len(progs)].build(seed)
		}
		s := e.shapes[at(kind, len(e.shapes))]
		e.quick, s.quick = nil, nil // any row runs here: its oracle traces
		c := newCell(t, &e, &progs[at(p+1, len(progs))], s)
		hold(t, rows[at(r, len(rows))], c)
	})
}

// TestAffineEntryTakesForms: the affine entry engages what it is there for.
// On every shape that runs it past its first # the production machine
// leaves columns to affine forms and materialises some of them — except
// Balanced at its default bound, which slices every instruction of the
// program — and the auto-split shape splits.
func TestAffineEntryTakesForms(t *testing.T) {
	c := compileSrc(t, "affine", affineSrc)
	for _, s := range affineShapes {
		cfg := machine.Default(s.kind)
		s.tweak(&cfg)
		m := buildRun(t, c, cfg)
		if _, err := m.Run(); err != nil || s.name == "balanced" {
			continue // a fixed thread set, or no instruction whole
		}
		if ks := m.KernelStats(); ks.ColumnsSkipped == 0 || ks.ColumnsMaterialised == 0 {
			t.Errorf("%s: %v", s.name, ks)
		}
		if cfg.AutoSplitThreshold > 0 && m.Stats().AutoSplits == 0 {
			t.Errorf("%s: never split", s.name)
		}
	}
}

// TestStoresTakeRunForms: the bulk store hands the commit its words where
// they lie. On the default single-instruction machine the affine entry and
// saxpy-loop (bench/gen, at 256 lanes) commit words by a dense base and
// values from a register bank or an affine form; the reference machine and
// multi-instruction, whose banks may change before the commit, copy every
// store.
func TestStoresTakeRunForms(t *testing.T) {
	saxpy := saxpyKernel(t, 256)
	for _, c := range []*codegen.Compiled{compileSrc(t, "affine", affineSrc), saxpy} {
		for _, run := range []struct {
			kind  variant.Kind
			ref   bool
			forms bool
		}{
			{variant.SingleInstruction, false, true},
			{variant.SingleInstruction, true, false},
			{variant.MultiInstruction, false, false},
		} {
			cfg := machine.Default(run.kind)
			m, err := machine.New(cfg)
			if run.ref {
				m, err = machine.NewReference(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			loadInto(t, m, c)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			cs := m.CommitStats()
			ok := cs.DenseWords == 0 && cs.RefWords == 0
			if run.forms {
				ok = cs.DenseWords > 0 && cs.RefWords > 0
			}
			if !ok {
				t.Errorf("%s on %v (reference %t): %v", c.Program.Name, run.kind, run.ref, cs)
			}
		}
	}
}
