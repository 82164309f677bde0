package machine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// The scans the step loop used to run every step, kept as the oracle the
// counters and buffer walks are held to: both go over every flow ever
// created.

func (m *Machine) liveFlowsScan() int {
	n := 0
	for _, f := range m.flowList {
		if f.State != tcf.Done {
			n++
		}
	}
	return n
}

func (m *Machine) anyReadyScan() bool {
	for _, f := range m.flowList {
		if f.State == tcf.Ready {
			return true
		}
	}
	return false
}

// checkOccupancy asserts, at a step boundary, that the live counter and the
// buffer walk agree with the scans and that every live flow sits in exactly
// one storage buffer.
func checkOccupancy(t *testing.T, m *Machine) {
	t.Helper()
	if got, want := m.live, m.liveFlowsScan(); got != want {
		t.Fatalf("step %d: live counter %d, scan finds %d", m.stats.Steps, got, want)
	}
	if got, want := m.anyReadyAnywhere(), m.anyReadyScan(); got != want {
		t.Fatalf("step %d: buffers say ready=%v, scan says %v", m.stats.Steps, got, want)
	}
	if m.runErr == nil && m.Done() != (m.liveFlowsScan() == 0) {
		t.Fatalf("step %d: Done()=%v with %d live flows", m.stats.Steps, m.Done(), m.liveFlowsScan())
	}
	held := make(map[*tcf.Flow]int)
	for _, g := range m.groups {
		live := 0
		for _, f := range g.Buf.Resident {
			held[f]++
			if f.State != tcf.Done {
				live++
			}
		}
		if got := g.Buf.Live(); got != live {
			t.Fatalf("step %d: group %d counts %d live residents, scan finds %d", m.stats.Steps, g.Index, got, live)
		}
		for i := 0; i < g.Buf.Pending.Len(); i++ {
			held[g.Buf.Pending.At(i)]++
		}
	}
	for _, f := range m.flowList {
		if f.State != tcf.Done && held[f] != 1 {
			t.Fatalf("step %d: live %v is in %d storage buffers", m.stats.Steps, f, held[f])
		}
	}
}

// occupancyShape is a tcf-e program and the configuration it runs under.
type occupancyShape struct {
	src   string
	tweak func(*Config)
}

// occupancyShapes are small versions of tcfbench's flow kernels plus an
// auto-split shape.
func occupancyShapes() map[string]occupancyShape {
	arms := func(n int, arm string) string { return strings.Repeat(arm+" ", n) }
	var tree func(node, level int) string
	tree = func(node, level int) string {
		s := fmt.Sprintf("tree[%d] = %d; ", node, node*7+level)
		if level == 4 {
			return s
		}
		return s + fmt.Sprintf("parallel { #1: { %s} #1: { %s} } ", tree(2*node+1, level+1), tree(2*node+2, level+1))
	}
	return map[string]occupancyShape{
		"multitask": {src: `
shared int results[160] @ 1024;
func main() {
    parallel { ` + arms(40, "#4: work();") + `}
    #160;
    print(radd(results[tid]));
}
func work() {
    thick int slot = (fid - 1) * 4 + tid;
    results[slot] = fid * 5 + tid;
    results[slot] = results[slot] * 3 + 1;
}`},
		"multitask-timeslice": {tweak: func(c *Config) { c.TimeSliceSteps = 2 }, src: `
shared int results[80] @ 1024;
func main() {
    parallel { ` + arms(40, "#2: work();") + `}
    #80;
    print(radd(results[tid]));
}
func work() {
    thick int slot = (fid - 1) * 2 + tid;
    for (int i = 0; i < fid % 5 + 1; i += 1) {
        results[slot] = results[slot] * 3 + i;
    }
}`},
		"splitjoin-tree": {src: `
shared int tree[31] @ 1024;
func main() {
    ` + tree(0, 0) + `
    #31;
    print(radd(tree[tid]));
}`},
		"barrier-ring": {src: `
shared int ring[16] @ 1024;
shared int seen[16] @ 1040;
func main() {
    parallel { ` + arms(16, "#1: node();") + `}
    #16;
    print(radd(seen[tid] * (tid + 1)));
}
func node() {
    int me = fid - 1;
    int acc = 0;
    for (int r = 0; r < 5; r += 1) {
        ring[(me + 1) & 15] = me * 3 + r;
        barrier;
        acc += ring[me];
        barrier;
    }
    seen[me] = acc;
}`},
		"barrier-oversubscribed": {src: `
shared int cell[24] @ 1024;
func main() {
    parallel { ` + arms(24, "#1: node();") + `}
    #24;
    print(radd(cell[tid]));
}
func node() {
    int me = fid - 1;
    for (int r = 0; r < 3; r += 1) {
        cell[(me + 5) % 24] = me + r;
        barrier;
    }
}`},
		"auto-split": {tweak: func(c *Config) { c.AutoSplitThreshold = 16 }, src: `
shared int a[96] @ 1024;
func main() {
    #96;
    a[tid] = tid * 3 + 1;
    #1;
    int s = 5;
    #80;
    a[tid] = a[tid] + s;
    #16;
    print(radd(a[tid * 6]));
}`},
		// 24 tasks on 16 slots, each of which goes overly thick: a container
		// waiting for its fragments is displaced to the queue by a task that
		// can run, completes there when the last fragment halts, and comes
		// back into a slot Done.
		"auto-split-queued": {tweak: func(c *Config) { c.AutoSplitThreshold = 16 }, src: `
shared int a[960] @ 1024;
func main() {
    parallel { ` + arms(24, "#1: work();") + `}
    #16;
    print(radd(a[tid * 60 + 7]));
}
func work() {
    int me = fid - 1;
    int spin = 0;
    for (int i = 0; i < me % 5; i += 1) { spin += i; }
    #40;
    a[me * 40 + tid] = tid + me + spin * 0;
}`},
	}
}

// checkTail asserts, at a step boundary, what compacting every buffer,
// committing and ordering outputs on every step would have left behind — the
// stages the step loop enters only for a step that has something for them. A
// flow that is Done stands only in a buffer marked for compaction; a free slot
// has no queue behind it; a blocked or waiting resident has no ready flow
// queued behind it, unless the step ended in a barrier release (released),
// which comes after compaction; the memory and the combiners retain nothing;
// and the step's outputs (from firstOut on) are what a stable sort by flow of
// the groups' outputs, concatenated in group order, gives.
func checkTail(t *testing.T, m *Machine, firstOut int, released bool) {
	t.Helper()
	step := m.stats.Steps
	for _, g := range m.groups {
		b := &g.Buf
		queued := b.Pending.flows()
		readyQueued := false
		for _, f := range queued {
			readyQueued = readyQueued || f.State == tcf.Ready
		}
		for _, f := range append(queued, b.Resident...) {
			if f.State == tcf.Done && !b.needsCompaction() {
				t.Fatalf("step %d: group %d holds %v Done and is not marked for compaction", step, g.Index, f)
			}
		}
		if len(queued) > 0 && len(b.Resident) < m.cfg.ProcsPerGroup {
			t.Fatalf("step %d: group %d has %d flows queued behind a free slot", step, g.Index, len(queued))
		}
		for _, f := range b.Resident {
			if (f.State == tcf.Blocked || f.State == tcf.Waiting) && readyQueued && !released {
				t.Fatalf("step %d: group %d keeps %v resident with a ready flow queued", step, g.Index, f)
			}
		}
	}
	if n := m.shared.PendingWrites(); n != 0 {
		t.Fatalf("step %d: the memory retains %d stores", step, n)
	}
	for k, c := range m.combiners {
		if c.Len() != 0 {
			t.Fatalf("step %d: combiner %d retains %d references", step, k, c.Len())
		}
	}
	var want []Output
	for _, x := range m.execs {
		if !x.idle {
			want = append(want, x.outputs...)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Flow < want[j].Flow })
	if got := m.output[firstOut:]; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("step %d: outputs %v, want %v", step, got, want)
	}
}

// tailJobs are the programs the tail tests step: the corpus and the flow
// shapes.
func tailJobs(t *testing.T) []tailJob {
	t.Helper()
	var jobs []tailJob
	files, err := filepath.Glob(filepath.Join("..", "codegen", "testdata", "*.te"))
	if err != nil || len(files) < 16 {
		t.Fatalf("corpus: %d programs, %v", len(files), err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := codegen.CompileSource(file, string(src))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, tailJob{name: filepath.Base(file), prog: c.Program, local: c.LocalData})
	}
	for name, sh := range occupancyShapes() {
		c, err := codegen.CompileSource(name, sh.src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jobs = append(jobs, tailJob{name: name, prog: c.Program, tweak: sh.tweak})
	}
	return jobs
}

type tailJob struct {
	name  string
	prog  *isa.Program
	local []sema.DataSeg
	tweak func(*Config)
}

// boot builds a machine for the job under cfg and boots it.
func (j tailJob) boot(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.bootOn(t, m)
	return m
}

// bootOn loads the job into m, a machine just built or Reset, and boots it.
func (j tailJob) bootOn(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.LoadProgram(j.prog); err != nil {
		t.Fatal(err)
	}
	for _, seg := range j.local {
		for _, g := range m.groups {
			if err := g.Local.Load(seg.Addr, seg.Words); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
}

// TestStepTailInvariants steps the corpus and the flow shapes under all six
// variants and both engines, and holds the skipped tail stages to checkTail
// after every Step, on a fresh machine and on one Reset after the next job
// of the list was stopped mid-run by a step quota (abort: a quota-stopped
// tcfserve lease back in the pool; the stop leaves flows queued, blocked and
// mid-call for Reset to clear). The auto-split-queued shape must really bring
// a Done container out of a queue into a slot: that is the one way a buffer
// comes to need compaction without a flow of it having run.
func TestStepTailInvariants(t *testing.T) {
	jobs := tailJobs(t)
	doneFromQueue, aborts, stopped := 0, 0, 0
	for i, j := range jobs {
		other := jobs[(i+1)%len(jobs)]
		for _, kind := range variant.Kinds() {
			for _, eng := range engines {
				for _, life := range []string{"fresh", "abort"} {
					name := fmt.Sprintf("%s/%v/%v/%s", j.name, kind, eng, life)
					t.Run(name, func(t *testing.T) {
						cfg := Default(kind)
						cfg.MaxSteps = 20000
						if j.tweak != nil {
							j.tweak(&cfg)
						}
						m, err := eng.new(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if life == "abort" {
							mem.ResetAudit.Store(true)
							defer mem.ResetAudit.Store(false)
							aborts++
							if other.abortOn(t, m, name) {
								stopped++
							}
						}
						j.bootOn(t, m)
						doneFromQueue += stepTail(t, m)
					})
				}
			}
		}
	}
	if doneFromQueue == 0 {
		t.Fatal("no auto-split container ever came out of a queue Done: the trap was not stepped through")
	}
	if aborts == len(jobs)*len(variant.Kinds())*len(engines) && stopped == 0 {
		t.Fatal("no quota stopped a job mid-run: the abort runs were fresh ones")
	}
}

// abortOn runs the job on m, a machine just built, under a step quota of 1
// to 32 seeded from name, Resets m and gives it back its configuration's
// limits, as tcfserve returns a quota-stopped lease to its pool. It reports
// whether the quota stopped the job mid-run.
func (j tailJob) abortOn(t *testing.T, m *Machine, name string) bool {
	t.Helper()
	limits := m.cfg
	if err := m.SetLimits(1+int64(crc32.ChecksumIEEE([]byte(name))%32), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(j.prog); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run()
	m.Reset()
	if err := m.SetLimits(limits.MaxSteps, limits.MaxThickness); err != nil {
		t.Fatal(err)
	}
	return errors.Is(err, ErrMaxSteps)
}

// stepTail steps a booted machine to the end of its run, or to its error,
// holding it to checkTail after every Step, and returns how often a Done
// container stood in a slot at a step boundary.
func stepTail(t *testing.T, m *Machine) (doneFromQueue int) {
	t.Helper()
	var blocked []*tcf.Flow
	for !m.Done() && m.stats.Steps < m.cfg.MaxSteps {
		blocked = blocked[:0]
		for _, f := range m.flowList {
			if f.State == tcf.Blocked {
				blocked = append(blocked, f)
			}
		}
		firstOut := len(m.output)
		if err := m.Step(); err != nil {
			return doneFromQueue
		}
		released := false
		for _, f := range blocked {
			released = released || f.State == tcf.Ready
		}
		checkTail(t, m, firstOut, released)
		for _, g := range m.groups {
			for _, f := range g.Buf.Resident {
				if f.State == tcf.Done { // compaction drops every other
					doneFromQueue++
				}
			}
		}
	}
	return doneFromQueue
}

// TestOccupancyCountersMatchScans steps every corpus program and the small
// flow shapes under all six variants and holds the O(1) bookkeeping to the
// scans after every Step, on a fresh machine and on one Reset after the next
// job was stopped mid-run by a step quota (abort), whose counters Reset must
// bring back to zero with live flows behind them. Programs a variant cannot
// run stop with an error; the counters must be right up to and including the
// failing step.
func TestOccupancyCountersMatchScans(t *testing.T) {
	jobs := tailJobs(t)
	completed, aborts, stopped := 0, 0, 0
	for i, j := range jobs {
		other := jobs[(i+1)%len(jobs)]
		for _, kind := range variant.Kinds() {
			for _, life := range []string{"fresh", "abort"} {
				name := fmt.Sprintf("%s/%v/%s", j.name, kind, life)
				t.Run(name, func(t *testing.T) {
					cfg := Default(kind)
					cfg.MaxSteps = 20000
					if j.tweak != nil {
						j.tweak(&cfg)
					}
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if life == "abort" {
						mem.ResetAudit.Store(true)
						defer mem.ResetAudit.Store(false)
						aborts++
						if other.abortOn(t, m, name) {
							stopped++
						}
					}
					j.bootOn(t, m)
					checkOccupancy(t, m)
					for !m.Done() && m.stats.Steps < cfg.MaxSteps {
						err := m.Step()
						checkOccupancy(t, m)
						if err != nil {
							return
						}
					}
					if m.Done() && life == "fresh" {
						completed++
					}
				})
			}
		}
	}
	if completed < len(jobs) {
		t.Fatalf("only %d of %d program × variant runs completed; the walk proved little", completed, len(jobs)*len(variant.Kinds()))
	}
	if aborts == len(jobs)*len(variant.Kinds()) && stopped == 0 {
		t.Fatal("no quota stopped a job mid-run: the abort runs were fresh ones")
	}
}

// TestRestoreMarksBuffersUnsettled: the mark a buffer carries for compaction
// is not in a snapshot, so a restored machine must look at every buffer once.
// Snapshots taken after every step of runs whose flows terminate in several
// groups in one step — and of the run that has a Done container standing in a
// slot at step boundaries — are restored and stepped on: after every further
// step the machine is, byte for byte, the uninterrupted run's.
func TestRestoreMarksBuffersUnsettled(t *testing.T) {
	for _, j := range tailJobs(t) {
		if j.name != "multitask" && j.name != "auto-split-queued" {
			continue
		}
		cfg := Default(variant.SingleInstruction)
		cfg.SharedWords = 1 << 12 // a snapshot a step and a restore for each: keep them small
		if j.tweak != nil {
			j.tweak(&cfg)
		}
		whole := j.boot(t, cfg)
		var after [][]byte // after[k]: the machine after k+1 steps
		for !whole.Done() {
			if err := whole.Step(); err != nil {
				t.Fatal(err)
			}
			after = append(after, machineBytes(t, whole))
		}
		for k := range after {
			m, err := Restore(bytes.NewReader(after[k]), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The first compaction is where a missing mark shows; the steps
			// behind it are checked through the end state.
			for n := k + 1; n < len(after); n++ {
				if n > k+3 {
					if _, err := m.Run(); err != nil {
						t.Fatal(err)
					}
					n = len(after) - 1
				} else if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(machineBytes(t, m), after[n]) {
					t.Fatalf("%s: restored after step %d, the machine differs after step %d", j.name, k+1, n+1)
				}
			}
		}
	}
}

// TestFlowQueueIsFIFOAcrossWrapAndGrowth: the ring must hand flows back in
// arrival order whatever its head position and however often it grew.
func TestFlowQueueIsFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q flowQueue
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(&tcf.Flow{ID: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if f := q.pop(); f.ID != want {
				t.Fatalf("popped flow %d, want %d", f.ID, want)
			}
			want++
		}
	}
	push(5)
	pop(3)
	push(6) // wraps inside the first array of 8
	pop(4)
	push(20) // grows with the head mid-array
	for i := 0; i < q.Len(); i++ {
		if id := q.At(i).ID; id != want+i {
			t.Fatalf("At(%d) = flow %d, want %d", i, id, want+i)
		}
	}
	pop(q.Len())
	if q.Len() != 0 || next != want {
		t.Fatalf("queue holds %d flows after draining, pushed %d, popped %d", q.Len(), next, want)
	}
}

// TestPendingQueueSurvivesReset: a 64-task program queues 48 flows behind
// the 16 slots and rotates them; run again on the Reset machine, the queues
// must be the same arrays — rotation and Reset keep the storage.
func TestPendingQueueSurvivesReset(t *testing.T) {
	b := isa.NewBuilder("tasks")
	b.Label("main")
	arms := make([]isa.Arm, 64)
	for i := range arms {
		arms[i] = isa.ArmImm(1, "task")
	}
	b.Split(arms...)
	b.Halt()
	b.Label("task")
	b.Id(isa.FID, isa.S(1))
	b.St(isa.S(1), 1024, isa.S(1))
	b.Op(isa.BAR)
	b.St(isa.S(1), 2048, isa.S(1))
	b.Op(isa.JOIN)
	prog := b.MustBuild()

	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.stats.TaskSwitches < 48 {
			t.Fatalf("only %d task switches: the queues never rotated", m.stats.TaskSwitches)
		}
	}
	run()
	first := make([]**tcf.Flow, len(m.groups))
	sizes := make([]int, len(m.groups))
	for i, g := range m.groups {
		if len(g.Buf.Pending.buf) < 8 {
			t.Fatalf("group %d queue holds %d entries after 64 tasks", i, len(g.Buf.Pending.buf))
		}
		first[i], sizes[i] = &g.Buf.Pending.buf[0], len(g.Buf.Pending.buf)
	}
	m.Reset()
	run()
	for i, g := range m.groups {
		if &g.Buf.Pending.buf[0] != first[i] || len(g.Buf.Pending.buf) != sizes[i] {
			t.Fatalf("group %d: the second run reallocated its pending queue (%d entries, was %d)",
				i, len(g.Buf.Pending.buf), sizes[i])
		}
	}
}

// spinTasks is a program of n thickness-thick tasks that never finish: each
// round a task bumps a register and, with barrier set, parks at a BAR, so the
// tasks beyond the machine's slots rotate through the storage buffers every
// step. The step loop's fixed cost is all there is to it.
func spinTasks(name string, n int, thick int64, barrier bool) *isa.Program {
	b := isa.NewBuilder(name)
	b.Label("main")
	arms := make([]isa.Arm, n)
	for i := range arms {
		arms[i] = isa.ArmImm(thick, "task")
	}
	b.Split(arms...)
	b.Halt()
	b.Label("task")
	b.Ldi(isa.S(1), 1<<40)
	b.Label("round")
	b.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	if barrier {
		b.Op(isa.BAR)
	}
	b.ALUI(isa.SUB, isa.S(1), isa.S(1), 1)
	b.Branch(isa.BNEZ, isa.S(1), "round")
	b.Op(isa.JOIN)
	return b.MustBuild()
}

// splitBurst splits into n arms that end at once: scalar arms of thickness one
// that read their flow id, or, with registers set, arms of thickness four that
// call a routine which fills two thread-wise registers — a header table, two
// thin banks and a call stack a flow.
func splitBurst(name string, n int, registers bool) *isa.Program {
	b := isa.NewBuilder(name)
	b.Label("main")
	arms := make([]isa.Arm, n)
	for i := range arms {
		arms[i] = isa.ArmImm(1, "task")
		if registers {
			arms[i] = isa.ArmImm(4, "task")
		}
	}
	b.Split(arms...)
	b.Halt()
	b.Label("task")
	if registers {
		b.Call("work")
		b.Op(isa.JOIN)
		b.Label("work")
		b.Id(isa.TID, isa.V(1))
		b.ALUI(isa.ADD, isa.V(2), isa.V(1), 1)
		b.Op(isa.RET)
	} else {
		b.Id(isa.FID, isa.S(1))
		b.Op(isa.JOIN)
	}
	return b.MustBuild()
}

// splitTree is a binary tree of splits, depth levels deep: every node but the
// leaves splits into two arms of thickness one and joins them.
func splitTree(depth int) *isa.Program {
	b := isa.NewBuilder("split_tree")
	b.Label("main")
	var node func(level int, label string)
	node = func(level int, label string) {
		if level == depth {
			b.Id(isa.FID, isa.S(1))
			return
		}
		l, r := label+"l", label+"r"
		b.Split(isa.ArmImm(1, l), isa.ArmImm(1, r))
		b.Jmp(label + "done")
		for _, arm := range []string{l, r} {
			b.Label(arm)
			node(level+1, arm)
			b.Op(isa.JOIN)
		}
		b.Label(label + "done")
	}
	node(0, "n")
	b.Halt()
	return b.MustBuild()
}

// BenchmarkStepFixedCost times one Step of programs whose lanes do next to
// nothing, so that what a step costs besides its operations shows: a machine
// with one busy group of four, 2048 queued flows behind 16 slots, the
// creation and retirement of 2048 flows, and 16 flows at a barrier every
// other step with every group busy; then the steps the tail of the pipeline
// has nothing to do for — one thin flow of register and branch instructions
// (scalar_loop, the corpus' collatz), a NUMA flow running bunches of eight —
// and the steps it does have work for, which must cost what that work costs:
// a store, a multioperation, an output every step. One op is one step;
// split_2048 and print_every_step restart their program (Reset, load, boot)
// inside the measurement whenever it completes — creating the flows is the
// cost the one is there for, and the other's outputs must not pile up.
func BenchmarkStepFixedCost(b *testing.B) {
	oneFlow := isa.NewBuilder("one_of_four_groups")
	oneFlow.Label("main")
	oneFlow.SetThickImm(16)
	oneFlow.Label("loop")
	oneFlow.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	oneFlow.Jmp("loop")

	// loop is a flow of the given thickness running body 14 times, a
	// countdown and a branch, rounds times over (forever, for rounds 0).
	loop := func(name string, thick, rounds int64, prologue, body func(b *isa.Builder)) *isa.Program {
		b := isa.NewBuilder(name)
		b.Label("main")
		b.SetThickImm(thick)
		b.Id(isa.TID, isa.V(0))
		b.Ldi(isa.S(1), rounds)
		if prologue != nil {
			prologue(b)
		}
		b.Label("loop")
		for i := 0; i < 14; i++ {
			body(b)
		}
		b.ALUI(isa.SUB, isa.S(1), isa.S(1), 1)
		b.Branch(isa.BNEZ, isa.S(1), "loop")
		b.Halt()
		return b.MustBuild()
	}
	scalar := func(b *isa.Builder) { b.ALUI(isa.ADD, isa.S(2), isa.S(2), 3) }

	for _, prog := range []*isa.Program{
		oneFlow.MustBuild(),
		spinTasks("pending_2048", 2048, 4, false),
		splitBurst("split_2048", 2048, false),
		spinTasks("barrier_16", 16, 1, true),
		loop("scalar_loop", 1, 0, nil, scalar),
		loop("numa_bunch_8", 1, 0, func(b *isa.Builder) { b.NumaImm(8) }, scalar),
		loop("store_every_step", 16, 0, nil, func(b *isa.Builder) { b.St(isa.V(0), outBase, isa.V(0)) }),
		loop("madd_every_step", 16, 0, nil, func(b *isa.Builder) { b.Multi(isa.MADD, isa.V(0), outBase, isa.V(0)) }),
		loop("print_every_step", 1, 64, nil, func(b *isa.Builder) { b.Print(isa.S(1)) }),
	} {
		b.Run(prog.Name, func(b *testing.B) {
			cfg := Default(variant.SingleInstruction)
			cfg.MaxSteps = 1 << 40
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			start := func() {
				m.Reset()
				if err := m.LoadProgram(prog); err != nil {
					b.Fatal(err)
				}
				if err := m.Boot(); err != nil {
					b.Fatal(err)
				}
			}
			step := func() {
				if m.Done() {
					start()
				}
				if err := m.Step(); err != nil {
					b.Fatal(err)
				}
			}
			start()
			for i := 0; i < 300; i++ { // past creation, arenas and queues grown
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
		})
	}
}
