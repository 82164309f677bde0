package machine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tcfpram/internal/isa"

	"tcfpram/internal/mem"
	"tcfpram/internal/topology"
	"tcfpram/internal/variant"
)

func TestPriorityPolicyAtMachineLevel(t *testing.T) {
	src := `
main:
    LDI S0, 6
    SETTHICK S0
    TID V0
    ADD V1, V0, 10
    ST 800, V1
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, func(c *Config) {
		c.WritePolicy = mem.Priority
	})
	// Lowest implicit thread wins under PRIORITY CRCW.
	if got := m.Shared().Peek(800); got != 10 {
		t.Fatalf("priority winner = %d, want 10", got)
	}
}

func TestNUMARemoteReferenceStalls(t *testing.T) {
	// A NUMA-mode flow referencing shared memory pays base+distance stall
	// cycles inline; a local-memory version pays none.
	remote := `
main:
    NUMA 4
    LD S0, 4095
    LD S1, 4094
    PRAM
    HALT
`
	local := `
main:
    NUMA 4
    LDL S0, 95
    LDL S1, 94
    PRAM
    HALT
`
	mr := mustRun(t, variant.SingleInstruction, remote, nil)
	ml := mustRun(t, variant.SingleInstruction, local, nil)
	if mr.Stats().StallCycles == 0 {
		t.Fatal("remote NUMA references must stall")
	}
	if ml.Stats().StallCycles != 0 {
		t.Fatalf("local NUMA references must not stall, got %d", ml.Stats().StallCycles)
	}
	if mr.Stats().Cycles <= ml.Stats().Cycles {
		t.Fatalf("remote (%d cycles) should cost more than local (%d)", mr.Stats().Cycles, ml.Stats().Cycles)
	}
}

func TestDistanceAffectsOverhead(t *testing.T) {
	// PRAM-mode steps that touch a distant module carry a larger latency
	// overhead than local-module steps: compare uniform distance 0 vs 16.
	src := `
main:
    LDI S0, 16
    SETTHICK S0
    TID V0
    LD V1, V0+1024
    LD V2, V1+2048
    ST V0+4096, V2
    HALT
`
	run := func(d int) int64 {
		m := mustRun(t, variant.SingleInstruction, src, func(c *Config) {
			c.Topology = topology.Must(topology.NewUniform(4, d))
		})
		return m.Stats().Cycles
	}
	near, far := run(0), run(16)
	if far <= near {
		t.Fatalf("distance 16 (%d cycles) should exceed distance 0 (%d)", far, near)
	}
}

func TestLocalMemoryInPRAMMode(t *testing.T) {
	// Thick local-memory access: each lane reads its own local word.
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    LDL V1, V0+0
    MUL V1, V1, 2
    STL V0+10, V1
    HALT
`
	cfg := Default(variant.SingleInstruction)
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	m.LocalMem(0).Load(0, []int64{5, 6, 7, 8})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if got := m.LocalMem(0).Peek(10 + i); got != (5+i)*2 {
			t.Fatalf("local[%d] = %d", 10+i, got)
		}
	}
	if m.Stats().LocalReads != 4 || m.Stats().LocalWrites != 4 {
		t.Fatalf("local counters: %d/%d", m.Stats().LocalReads, m.Stats().LocalWrites)
	}
}

func TestVectorPrint(t *testing.T) {
	src := `
main:
    LDI S0, 5
    SETTHICK S0
    TID V0
    MUL V0, V0, 3
    PRINT V0
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if len(outs) != 1 || len(outs[0].Values) != 5 {
		t.Fatalf("vector print: %v", outs)
	}
	for i, v := range outs[0].Values {
		if v != int64(i*3) {
			t.Fatalf("lane %d = %d", i, v)
		}
	}
	if outs[0].String() == "" {
		t.Fatal("output must render")
	}
}

func TestSelWithScalarCondition(t *testing.T) {
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    LDI V1, 100
    LDI S1, 1
    SEL V2, S1, V0, V1
    ST V0+700, V2
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	got := m.Shared().Snapshot(700, 4)
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("sel broadcast condition: %v", got)
		}
	}
}

func TestMinMaxOps(t *testing.T) {
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    MIN V1, V0, 2
    MAX V2, V0, 2
    ST V0+700, V1
    ST V0+710, V2
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	mins := m.Shared().Snapshot(700, 4)
	maxs := m.Shared().Snapshot(710, 4)
	wantMin := []int64{0, 1, 2, 2}
	wantMax := []int64{2, 2, 2, 3}
	for i := range wantMin {
		if mins[i] != wantMin[i] || maxs[i] != wantMax[i] {
			t.Fatalf("min/max: %v %v", mins, maxs)
		}
	}
}

func TestDivModByZeroTrapFree(t *testing.T) {
	src := `
main:
    LDI S0, 10
    LDI S1, 0
    DIV S2, S0, S1
    MOD S3, S0, S1
    PRINT S2
    PRINT S3
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if outs[0].Values[0] != 0 || outs[1].Values[0] != 0 {
		t.Fatalf("div/mod by zero: %v", outs)
	}
}

func TestShiftClamping(t *testing.T) {
	src := `
main:
    LDI S0, 1
    SHL S1, S0, 100
    LDI S2, -5
    SHL S3, S0, S2
    PRINT S1
    PRINT S3
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if outs[0].Values[0] != -1<<63 || outs[1].Values[0] != 1 {
		t.Fatalf("shift clamping: %v", outs)
	}
}

func TestMultiopVariantsAtMachineLevel(t *testing.T) {
	src := `
.data 100: 5 3 8 1
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    LD V1, V0+100
    MMAX 800, V1
    MMIN 801, V1
    MOR 802, V1
    MAND 803, V1
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, func(c *Config) {
		// Pre-set min word high so MMIN is observable.
		c.SharedWords = 1 << 12
	})
	if got := m.Shared().Peek(800); got != 8 {
		t.Fatalf("mmax = %d", got)
	}
	// MMIN combines with the initial 0 -> stays 0; check MOR/MAND shapes.
	if got := m.Shared().Peek(802); got != (5 | 3 | 8 | 1) {
		t.Fatalf("mor = %d", got)
	}
	if got := m.Shared().Peek(803); got != 0 {
		t.Fatalf("mand with initial 0 = %d", got)
	}
}

func TestMPMaxPrefix(t *testing.T) {
	src := `
.data 100: 5 3 8 1
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    LD V1, V0+100
    MPMAX V2, 800, V1
    ST V0+300, V2
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	got := m.Shared().Snapshot(300, 4)
	want := []int64{0, 5, 5, 8} // running max before each contribution
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mpmax prefixes: %v, want %v", got, want)
		}
	}
	if m.Shared().Peek(800) != 8 {
		t.Fatal("final max")
	}
}

func TestGroupCyclesTracked(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc, func(c *Config) { c.TraceEnabled = true })
	s := m.Stats()
	if len(s.PerGroupCycles) != 4 || s.PerGroupCycles[0] == 0 {
		t.Fatalf("per-group cycles: %v", s.PerGroupCycles)
	}
	for _, rec := range m.Trace() {
		if len(rec.GroupCycles) != 4 {
			t.Fatal("trace group cycles missing")
		}
	}
}

func TestListingRendering(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc, nil)
	l := m.Program().Listing()
	if !strings.Contains(l, "   0    LDI S0, 8") {
		t.Fatalf("listing:\n%s", l)
	}
}

func TestJoinWithoutParentJustHalts(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, "main:\nJOIN", nil)
	if m.liveFlowsScan() != 0 {
		t.Fatal("JOIN without parent should halt the flow")
	}
}

func TestSplitZeroThicknessArm(t *testing.T) {
	src := `
main:
    SPLIT 0 -> arm, 2 -> arm
    PRINTS "ok"
    HALT
arm:
    LDI S1, 1
    JOIN
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	if len(m.Outputs()) != 1 {
		t.Fatal("zero-thickness arm should still join")
	}
}

func TestNegativeSplitThicknessFails(t *testing.T) {
	src := `
main:
    LDI S0, -3
    SPLIT S0 -> arm
    HALT
arm:
    JOIN
`
	_, err := runSrc(t, variant.SingleInstruction, src, nil)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected negative-thickness error, got %v", err)
	}
}

func TestSetThickFromNegativeRegisterFails(t *testing.T) {
	src := "main:\nLDI S0, -1\nSETTHICK S0\nHALT"
	_, err := runSrc(t, variant.SingleInstruction, src, nil)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected error, got %v", err)
	}
}

func TestNUMAFromZeroRegisterFails(t *testing.T) {
	src := "main:\nLDI S0, 0\nNUMA S0\nHALT"
	_, err := runSrc(t, variant.SingleInstruction, src, nil)
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestMaxLiveFlowsTracked(t *testing.T) {
	src := `
main:
    SPLIT 1 -> w, 1 -> w, 1 -> w
    HALT
w:
    NOP
    JOIN
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	if m.Stats().MaxLiveFlows < 4 {
		t.Fatalf("max live flows = %d, want >= 4", m.Stats().MaxLiveFlows)
	}
	if m.Stats().FlowsCreated != 4 {
		t.Fatalf("flows created = %d", m.Stats().FlowsCreated)
	}
}

func TestPreemptiveTimeSlicing(t *testing.T) {
	// 6 long-running tasks on a 1-group, 2-slot machine. Without a
	// quantum, the first two tasks monopolize the slots until they halt;
	// with one, every task gets started early (interleaved progress).
	src := `
main:
    SPLIT 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w
    HALT
w:
    FID S0
    ST S0+700, S0
    LDI S1, 0
loop:
    ADD S1, S1, 1
    SLT S2, S1, 30
    BNEZ S2, loop
    JOIN
`
	firstTouchSteps := func(quantum int64) []int64 {
		cfg := Default(variant.SingleInstruction)
		cfg.Groups = 1
		cfg.ProcsPerGroup = 3 // parent (waiting) + 2 working slots
		cfg.Topology = nil
		cfg.TimeSliceSteps = quantum
		cfg.TraceEnabled = true
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(mustAsm(t, src)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		first := map[int]int64{}
		for _, rec := range m.Trace() {
			for _, s := range rec.Slices {
				if _, seen := first[s.Flow]; !seen {
					first[s.Flow] = rec.Step
				}
			}
		}
		var starts []int64
		for fid := 1; fid <= 6; fid++ {
			starts = append(starts, first[fid])
		}
		return starts
	}

	fifo := firstTouchSteps(0)
	sliced := firstTouchSteps(8)
	// The last task to start must begin much earlier with slicing.
	maxOf := func(xs []int64) int64 {
		mx := xs[0]
		for _, x := range xs[1:] {
			if x > mx {
				mx = x
			}
		}
		return mx
	}
	if maxOf(sliced) >= maxOf(fifo) {
		t.Fatalf("time slicing should start every task earlier: sliced %v vs fifo %v", sliced, fifo)
	}
	// Preemption must count as (free) task switches on the TCF machine.
	cfg := Default(variant.SingleInstruction)
	cfg.Groups = 1
	cfg.ProcsPerGroup = 3
	cfg.Topology = nil
	cfg.TimeSliceSteps = 8
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TaskSwitches == 0 || m.Stats().TaskSwitchCycles != 0 {
		t.Fatalf("preemptive TCF switching: %d switches, %d cycles",
			m.Stats().TaskSwitches, m.Stats().TaskSwitchCycles)
	}
}

func TestBarrierWithOversubscribedTasks(t *testing.T) {
	// 6 tasks on 2 working slots, all meeting at one barrier: blocked
	// residents must yield their slots so queued tasks can reach the
	// barrier, and the release must wait for every task.
	src := `
main:
    SPLIT 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w
    HALT
w:
    FID S0
    LDI S1, 1
    ST S0+700, S1
    BAR
    LDI S2, 0
    LDI S3, 1
sum:
    LD S4, S3+700
    ADD S2, S2, S4
    ADD S3, S3, 1
    SLT S5, S3, 7
    BNEZ S5, sum
    ST S0+800, S2
    JOIN
`
	m := mustRun(t, variant.SingleInstruction, src, func(c *Config) {
		c.Groups = 1
		c.ProcsPerGroup = 3
		c.Topology = nil
	})
	// After the barrier every task must observe all six pre-barrier
	// writes.
	for fid := int64(1); fid <= 6; fid++ {
		if got := m.Shared().Peek(800 + fid); got != 6 {
			t.Fatalf("task %d saw %d writes, want 6 (barrier released early)", fid, got)
		}
	}
	if m.Stats().Barriers != 6 {
		t.Fatalf("barriers = %d", m.Stats().Barriers)
	}
}

// Property: a split conserves the specified thicknesses exactly — every arm
// becomes one child of precisely the requested thickness, and the parent
// resumes exactly once after all children join.
func TestSplitThicknessConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		arms := make([]isa.Arm, n)
		want := make([]int64, n)
		for i := range arms {
			want[i] = int64(rng.Intn(20))
			arms[i] = isa.ArmImm(want[i], "arm")
		}
		b := isa.NewBuilder("conserve")
		b.Label("main")
		b.Split(arms...)
		b.Prints("resumed")
		b.Halt()
		b.Label("arm")
		b.Id(isa.THICK, isa.S(0))
		b.Op(isa.JOIN)
		m, err := New(Default(variant.SingleInstruction))
		if err != nil {
			return false
		}
		if err := m.LoadProgram(b.MustBuild()); err != nil {
			return false
		}
		if _, err := m.Run(); err != nil {
			return false
		}
		flows := m.Flows()
		if len(flows) != n+1 {
			return false
		}
		got := map[int64]int{}
		for _, f := range flows[1:] {
			got[int64(f.Thickness)]++
		}
		wantCount := map[int64]int{}
		for _, w := range want {
			wantCount[w]++
		}
		for k, v := range wantCount {
			if got[k] != v {
				return false
			}
		}
		// Parent resumed exactly once.
		resumed := 0
		for _, o := range m.Outputs() {
			if o.Text == "resumed" {
				resumed++
			}
		}
		return resumed == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNUMABunchKeepsLastStore: a NUMA bunch executes its instructions with
// sequential semantics (Section 3.1), so of two stores it makes to one word in
// one step the later stays — under arbitrary CRCW, and under Common, where the
// two are no conflict — on the production machine and on the reference.
func TestNUMABunchKeepsLastStore(t *testing.T) {
	b := isa.NewBuilder("numa-store-twice")
	b.Label("main")
	b.NumaImm(4)
	b.Ldi(isa.S(1), 7)
	b.St(isa.RegNone, 900, isa.S(1))
	b.Ldi(isa.S(1), 9)
	b.St(isa.RegNone, 900, isa.S(1))
	b.Op(isa.PRAM)
	b.Halt()
	prog := b.MustBuild()
	for _, policy := range []mem.Policy{mem.Arbitrary, mem.Common} {
		for _, eng := range engines {
			cfg := Default(variant.SingleInstruction)
			cfg.WritePolicy = policy
			m, err := eng.new(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatalf("%v, %v: %v", policy, eng, err)
			}
			if got := m.Shared().Peek(900); got != 9 {
				t.Errorf("%v, %v: word 900 = %d after the bunch, want the last store's 9", policy, eng, got)
			}
		}
	}
}
