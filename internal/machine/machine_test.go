package machine

import (
	"strings"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// runSrc assembles src and runs it on a fresh machine of the given variant,
// applying tweak (if non-nil) to the config first. It fails the test on any
// build/boot error; runtime errors are returned.
func runSrc(t *testing.T, kind variant.Kind, src string, tweak func(*Config)) (*Machine, error) {
	t.Helper()
	cfg := Default(kind)
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(isa.MustAssemble("test", src)); err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	return m, err
}

// mustRun is runSrc that requires success.
func mustRun(t *testing.T, kind variant.Kind, src string, tweak func(*Config)) *Machine {
	t.Helper()
	m, err := runSrc(t, kind, src, tweak)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return m
}

const vectorAddSrc = `
.data 100: 1 2 3 4 5 6 7 8
.data 200: 10 20 30 40 50 60 70 80
main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    LD V1, V0+100
    LD V2, V0+200
    ADD V3, V1, V2
    ST V0+300, V3
    HALT
`

func checkVectorAdd(t *testing.T, m *Machine) {
	t.Helper()
	got := m.Shared().Snapshot(300, 8)
	want := []int64{11, 22, 33, 44, 55, 66, 77, 88}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestVectorAddTCFVariants(t *testing.T) {
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
		t.Run(kind.String(), func(t *testing.T) {
			checkVectorAdd(t, mustRun(t, kind, vectorAddSrc, nil))
		})
	}
}

func TestVectorAddFixedThickness(t *testing.T) {
	// The SIMD variant has a fixed width; the thickness statement is
	// unavailable, so the kernel predicates on tid < size instead
	// (Section 4's conditional execution for vector units).
	src := `
.data 100: 1 2 3 4 5 6 7 8
.data 200: 10 20 30 40 50 60 70 80
main:
    TID V0
    SLT V4, V0, 8
    LD V1, V0+100
    LD V2, V0+200
    ADD V3, V1, V2
    LD V5, V0+300
    SEL V3, V4, V3, V5
    ST V0+300, V3
    HALT
`
	m := mustRun(t, variant.FixedThickness, src, func(c *Config) {
		c.VectorWidth = 16
	})
	checkVectorAdd(t, m)
}

func TestVectorAddThreadStyle(t *testing.T) {
	// Thread variants program against a fixed thread set; thread id is the
	// flow id and sizes that do not match P*Tp need a guard (Section 4).
	src := `
.data 100: 1 2 3 4 5 6 7 8
.data 200: 10 20 30 40 50 60 70 80
main:
    FID S0
    SLT S1, S0, 8
    BEQZ S1, done
    LD S2, S0+100
    LD S3, S0+200
    ADD S4, S2, S3
    ST S0+300, S4
done:
    HALT
`
	for _, kind := range []variant.Kind{variant.SingleOperation, variant.ConfigurableSingleOperation} {
		t.Run(kind.String(), func(t *testing.T) {
			checkVectorAdd(t, mustRun(t, kind, src, nil))
		})
	}
}

func TestSetThickRejectedOnFixedThreadVariants(t *testing.T) {
	for _, kind := range []variant.Kind{variant.SingleOperation, variant.ConfigurableSingleOperation, variant.FixedThickness} {
		_, err := runSrc(t, kind, "main:\nSETTHICK 4\nHALT", nil)
		if err == nil || !strings.Contains(err.Error(), "SETTHICK") {
			t.Errorf("%v: expected SETTHICK error, got %v", kind, err)
		}
	}
}

func TestNUMARejectedWhereUnsupported(t *testing.T) {
	for _, kind := range []variant.Kind{variant.SingleOperation, variant.FixedThickness} {
		_, err := runSrc(t, kind, "main:\nNUMA 4\nHALT", nil)
		if err == nil || !strings.Contains(err.Error(), "NUMA") {
			t.Errorf("%v: expected NUMA error, got %v", kind, err)
		}
	}
}

func TestSplitRejectedWhereUnsupported(t *testing.T) {
	src := "main:\nSPLIT 2 -> a, 2 -> b\nHALT\na: JOIN\nb: JOIN"
	for _, kind := range []variant.Kind{variant.SingleOperation, variant.ConfigurableSingleOperation, variant.FixedThickness} {
		_, err := runSrc(t, kind, src, nil)
		if err == nil || !strings.Contains(err.Error(), "SPLIT") {
			t.Errorf("%v: expected SPLIT error, got %v", kind, err)
		}
	}
}

func TestParallelSplitJoin(t *testing.T) {
	src := `
.data 100: 1 2 3 4
.data 200: 10 20 30 40
main:
    SPLIT 4 -> addArm, 4 -> clrArm
    PRINTS "joined"
    HALT
addArm:
    TID V0
    LD V1, V0+100
    LD V2, V0+200
    ADD V3, V1, V2
    ST V0+300, V3
    JOIN
clrArm:
    TID V0
    ADD V0, V0, 4
    LDI V1, 99
    ST V0+300, V1
    JOIN
`
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
		t.Run(kind.String(), func(t *testing.T) {
			m := mustRun(t, kind, src, nil)
			got := m.Shared().Snapshot(300, 8)
			want := []int64{11, 22, 33, 44, 99, 99, 99, 99}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mem[%d] = %d, want %d (all %v)", 300+i, got[i], want[i], got)
				}
			}
			outs := m.Outputs()
			if len(outs) != 1 || outs[0].Text != "joined" {
				t.Fatalf("parent did not resume after join: %v", outs)
			}
			if m.Stats().Splits != 1 || m.Stats().Joins != 2 {
				t.Fatalf("splits/joins = %d/%d", m.Stats().Splits, m.Stats().Joins)
			}
		})
	}
}

func TestSplitInheritsScalars(t *testing.T) {
	src := `
main:
    LDI S2, 123
    SPLIT 1 -> arm
    HALT
arm:
    PRINT S2
    JOIN
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if len(outs) != 1 || outs[0].Values[0] != 123 {
		t.Fatalf("child did not inherit scalars: %v", outs)
	}
	if m.Stats().FlowBranchCycles != int64(isa.NumSRegs) {
		t.Fatalf("flow branch cycles = %d, want %d", m.Stats().FlowBranchCycles, isa.NumSRegs)
	}
}

func TestNestedSplit(t *testing.T) {
	src := `
main:
    SPLIT 2 -> outer
    PRINTS "done"
    HALT
outer:
    SPLIT 3 -> inner, 1 -> inner
    JOIN
inner:
    THICK S0
    PRINT S0
    JOIN
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	if m.Stats().Splits != 2 {
		t.Fatalf("splits = %d, want 2", m.Stats().Splits)
	}
	outs := m.Outputs()
	if len(outs) != 3 {
		t.Fatalf("outputs = %v", outs)
	}
	if outs[len(outs)-1].Text != "done" {
		t.Fatalf("parent resumed out of order: %v", outs)
	}
}

func TestMultiprefixOrdered(t *testing.T) {
	src := `
.data 100: 3 1 4 1 5 9 2 6
main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    LD V1, V0+100
    MPADD V2, 500, V1
    ST V0+300, V2
    HALT
`
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
		t.Run(kind.String(), func(t *testing.T) {
			m := mustRun(t, kind, src, nil)
			prefix := m.Shared().Snapshot(300, 8)
			vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
			acc := int64(0)
			for i, v := range vals {
				if prefix[i] != acc {
					t.Fatalf("prefix[%d] = %d, want %d", i, prefix[i], acc)
				}
				acc += v
			}
			if got := m.Shared().Peek(500); got != acc {
				t.Fatalf("final sum = %d, want %d", got, acc)
			}
		})
	}
}

func TestMultioperationCombines(t *testing.T) {
	src := `
main:
    LDI S0, 16
    SETTHICK S0
    LDI V1, 1
    MADD 600, V1
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	if got := m.Shared().Peek(600); got != 16 {
		t.Fatalf("madd result = %d, want 16", got)
	}
}

func TestReductions(t *testing.T) {
	src := `
.data 100: 3 1 4 1 5
main:
    LDI S0, 5
    SETTHICK S0
    TID V0
    LD V1, V0+100
    RADD S1, V1
    RMAX S2, V1
    RMIN S3, V1
    PRINT S1
    PRINT S2
    PRINT S3
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if len(outs) != 3 {
		t.Fatalf("outputs: %v", outs)
	}
	if outs[0].Values[0] != 14 || outs[1].Values[0] != 5 || outs[2].Values[0] != 1 {
		t.Fatalf("reductions wrong: %v", outs)
	}
}

func TestDependentLoopLogStepScan(t *testing.T) {
	// Section 4's dependent loop: log-step inclusive prefix product,
	// relying on the lockstep PRAM write semantics.
	src := `
.data 100: 1 2 3 4 5 6 7 8
main:
    LDI S0, 8
    SETTHICK S0
    LDI S1, 1
loop:
    SGE S2, S1, S0
    BNEZ S2, done
    TID V0
    SUB V1, V0, S1
    SGE V2, V1, 0
    LD V3, V1+100
    LD V4, V0+100
    MUL V5, V4, V3
    SEL V6, V2, V5, V4
    ST V0+100, V6
    SHL S1, S1, 1
    JMP loop
done:
    HALT
`
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced} {
		t.Run(kind.String(), func(t *testing.T) {
			m := mustRun(t, kind, src, nil)
			got := m.Shared().Snapshot(100, 8)
			want := int64(1)
			for i := 0; i < 8; i++ {
				want := want * int64(i+1)
				_ = want
			}
			acc := int64(1)
			for i := 0; i < 8; i++ {
				acc *= int64(i + 1)
				if got[i] != acc {
					t.Fatalf("scan[%d] = %d, want %d (all %v)", i, got[i], acc, got)
				}
			}
		})
	}
}

func TestNUMABunchSequentialSemantics(t *testing.T) {
	// A NUMA bunch runs consecutive instructions with sequential semantics
	// against the local memory: an 8-iteration accumulation loop.
	src := `
main:
    NUMA 4
    LDI S0, 0
    LDI S1, 0
loop:
    LDL S2, S1+0
    ADD S0, S0, S2
    ADD S1, S1, 1
    SLT S3, S1, 8
    BNEZ S3, loop
    PRAM
    PRINT S0
    HALT
`
	m := func() *Machine {
		cfg := Default(variant.SingleInstruction)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(isa.MustAssemble("numa", src)); err != nil {
			t.Fatal(err)
		}
		if err := m.LocalMem(0).Load(0, []int64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}()
	outs := m.Outputs()
	if len(outs) != 1 || outs[0].Values[0] != 36 {
		t.Fatalf("NUMA accumulation = %v, want 36", outs)
	}
	// Bunch length 4 must cut the step count roughly 4x versus bunch 1:
	// the loop body is ~5 instructions * 8 iterations.
	if m.Stats().Steps > 20 {
		t.Fatalf("NUMA bunch did not batch instructions: %d steps", m.Stats().Steps)
	}
}

func TestNUMAStoreToLoadForwarding(t *testing.T) {
	// Within one bunch, a store to shared memory must be visible to the
	// flow's own subsequent load (sequential semantics), even though the
	// write commits only at the step boundary.
	src := `
main:
    NUMA 8
    LDI S0, 77
    ST 900, S0
    LD S1, 900
    PRINT S1
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if len(outs) != 1 || outs[0].Values[0] != 77 {
		t.Fatalf("forwarding broken: %v", outs)
	}
}

func TestBarrierSynchronizesMultiInstruction(t *testing.T) {
	// Two flows exchange values across a barrier. Without the barrier the
	// XMT-style engine gives no cross-flow ordering; with it both reads
	// observe the other side's write.
	src := `
main:
    SPLIT 1 -> armA, 1 -> armB
    HALT
armA:
    LDI S1, 10
    ST 700, S1
    BAR
    LD S2, 701
    ST 702, S2
    JOIN
armB:
    LDI S1, 20
    ST 701, S1
    BAR
    LD S2, 700
    ST 703, S2
    JOIN
`
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
		t.Run(kind.String(), func(t *testing.T) {
			m := mustRun(t, kind, src, nil)
			if a, b := m.Shared().Peek(702), m.Shared().Peek(703); a != 20 || b != 10 {
				t.Fatalf("barrier exchange got %d/%d, want 20/10", a, b)
			}
			if m.Stats().Barriers != 2 {
				t.Fatalf("barriers = %d", m.Stats().Barriers)
			}
		})
	}
}

func TestCallRet(t *testing.T) {
	src := `
main:
    LDI S0, 5
    CALL double
    CALL double
    PRINT S0
    HALT
double:
    ADD S0, S0, S0
    RET
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if len(outs) != 1 || outs[0].Values[0] != 20 {
		t.Fatalf("call/ret: %v", outs)
	}
}

func TestRetOnEmptyStackHalts(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, "main:\nRET", nil)
	if m.liveFlowsScan() != 0 {
		t.Fatal("RET on empty stack should terminate the flow")
	}
}

func TestFallingOffProgramHalts(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, "main:\nNOP", nil)
	if m.liveFlowsScan() != 0 {
		t.Fatal("flow should halt at program end")
	}
}

func TestZeroThicknessExecutesScalarOnly(t *testing.T) {
	src := `
main:
    SETTHICK 0
    TID V0
    LDI S0, 42
    PRINT S0
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	if len(outs) != 1 || outs[0].Values[0] != 42 {
		t.Fatalf("zero-thickness flow: %v", outs)
	}
}

func TestCommonPolicyConflictFailsRun(t *testing.T) {
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    ST 800, V0
    HALT
`
	_, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) {
		c.WritePolicy = mem.Common
	})
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("expected common-CRCW conflict, got %v", err)
	}
}

func TestArbitraryPolicyLowestLaneWins(t *testing.T) {
	src := `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    ST 800, V0
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	if got := m.Shared().Peek(800); got != 0 {
		t.Fatalf("winner = %d, want lane 0's value 0", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A split whose arm loops forever at a barrier... simpler: a parent
	// waiting for a child that never joins cannot happen (HALT implies
	// join), so force livelock instead via MaxSteps.
	src := `
main:
    JMP main
`
	_, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxSteps = 100 })
	if err == nil || !strings.Contains(err.Error(), "MaxSteps") {
		t.Fatalf("expected MaxSteps error, got %v", err)
	}
}

func TestIdentityOps(t *testing.T) {
	src := `
main:
    NPROC S0
    NGRP S1
    GID S2
    PID S3
    FID S4
    PRINT S0
    PRINT S1
    PRINT S2
    PRINT S3
    PRINT S4
    HALT
`
	m := mustRun(t, variant.SingleInstruction, src, nil)
	outs := m.Outputs()
	want := []int64{16, 4, 0, 0, 0}
	for i, w := range want {
		if outs[i].Values[0] != w {
			t.Fatalf("identity %d = %d, want %d", i, outs[i].Values[0], w)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	run := func(par bool) []int64 {
		m := mustRun(t, variant.SingleInstruction, vectorAddSrc, func(c *Config) { c.Parallel = par })
		return m.Shared().Snapshot(300, 8)
	}
	s, p := run(false), run(true)
	for i := range s {
		if s[i] != p[i] {
			t.Fatalf("parallel/serial divergence at %d: %d vs %d", i, s[i], p[i])
		}
	}
}

func TestBalancedMatchesSingleInstructionResults(t *testing.T) {
	for _, src := range []string{vectorAddSrc} {
		a := mustRun(t, variant.SingleInstruction, src, nil).Shared().Snapshot(300, 8)
		b := mustRun(t, variant.Balanced, src, func(c *Config) { c.BalancedBound = 3 }).Shared().Snapshot(300, 8)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("balanced diverges at %d: %d vs %d", i, a[i], b[i])
			}
		}
	}
}

func TestBalancedBoundsOpsPerStep(t *testing.T) {
	m := mustRun(t, variant.Balanced, vectorAddSrc, func(c *Config) {
		c.BalancedBound = 2
		c.TraceEnabled = true
	})
	for _, rec := range m.Trace() {
		perGroup := map[int]int{}
		for _, s := range rec.Slices {
			if s.Op.Info().Control || s.Op.IsReduction() {
				continue
			}
			perGroup[s.Group] += s.Lanes
		}
		for g, n := range perGroup {
			if n > 2 {
				t.Fatalf("step %d group %d executed %d lanes > bound 2", rec.Step, g, n)
			}
		}
	}
	// Thickness-8 instructions must refetch ceil(8/2) = 4 times.
	f := m.Flow(0)
	if f.InstrFetches < 8 {
		t.Fatalf("balanced refetching too low: %d", f.InstrFetches)
	}
}

func TestSingleInstructionFetchOncePerTCFInstruction(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc, nil)
	// 8 instructions, one fetch each despite thickness 8 (Table 1).
	if got := m.Flow(0).InstrFetches; got != 8 {
		t.Fatalf("fetches = %d, want 8", got)
	}
}

func TestStatsSanity(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc, nil)
	s := m.Stats()
	if s.Steps == 0 || s.Cycles == 0 || s.Ops == 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	if s.SharedReads != 16 { // two LD x 8 lanes
		t.Fatalf("shared reads = %d, want 16", s.SharedReads)
	}
	if s.SharedWrites != 8 {
		t.Fatalf("shared writes = %d, want 8", s.SharedWrites)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %f", u)
	}
	if s.String() == "" {
		t.Fatal("stats must render")
	}
}

func TestTaskSwitchCostsByVariant(t *testing.T) {
	// Oversubscribe: more flows than TCF slots forces task rotation.
	src := `
main:
    SPLIT 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w, 1 -> w
    HALT
w:
    NOP
    JOIN
`
	m := mustRun(t, variant.SingleInstruction, src, func(c *Config) {
		c.Groups = 2
		c.ProcsPerGroup = 2
		c.Topology = nil
	})
	s := m.Stats()
	if s.TaskSwitches == 0 {
		t.Fatal("expected task switches with 18 flows on 4 slots")
	}
	if s.TaskSwitchCycles != 0 {
		t.Fatalf("TCF task switch must be free, cost %d", s.TaskSwitchCycles)
	}
}

func TestBootPopulationByVariant(t *testing.T) {
	for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
		cfg := Default(kind)
		m, _ := New(cfg)
		m.LoadProgram(isa.MustAssemble("t", "main: HALT"))
		m.Boot()
		if len(m.Flows()) != 1 || m.Flows()[0].Thickness != 1 {
			t.Errorf("%v: boot = %v", kind, m.Flows())
		}
	}
	for _, kind := range []variant.Kind{variant.SingleOperation, variant.ConfigurableSingleOperation} {
		cfg := Default(kind)
		m, _ := New(cfg)
		m.LoadProgram(isa.MustAssemble("t", "main: HALT"))
		m.Boot()
		if len(m.Flows()) != 16 {
			t.Errorf("%v: booted %d flows, want 16", kind, len(m.Flows()))
		}
	}
	cfg := Default(variant.FixedThickness)
	m, _ := New(cfg)
	m.LoadProgram(isa.MustAssemble("t", "main: HALT"))
	m.Boot()
	if len(m.Flows()) != 1 || m.Flows()[0].Thickness != cfg.ProcsPerGroup {
		t.Errorf("fixed-thickness boot: %v", m.Flows())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Variant: variant.Kind(99), Groups: 1, ProcsPerGroup: 1}); err == nil {
		t.Error("invalid variant accepted")
	}
	if _, err := New(Config{Variant: variant.SingleInstruction, Groups: 0, ProcsPerGroup: 1}); err == nil {
		t.Error("zero groups accepted")
	}
	cfg := Default(variant.FixedThickness)
	cfg.Groups = 2
	if _, err := New(cfg); err == nil {
		t.Error("fixed-thickness with 2 groups accepted")
	}
	cfg = Default(variant.SingleInstruction)
	cfg.Topology = nil
	if m, err := New(cfg); err != nil || m.Config().Topology == nil {
		t.Error("nil topology should default")
	}
}

func TestBootErrors(t *testing.T) {
	m, _ := New(Default(variant.SingleInstruction))
	if err := m.Boot(); err == nil {
		t.Error("Boot before LoadProgram accepted")
	}
	m.LoadProgram(isa.MustAssemble("t", "main: HALT"))
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err == nil {
		t.Error("double Boot accepted")
	}
}

func TestStepBeforeBootFails(t *testing.T) {
	m, _ := New(Default(variant.SingleInstruction))
	if err := m.Step(); err == nil {
		t.Error("Step before boot accepted")
	}
}

func TestTraceRecorded(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc, func(c *Config) { c.TraceEnabled = true })
	tr := m.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace")
	}
	sawThick := false
	for _, rec := range tr {
		for _, s := range rec.Slices {
			if s.Lanes == 8 {
				sawThick = true
			}
		}
	}
	if !sawThick {
		t.Fatal("trace missing thick slices")
	}
}

func TestMultiInstructionExecutesWindow(t *testing.T) {
	// With a window of 8 the straight-line body collapses into few steps.
	m := mustRun(t, variant.MultiInstruction, vectorAddSrc, nil)
	if m.Stats().Steps > 3 {
		t.Fatalf("multi-instruction steps = %d, want few", m.Stats().Steps)
	}
}

func TestFlowStateAccessors(t *testing.T) {
	m := mustRun(t, variant.SingleInstruction, vectorAddSrc, nil)
	if m.Flow(0) == nil || m.Flow(0).State != tcf.Done {
		t.Fatal("flow 0 should be done")
	}
	if m.Flow(99) != nil {
		t.Fatal("unknown flow should be nil")
	}
	if !m.Done() || m.Err() != nil {
		t.Fatal("machine should be cleanly done")
	}
}

// mustAsm assembles test source.
func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	return isa.MustAssemble("test", src)
}
