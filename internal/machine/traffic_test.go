package machine

// A step's stores and combining references stay in the arenas of the groups
// that generated them, and the memory and the combiners hold pointers to them
// from the fold to the commit. These tests pin what a step that never commits
// leaves behind.

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// thickTrafficProgram stores a thick vector, scatters a second one and runs a
// multiprefix and a multioperation every round, for rounds rounds.
func thickTrafficProgram(rounds int64) *isa.Program {
	b := isa.NewBuilder("thick-traffic")
	b.Label("main")
	b.SetThickImm(raggedThickness)
	b.Id(isa.TID, isa.V(0))
	b.ALUI(isa.MUL, isa.V(2), isa.V(0), 37)
	b.ALUI(isa.AND, isa.V(2), isa.V(2), 63)
	b.Ldi(isa.S(1), rounds)
	b.Label("loop")
	b.ALUI(isa.ADD, isa.V(1), isa.V(1), 3)
	b.St(isa.V(0), 1000, isa.V(1))
	b.St(isa.V(2), 100, isa.V(1))
	b.Prefix(isa.MPADD, isa.V(3), isa.RegNone, 90, isa.V(1))
	b.Multi(isa.MADD, isa.V(2), 200, isa.V(3))
	b.ALUI(isa.SUB, isa.S(1), isa.S(1), 1)
	b.Branch(isa.BNEZ, isa.S(1), "loop")
	b.Halt()
	return b.MustBuild()
}

// TestResetDropsRetainedTraffic stops a run inside a thick store step and
// inside a combining step — generated and folded, never committed, as a panic
// or an abort between the stages leaves it — and demands that Reset drops the
// retained traffic. The half-done step must not be snapshotted either
// (mem.TestSnapshotRefusesPendingLog, here through Machine.Snapshot). That
// the next run is a fresh machine's is the lattice's reuse rows
// (internal/chaos).
func TestResetDropsRetainedTraffic(t *testing.T) {
	prog := thickTrafficProgram(5)
	for _, eng := range engines {
		m, err := eng.new(Default(variant.SingleInstruction))
		if err != nil {
			t.Fatal(err)
		}
		// Steps 6 and 8 of the program are the first round's dense store
		// and its multiprefix.
		for _, stopAt := range []int{6, 8} {
			if err := m.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			stepN(t, m, stopAt)
			if _, _, err := m.generate(m.prepare()); err != nil {
				t.Fatal(err)
			}
			pending := m.shared.PendingWrites()
			for _, c := range m.combiners {
				pending += c.Len()
			}
			if pending != raggedThickness {
				t.Fatalf("%v stop %d: %d references retained after the fold, want %d", eng, stopAt, pending, raggedThickness)
			}
			if m.shared.PendingWrites() > 0 {
				if err := m.Snapshot(io.Discard); err == nil || !strings.Contains(err.Error(), "buffered writes") {
					t.Fatalf("snapshot with a retained log: err = %v, want the buffered-writes refusal", err)
				}
			}

			m.Reset()
			if n := m.shared.PendingWrites(); n != 0 {
				t.Fatalf("%d writes retained across Reset", n)
			}
			for _, c := range m.combiners {
				if c.Len() != 0 {
					t.Fatalf("%d %s references retained across Reset", c.Len(), c.Kind())
				}
			}
		}
	}
}

// TestMergeErrorDropsFoldedTraffic: when a later group's step fails, what the
// groups before it already folded must not stay retained.
func TestMergeErrorDropsFoldedTraffic(t *testing.T) {
	b := isa.NewBuilder("fail-beside-stores")
	b.Label("main")
	b.Ldi(isa.S(5), -1)
	b.Split(isa.ArmImm(64, "store"), isa.ArmImm(64, "store"), isa.ArmImm(1, "fail"), isa.ArmImm(64, "store"))
	b.Halt()
	b.Label("store")
	b.St(isa.RegNone, 700, isa.V(1))
	b.Multi(isa.MADD, isa.RegNone, 701, isa.V(1))
	b.Op(isa.JOIN)
	b.Label("fail")
	b.SetThick(isa.S(5))
	b.Op(isa.JOIN)
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "negative thickness") {
		t.Fatalf("err = %v, want the failing arm's", err)
	}
	if n := m.shared.PendingWrites(); n != 0 {
		t.Fatalf("%d writes stay retained after the failed step", n)
	}
	for _, c := range m.combiners {
		if c.Len() != 0 {
			t.Fatalf("%d %s references stay retained after the failed step", c.Len(), c.Kind())
		}
	}
}

// TestFailedStepStats pins what a failed step leaves in Stats. Seven arms
// land on the four groups in placement order (1, 2, 3, 0, 1, 2, 3), so
// group 3 runs a store arm and then the arm whose negative SETTHICK fails,
// after groups 0 to 2 ran and folded theirs. The groups before the failing
// one are in Stats; the failing group's counters, the commit and the
// frontend retire of that step are not, and the step is not counted.
func TestFailedStepStats(t *testing.T) {
	b := isa.NewBuilder("failed-step")
	b.Label("main")
	b.Ldi(isa.S(5), -1)
	b.Split(isa.ArmImm(64, "store"), isa.ArmImm(64, "store"), isa.ArmImm(32, "store"), isa.ArmImm(16, "store"),
		isa.ArmImm(8, "store"), isa.ArmImm(4, "store"), isa.ArmImm(1, "fail"))
	b.Halt()
	b.Label("store")
	b.Id(isa.TID, isa.V(0))
	b.St(isa.V(0), 700, isa.V(0))
	b.Multi(isa.MADD, isa.RegNone, 701, isa.V(0))
	b.Op(isa.JOIN)
	b.Label("fail")
	b.Id(isa.TID, isa.V(0))
	b.SetThick(isa.S(5))
	b.Op(isa.JOIN)
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "negative thickness") {
		t.Fatalf("err = %v, want the failing arm's", err)
	}
	want := Stats{Steps: 3, Cycles: 198, Ops: 345, ScalarOps: 2, InstrFetches: 14,
		SharedWrites: 156, OverheadCycles: 54, FlowsCreated: 8, Splits: 1,
		FlowBranchCycles: 112, MaxLiveFlows: 8,
		PerGroupOps:    []int64{34, 144, 136, 33},
		PerGroupCycles: []int64{56, 158, 150, 37},
		Stages: [NumStages]StageStats{
			StageFrontend: {Cycles: 112, Events: 1},
			StageOpGen:    {Cycles: 347, Events: 14},
			StageMemory:   {Cycles: 54, Events: 156},
			StageCommit:   {Events: 156},
		}}
	if !reflect.DeepEqual(*st, want) {
		t.Fatalf("Stats after the failed step:\n got %+v\nwant %+v", *st, want)
	}
	if !m.Done() {
		t.Fatal("Done() = false after the failed step")
	}
}
