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
// retained traffic: the next run on the machine is bit-identical to a fresh
// machine's. The half-done step must not be snapshotted either
// (mem.TestSnapshotRefusesPendingLog, here through Machine.Snapshot).
func TestResetDropsRetainedTraffic(t *testing.T) {
	prog := thickTrafficProgram(5)
	for _, eng := range engines {
		cfg := Default(variant.SingleInstruction)
		fresh, err := eng.new(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Run(); err != nil {
			t.Fatal(err)
		}
		want := snapshotOf(fresh)

		m, err := eng.new(cfg)
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
			plan, err := m.front.prepare()
			if err != nil {
				t.Fatal(err)
			}
			m.back.generate(plan)
			if _, err := m.back.merge(); err != nil {
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
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		got := snapshotOf(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: the run after the aborted steps differs from a fresh machine's\ngot  %+v\nwant %+v", eng, got.stats, want.stats)
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
		t.Fatalf("%d writes stay retained after the failed merge", n)
	}
	for _, c := range m.combiners {
		if c.Len() != 0 {
			t.Fatalf("%d %s references stay retained after the failed merge", c.Len(), c.Kind())
		}
	}
}
