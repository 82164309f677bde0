package machine

import (
	"reflect"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// TestBackendConfig covers the Backend knob itself: rendering and config
// validation.
func TestBackendConfig(t *testing.T) {
	if BackendInterp.String() != "interp" || BackendFused.String() != "fused" {
		t.Errorf("Backend.String: %q, %q", BackendInterp, BackendFused)
	}
	if _, err := New(Config{Variant: variant.SingleInstruction, Groups: 1, ProcsPerGroup: 1, Backend: Backend(9)}); err == nil {
		t.Error("New accepted an unknown backend")
	}
}

// TestSchedConfig covers the deprecated Sched knob: rendering and New's
// range check, which is all that is left of it.
func TestSchedConfig(t *testing.T) {
	if SchedLockstep.String() != "lockstep" || SchedDataflow.String() != "dataflow" {
		t.Error("Sched.String misrenders")
	}
	if _, err := New(Config{Variant: variant.SingleInstruction, Groups: 1, ProcsPerGroup: 1, Sched: Sched(99)}); err == nil {
		t.Error("New accepted an unknown scheduler")
	}
}

// TestFusedResetReuse: the fused backend compiles at LoadProgram, and Reset
// drops the compiled program with the source program. That the re-run matches
// a fresh machine is the lattice's fused-reset row (internal/chaos).
func TestFusedResetReuse(t *testing.T) {
	prog := isa.MustAssemble("va", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	cfg.Backend = BackendFused
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if len(fresh.code) != prog.Len() {
		t.Fatal("fused backend did not compile at LoadProgram")
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}

	fresh.Reset()
	if fresh.code != nil {
		t.Fatal("Reset kept the compiled program")
	}
	if err := fresh.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if len(fresh.code) != prog.Len() {
		t.Fatal("reload did not recompile")
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFusedTableReload: a fused machine compiles each program it loads into
// the one per-PC array it keeps. Loading a long program, a short one and the
// long one again, every run matches a fresh machine's and the table is
// exactly as long as the program: no kernel of the long program survives past
// the short one's end.
func TestFusedTableReload(t *testing.T) {
	long := isa.MustAssemble("long", `
main:
    LDI S0, 16
    SETTHICK S0
    TID V0
    LDI S1, 5
loop:
    ADD V1, V0, 3
    MUL V2, V1, V1
    SUB V3, V2, V0
    XOR V4, V3, V1
    SHL V5, V4, 1
    ADD V0, V5, V0
    SUB S1, S1, 1
    BNEZ S1, loop
    ST V0+400, V0
    HALT
`)
	short := isa.MustAssemble("short", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	cfg.Backend = BackendFused
	run := func(m *Machine, p *isa.Program) runSnapshot {
		t.Helper()
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		if len(m.code) != p.Len() {
			t.Fatalf("%s: table of %d instructions for a program of %d", p.Name, len(m.code), p.Len())
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return snapshotOf(m)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*isa.Program{long, short, long} {
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := run(fresh, p)
		if got := run(m, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("load %d (%s): reloaded run differs from fresh\ngot  %+v\nwant %+v", i, p.Name, got.stats, want.stats)
		}
		m.Reset()
	}
}
