package machine

import (
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// engine is one of the two machines a test builds for a configuration: the
// per-lane reference or the production machine. A test that holds both to a
// property runs each in a subtest named after it.
type engine struct {
	name string
	new  func(Config) (*Machine, error)
}

func (e engine) String() string { return e.name }

var engines = []engine{{"reference", NewReference}, {"production", New}}

// TestBackendConfig covers the deprecated Backend knob: rendering, New's
// range check, and that both values build the one machine, which loads a
// program with its kernels — NewReference's without.
func TestBackendConfig(t *testing.T) {
	if BackendInterp.String() != "interp" || BackendFused.String() != "fused" {
		t.Errorf("Backend.String: %q, %q", BackendInterp, BackendFused)
	}
	if _, err := New(Config{Variant: variant.SingleInstruction, Groups: 1, ProcsPerGroup: 1, Backend: Backend(9)}); err == nil {
		t.Error("New accepted an unknown backend")
	}
	prog := isa.MustAssemble("va", vectorAddSrc)
	kernels := func(m *Machine, err error) (n int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		for _, fi := range m.code {
			if fi.Kern != nil {
				n++
			}
		}
		return n
	}
	cfg := Default(variant.SingleInstruction)
	cfg.Backend = BackendInterp
	interp := kernels(New(cfg))
	cfg.Backend = BackendFused
	if fused := kernels(New(cfg)); interp == 0 || fused != interp {
		t.Errorf("kernels loaded: %d under %v, %d under %v", interp, BackendInterp, fused, BackendFused)
	}
	if ref := kernels(NewReference(cfg)); ref != 0 {
		t.Errorf("the reference loaded %d kernels", ref)
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

// TestFusedResetReuse: the machine compiles at LoadProgram, and Reset drops
// the compiled program with the source program. That the re-run matches a
// fresh machine is the lattice's reset row (internal/chaos).
func TestFusedResetReuse(t *testing.T) {
	prog := isa.MustAssemble("va", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if len(fresh.code) != prog.Len() {
		t.Fatal("the machine did not compile at LoadProgram")
	}
	if _, err := fresh.Run(); err != nil {
		t.Fatal(err)
	}

	fresh.Reset()
	if len(fresh.code) != 0 {
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

// TestFusedTableReload: a machine compiles each program it loads into
// the one per-PC array it keeps. Loading a long program, a short one and the
// long one again, the table is exactly as long as the program: no kernel of
// the long program survives past the short one's end. That each run matches
// a fresh machine's is the lattice's reset row (internal/chaos).
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
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*isa.Program{long, short, long} {
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		if len(m.code) != p.Len() {
			t.Fatalf("%s: table of %d instructions for a program of %d", p.Name, len(m.code), p.Len())
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		m.Reset()
	}
}
