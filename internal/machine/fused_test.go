package machine

import (
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
