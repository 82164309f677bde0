package machine

import (
	"bytes"
	"reflect"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

func TestParseBackend(t *testing.T) {
	cases := []struct {
		s    string
		want Backend
		ok   bool
	}{
		{"interp", BackendInterp, true},
		{"", BackendInterp, true},
		{"fused", BackendFused, true},
		{"jit", 0, false},
		{"Fused", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.s)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, ok=%v", c.s, got, err, c.want, c.ok)
		}
	}
	if BackendInterp.String() != "interp" || BackendFused.String() != "fused" {
		t.Errorf("Backend.String: %q, %q", BackendInterp, BackendFused)
	}
	if _, err := New(Config{Variant: variant.SingleInstruction, Groups: 1, ProcsPerGroup: 1, Backend: Backend(9)}); err == nil {
		t.Error("New accepted an unknown backend")
	}
}

// TestSnapshotRestoreAcrossBackends pins the cross-backend resume contract:
// the snapshot fingerprint deliberately excludes Backend, and a run
// checkpointed under either backend resumes bit-identically under the other
// — outputs, memory image and complete statistics. Both directions, at every
// kill point.
func TestSnapshotRestoreAcrossBackends(t *testing.T) {
	backends := []Backend{BackendInterp, BackendFused}
	for name, src := range resetPrograms {
		t.Run(name, func(t *testing.T) {
			prog := isa.MustAssemble(name, src)
			for _, kind := range []variant.Kind{variant.SingleInstruction, variant.MultiInstruction} {
				oracleCfg := Default(kind)
				oracle, err := New(oracleCfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := oracle.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				if _, err := oracle.Run(); err != nil {
					t.Fatalf("%v oracle: %v", kind, err)
				}
				want := snapshotOf(oracle)
				total := int(oracle.Stats().Steps)

				for _, from := range backends {
					for _, to := range backends {
						for kill := 0; kill <= total; kill++ {
							fromCfg := Default(kind)
							fromCfg.Backend = from
							m, err := New(fromCfg)
							if err != nil {
								t.Fatal(err)
							}
							if err := m.LoadProgram(prog); err != nil {
								t.Fatal(err)
							}
							stepN(t, m, kill)
							var buf bytes.Buffer
							if err := m.Snapshot(&buf); err != nil {
								t.Fatalf("%v %v->%v kill=%d: snapshot: %v", kind, from, to, kill, err)
							}
							toCfg := Default(kind)
							toCfg.Backend = to
							r, err := Restore(bytes.NewReader(buf.Bytes()), toCfg)
							if err != nil {
								t.Fatalf("%v %v->%v kill=%d: restore: %v", kind, from, to, kill, err)
							}
							if _, err := r.Run(); err != nil {
								t.Fatalf("%v %v->%v kill=%d: resumed run: %v", kind, from, to, kill, err)
							}
							if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
								t.Fatalf("%v %v->%v kill=%d: resumed run differs from oracle\ngot  %+v\nwant %+v",
									kind, from, to, kill, got.stats, want.stats)
							}
						}
					}
				}
			}
		})
	}
}

// TestFusedResetReuse: a Reset fused machine re-running a program matches a
// fresh fused machine (the pooled-machine contract, fused edition), and
// Reset drops the compiled program with the source program.
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
	want := snapshotOf(fresh)

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
	if got := snapshotOf(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset fused machine diverged:\ngot  %+v\nwant %+v", got.stats, want.stats)
	}
}
