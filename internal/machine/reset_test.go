package machine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"tcfpram/internal/fault"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// snapshot captures everything observable about a finished run that a
// pooled-machine reuse must reproduce bit-identically.
type runSnapshot struct {
	stats   Stats
	outputs []Output
	memory  []int64
}

func snapshotOf(m *Machine) runSnapshot {
	st := *m.Stats()
	st.PerGroupOps = append([]int64(nil), st.PerGroupOps...)
	st.PerGroupCycles = append([]int64(nil), st.PerGroupCycles...)
	return runSnapshot{
		stats:   st,
		outputs: append([]Output(nil), m.Outputs()...),
		memory:  m.Shared().Snapshot(0, 2048),
	}
}

// resetPrograms exercises thickness changes, splits, shared and local
// memory, multioperations and printing — the state surfaces Reset must
// scrub.
var resetPrograms = map[string]string{
	"vector-add": vectorAddSrc,
	"multiop": `
.data 100: 1 2 3 4 5 6 7 8
main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    LD V1, V0+100
    MADD 500, V1
    HALT
`,
	"split-print": `
main:
    SPLIT 2 -> left, 3 -> right
    LDI S1, 7
    ST S1+600, S1
    HALT
left:
    TID V0
    ST V0+610, V0
    JOIN
right:
    TID V0
    ST V0+620, V0
    JOIN
`,
}

// TestMachineResetBitIdentity: a Reset machine re-running a program must be
// indistinguishable from a fresh machine — stats, outputs and memory image.
func TestMachineResetBitIdentity(t *testing.T) {
	auditResets(t)
	for name, src := range resetPrograms {
		t.Run(name, func(t *testing.T) {
			prog := isa.MustAssemble(name, src)
			for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced} {
				cfg := Default(kind)
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.Run(); err != nil {
					t.Fatalf("%v fresh: %v", kind, err)
				}
				want := snapshotOf(fresh)

				pooled, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the machine with a different program first, then
				// Reset and re-run the one under test — three generations.
				for i := 0; i < 3; i++ {
					if err := pooled.LoadProgram(isa.MustAssemble("dirty", vectorAddSrc)); err != nil {
						t.Fatal(err)
					}
					if _, err := pooled.Run(); err != nil {
						t.Fatal(err)
					}
					pooled.Reset()
					if err := pooled.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
					if _, err := pooled.Run(); err != nil {
						t.Fatalf("%v reused gen %d: %v", kind, i, err)
					}
					got := snapshotOf(pooled)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v gen %d: reused run differs from fresh\ngot  %+v\nwant %+v",
							kind, i, got.stats, want.stats)
					}
					pooled.Reset()
				}
			}
		})
	}
}

// auditResets makes every Reset of the test scan the memories it has just
// cleared by their written lists for a word that survived (mem.ResetAudit).
func auditResets(t testing.TB) {
	mem.ResetAudit.Store(true)
	t.Cleanup(func() { mem.ResetAudit.Store(false) })
}

// TestMachineResetAfterAbnormalStop: reuse after a run that did not end well
// — a quota abort, a cancellation, a fault in the middle of a step whose other
// flows had stores buffered, a step the discipline checker discarded, a run
// that lost a memory module, a run restored from a snapshot and left half way
// — must still be bit-identical to fresh execution, and Reset must have left
// no word of it in shared or local memory.
func TestMachineResetAfterAbnormalStop(t *testing.T) {
	auditResets(t)
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	// Stores to two pages and a local block every step, for ever.
	spin := isa.MustAssemble("spin", `
main:
    LDI S0, 1
loop:
    ST S0+900, S0
    ST S0+5000, S0
    STL S0+40, S0
    ADD S0, S0, 1
    JMP loop
`)
	run := func(t *testing.T, m *Machine, p *isa.Program, want error) {
		t.Helper()
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", p.Name, err, want)
		}
	}
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
		dirty func(t *testing.T, m *Machine) *Machine // returns the machine to reuse
	}{
		{name: "quota", dirty: func(t *testing.T, m *Machine) *Machine {
			if err := m.SetLimits(5, 0); err != nil {
				t.Fatal(err)
			}
			run(t, m, spin, ErrMaxSteps)
			return m
		}},
		{name: "canceled", dirty: func(t *testing.T, m *Machine) *Machine {
			if err := m.LoadProgram(spin); err != nil {
				t.Fatal(err)
			}
			stepN(t, m, 7)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.RunContext(ctx); !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled: err = %v, want ErrCanceled", err)
			}
			return m
		}},
		{name: "fault-mid-step", dirty: func(t *testing.T, m *Machine) *Machine {
			// The second arm fails in the step in which the first one stores.
			p := isa.MustAssemble("midstep", `
main:
    LDI S2, -3
    SPLIT 4 -> store, 1 -> fail
    HALT
store:
    TID V0
    ST V0+2100, V0
    ST V0+2200, V0
    JOIN
fail:
    NOP
    SETTHICK S2
    JOIN
`)
			if err := m.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err == nil {
				t.Fatal("midstep: the negative thickness went through")
			}
			return m
		}},
		{name: "discarded-step", tweak: func(c *Config) { c.MemDiscipline = mem.DisciplineEREW }, dirty: func(t *testing.T, m *Machine) *Machine {
			p := isa.MustAssemble("erew", `
main:
    LDI S0, 4
    SETTHICK S0
    TID V0
    ST V0+3000, V0
    ST 3100, V0
    HALT
`)
			run(t, m, p, ErrDisciplineViolation)
			return m
		}},
		{name: "failed-over", tweak: func(c *Config) {
			c.FaultPlan = &fault.Plan{Modules: []fault.ModuleFault{{Module: 1, Step: 3}}}
		}, dirty: func(t *testing.T, m *Machine) *Machine {
			if err := m.SetLimits(12, 0); err != nil {
				t.Fatal(err)
			}
			run(t, m, spin, ErrMaxSteps)
			if m.Stats().Failovers != 1 {
				t.Fatalf("failed-over: %d failovers", m.Stats().Failovers)
			}
			return m
		}},
		{name: "restored", dirty: func(t *testing.T, m *Machine) *Machine {
			if err := m.LoadProgram(spin); err != nil {
				t.Fatal(err)
			}
			stepN(t, m, 9)
			snap := machineBytes(t, m)
			m.Reset() // the one that was snapshotted, too
			r, err := Restore(bytes.NewReader(snap), m.Config())
			if err != nil {
				t.Fatal(err)
			}
			r.Reset() // pages only the restore wrote
			if r, err = Restore(bytes.NewReader(snap), m.Config()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(variant.SingleInstruction)
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run(t, fresh, prog, nil)
			want := snapshotOf(fresh)

			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m = tc.dirty(t, m)
			m.Reset()
			if err := m.SetLimits(0, 0); err != nil {
				t.Fatal(err)
			}
			run(t, m, prog, nil)
			if got := snapshotOf(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-abort reuse differs from fresh\ngot  %+v\nwant %+v", got.stats, want.stats)
			}
		})
	}
}

// TestMaxThicknessQuota: SETTHICK and SPLIT growth past MaxThickness stop
// the run with ErrThicknessLimit; the same programs run clean unbounded.
func TestMaxThicknessQuota(t *testing.T) {
	setthick := `
main:
    LDI S0, 64
    SETTHICK S0
    TID V0
    ST V0+100, V0
    HALT
`
	split := `
main:
    SPLIT 64 -> arm
    HALT
arm:
    JOIN
`
	for name, src := range map[string]string{"setthick": setthick, "split": split} {
		t.Run(name, func(t *testing.T) {
			if _, err := runSrc(t, variant.SingleInstruction, src, nil); err != nil {
				t.Fatalf("unbounded: %v", err)
			}
			_, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxThickness = 63 })
			if !errors.Is(err, ErrThicknessLimit) {
				t.Fatalf("bounded: err = %v, want ErrThicknessLimit", err)
			}
			if _, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxThickness = 64 }); err != nil {
				t.Fatalf("bound exactly at need: %v", err)
			}
		})
	}
}

// TestSetLimitsGuards: limits are rejected once flows exist and on bad
// values.
func TestSetLimitsGuards(t *testing.T) {
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(0, -1); err == nil {
		t.Fatal("negative MaxThickness accepted")
	}
	if err := m.LoadProgram(isa.MustAssemble("t", vectorAddSrc)); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(10, 0); err == nil {
		t.Fatal("SetLimits accepted on a booted machine")
	}
}
