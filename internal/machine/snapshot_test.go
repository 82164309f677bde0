package machine

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"tcfpram/internal/fault"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// memSink collects checkpoints in memory, one buffer per write.
type memSink struct {
	steps []int64
	snaps [][]byte
	fail  error // when set, the next Checkpoint returns it
}

func (s *memSink) Checkpoint(step int64, snap func(w io.Writer) error) error {
	if s.fail != nil {
		return s.fail
	}
	var buf bytes.Buffer
	if err := snap(&buf); err != nil {
		return err
	}
	s.steps = append(s.steps, step)
	s.snaps = append(s.snaps, buf.Bytes())
	return nil
}

// stepN boots m and advances at most n steps (stopping early when done).
func stepN(t *testing.T, m *Machine, n int) {
	t.Helper()
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n && !m.Done(); i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestSnapshotRestoreBitIdentity: snapshot mid-run, restore into a new
// machine, run to completion — outputs, memory image and the full Stats must
// match the uninterrupted oracle at every kill point.
func TestSnapshotRestoreBitIdentity(t *testing.T) {
	for name, src := range resetPrograms {
		t.Run(name, func(t *testing.T) {
			prog := isa.MustAssemble(name, src)
			for _, kind := range []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction} {
				cfg := Default(kind)
				oracle, err := New(cfg)
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

				for kill := 0; kill <= total; kill++ {
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
					stepN(t, m, kill)
					var buf bytes.Buffer
					if err := m.Snapshot(&buf); err != nil {
						t.Fatalf("%v kill=%d: snapshot: %v", kind, kill, err)
					}
					r, err := Restore(bytes.NewReader(buf.Bytes()), cfg)
					if err != nil {
						t.Fatalf("%v kill=%d: restore: %v", kind, kill, err)
					}
					if _, err := r.Run(); err != nil {
						t.Fatalf("%v kill=%d: resumed run: %v", kind, kill, err)
					}
					if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v kill=%d: resumed run differs from oracle\ngot  %+v\nwant %+v",
							kind, kill, got.stats, want.stats)
					}
				}
			}
		})
	}
}

// TestSnapshotRestoreWithFaultPlan: the fault plan's decisions are pure
// functions of (seed, step, seq), so a restored run must replay exactly the
// faults the uninterrupted run saw — same Retransmits, same Failovers, same
// cycle counts.
func TestSnapshotRestoreWithFaultPlan(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	cfg.FaultPlan = &fault.Plan{
		Seed:        42,
		MemDropRate: 0.25, // aggressive: every run sees retransmission stalls
		Modules:     []fault.ModuleFault{{Module: 1, Step: 2}},
	}

	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(oracle)
	if oracle.Stats().Retransmits == 0 && oracle.Stats().Failovers == 0 {
		t.Fatal("fault plan injected nothing; test is vacuous")
	}

	for kill := 1; kill < int(oracle.Stats().Steps); kill++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		stepN(t, m, kill)
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("kill=%d: faulted resume differs\ngot  %+v\nwant %+v", kill, got.stats, want.stats)
		}
	}
}

// TestRestoreConfigMismatch: restore onto a machine that differs in any
// behavior-relevant field must fail with an error naming the field.
func TestRestoreConfigMismatch(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 2)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		field string
		tweak func(*Config)
	}{
		{"Groups", func(c *Config) { c.Groups = 2 }},
		{"ProcsPerGroup", func(c *Config) { c.ProcsPerGroup = 8 }},
		{"SharedWords", func(c *Config) { c.SharedWords = 1 << 12 }},
		{"MemLatencyBase", func(c *Config) { c.MemLatencyBase = 2 }},
		{"MaxSteps", func(c *Config) { c.MaxSteps = 99 }},
		{"WatchdogSteps", func(c *Config) { c.WatchdogSteps = 17 }},
		{"FaultPlan", func(c *Config) { c.FaultPlan = fault.Random(7, 4, 4) }},
	}
	for _, tc := range cases {
		bad := cfg
		tc.tweak(&bad)
		_, err := Restore(bytes.NewReader(buf.Bytes()), bad)
		if err == nil {
			t.Fatalf("%s mismatch accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s mismatch error %q does not name the field", tc.field, err)
		}
	}

	// Result-neutral knobs may differ freely.
	free := cfg
	free.TraceEnabled = true
	if _, err := Restore(bytes.NewReader(buf.Bytes()), free); err != nil {
		t.Fatalf("result-neutral config change rejected: %v", err)
	}
}

// TestSnapshotRefusedOnFailedMachine: a machine that stopped with an error
// has no well-defined boundary state to save.
func TestSnapshotRefusedOnFailedMachine(t *testing.T) {
	spin := isa.MustAssemble("spin", `
main:
    JMP main
`)
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(spin); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
	if err := m.Snapshot(io.Discard); err == nil {
		t.Fatal("snapshot of a failed machine accepted")
	}
}

// TestRestoreRejectsCorruptSnapshot: bit flips and truncation must be
// detected, never silently restored.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	prog := isa.MustAssemble("vector-add", vectorAddSrc)
	cfg := Default(variant.SingleInstruction)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 2)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := Restore(bytes.NewReader(data[:len(data)/2]), cfg); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	for _, flip := range []int{len(data) / 3, len(data) / 2, len(data) - 12} {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x40
		if _, err := Restore(bytes.NewReader(mut), cfg); err == nil {
			t.Fatalf("bit flip at %d accepted", flip)
		}
	}
}

// TestRestoreRejectsBadFlowIDs: flow ids index the machine's flow list, so a
// snapshot whose flows are not 0..n-1 in order, or that names a flow that is
// not there, must come back as an error — never a panic or an index out of
// range. Each case damages a mid-run machine (split parent waiting on two
// children) in memory and snapshots it, so the container and its checksum
// are valid and only Restore's own checks stand in the way.
func TestRestoreRejectsBadFlowIDs(t *testing.T) {
	prog := isa.MustAssemble("split-print", resetPrograms["split-print"])
	cfg := Default(variant.SingleInstruction)
	cases := []struct {
		name   string
		damage func(m *Machine)
		want   string
	}{
		{"duplicate", func(m *Machine) { m.flowList[2].ID = 1 }, "duplicate flow id 1"},
		{"gap", func(m *Machine) { m.flowList[2].ID = 7 }, "not 0..2 in order"},
		{"out-of-order", func(m *Machine) { m.flowList[1].ID, m.flowList[2].ID = 2, 1 }, "not 0..2 in order"},
		{"negative", func(m *Machine) { m.flowList[0].ID = -1 }, "not 0..2 in order"},
		{"dangling parent", func(m *Machine) { m.flowList[1].Parent = &tcf.Flow{ID: 99} }, "missing parent 99"},
		{"dangling resident", func(m *Machine) {
			b := &m.groups[3].Buf
			b.Resident = append(b.Resident, &tcf.Flow{ID: 99})
		}, "missing flow 99"},
		{"dangling pending", func(m *Machine) { m.groups[0].Buf.Pending.push(&tcf.Flow{ID: -5}) }, "missing flow -5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			stepN(t, m, 1)
			if len(m.flowList) != 3 || m.live != 3 {
				t.Fatalf("want 3 live flows after the split, have %d of %d", m.live, len(m.flowList))
			}
			var good bytes.Buffer
			if err := m.Snapshot(&good); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(bytes.NewReader(good.Bytes()), cfg)
			if err != nil {
				t.Fatalf("undamaged snapshot refused: %v", err)
			}
			if r.live != 3 || r.live != r.liveFlowsScan() {
				t.Fatalf("restored live count %d, scan finds %d", r.live, r.liveFlowsScan())
			}
			tc.damage(m)
			var bad bytes.Buffer
			if err := m.Snapshot(&bad); err != nil {
				t.Fatal(err)
			}
			_, err = Restore(bytes.NewReader(bad.Bytes()), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestRunContextCheckpointing: the CheckpointEvery trigger fires at exact
// step multiples, the last snapshot resumes bit-identically, and a sink
// failure stops the run.
func TestRunContextCheckpointing(t *testing.T) {
	prog := isa.MustAssemble("multiop", resetPrograms["multiop"])
	cfg := Default(variant.SingleInstruction)

	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(oracle)
	if oracle.Stats().Steps < 4 {
		t.Fatalf("program too short (%d steps) to exercise checkpointing", oracle.Stats().Steps)
	}

	sink := &memSink{}
	ckpt := cfg
	ckpt.CheckpointEvery = 2
	ckpt.CheckpointSink = sink
	m, err := New(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointing changed results\ngot  %+v\nwant %+v", got.stats, want.stats)
	}
	if len(sink.snaps) == 0 {
		t.Fatal("no checkpoints written")
	}
	for i, s := range sink.steps {
		if s%2 != 0 {
			t.Fatalf("checkpoint %d at step %d, want a multiple of CheckpointEvery", i, s)
		}
	}

	// Resume from every snapshot written along the way.
	for i, snap := range sink.snaps {
		r, err := Restore(bytes.NewReader(snap), cfg)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if r.Stats().Steps != sink.steps[i] {
			t.Fatalf("snapshot %d restored at step %d, want %d", i, r.Stats().Steps, sink.steps[i])
		}
		if _, err := r.Run(); err != nil {
			t.Fatalf("snapshot %d resume: %v", i, err)
		}
		if got := snapshotOf(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d: resumed run differs from oracle", i)
		}
	}

	// A failing sink stops the run with its error.
	bad := &memSink{fail: errors.New("disk full")}
	ckpt.CheckpointSink = bad
	m2, err := New(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sink failure err = %v, want the sink's error", err)
	}
}

// TestSetCheckpointingGuards: rejected once flows exist; cleared by Reset.
func TestSetCheckpointingGuards(t *testing.T) {
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(-1, nil); err == nil {
		t.Fatal("negative CheckpointEvery accepted")
	}
	sink := &memSink{}
	if err := m.SetCheckpointing(4, sink); err != nil {
		t.Fatal(err)
	}
	if m.Config().CheckpointEvery != 4 || m.Config().CheckpointSink == nil {
		t.Fatal("SetCheckpointing did not stick")
	}
	if err := m.LoadProgram(isa.MustAssemble("t", vectorAddSrc)); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(4, sink); err == nil {
		t.Fatal("SetCheckpointing accepted on a booted machine")
	}
	m.Reset()
	if m.Config().CheckpointEvery != 0 || m.Config().CheckpointSink != nil {
		t.Fatal("Reset kept the checkpoint wiring")
	}
}

// TestRestoredMachineIsSnapshottable: a restored machine can itself be
// snapshotted and restored (checkpoint chains across repeated crashes).
func TestRestoredMachineIsSnapshottable(t *testing.T) {
	prog := isa.MustAssemble("split-print", resetPrograms["split-print"])
	cfg := Default(variant.SingleInstruction)
	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(oracle)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 1)
	for !m.Done() {
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if m, err = Restore(bytes.NewReader(buf.Bytes()), cfg); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := snapshotOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-every-step run differs from oracle\ngot  %+v\nwant %+v", got.stats, want.stats)
	}
}
