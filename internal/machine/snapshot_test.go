package machine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tcfpram/internal/checkpoint"
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

// splitPrintSrc splits into two arms that store their lanes and join.
const splitPrintSrc = `
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
`

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

// TestRestoreRefusesOtherVersion: a container of another format version — the
// version-1 layout with the fault model's slots, the version-2 one whose
// flows carry their logical thickness, or a later one — is refused before any
// section is read, with an error naming both versions.
func TestRestoreRefusesOtherVersion(t *testing.T) {
	for _, v := range []uint64{1, 2, snapVersion + 1} {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf, snapMagic, v)
		e.Section("config")
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := Restore(&buf, Default(variant.SingleInstruction))
		want := fmt.Sprintf("version %d, this build reads %d", v, snapVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d container: err = %v, want one containing %q", v, err, want)
		}
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
	prog := isa.MustAssemble("split-print", splitPrintSrc)
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

// TestRunContextCheckpointing: the SetCheckpointing trigger fires at exact
// step multiples, every snapshot restores at the step it was taken, and a
// sink failure stops the run. That a checkpointed run and a resumed one are
// the uninterrupted run is the lattice's checkpoint and kill rows
// (internal/chaos).
func TestRunContextCheckpointing(t *testing.T) {
	prog := isa.MustAssemble("multiop", multiopSrc)
	cfg := Default(variant.SingleInstruction)

	sink := &memSink{}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(2, sink); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) == 0 {
		t.Fatal("no checkpoints written")
	}
	for i, s := range sink.steps {
		if s%2 != 0 {
			t.Fatalf("checkpoint %d at step %d, want a multiple of 2", i, s)
		}
		r, err := Restore(bytes.NewReader(sink.snaps[i]), cfg)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if r.Stats().Steps != s {
			t.Fatalf("snapshot %d restored at step %d, want %d", i, r.Stats().Steps, s)
		}
	}

	// A failing sink stops the run with its error.
	bad := &memSink{fail: errors.New("disk full")}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetCheckpointing(2, bad); err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sink failure err = %v, want the sink's error", err)
	}
}

// multiopSrc loads eight words and adds them into one.
const multiopSrc = `
.data 100: 1 2 3 4 5 6 7 8
main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    LD V1, V0+100
    MADD 500, V1
    HALT
`

// TestSetCheckpointingGuards: a negative interval is rejected; a booted
// machine takes the wiring at its step boundary (as a restored one must, to
// go on checkpointing); Reset clears it.
func TestSetCheckpointingGuards(t *testing.T) {
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(-1, nil); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}
	sink := &memSink{}
	if err := m.SetCheckpointing(4, sink); err != nil {
		t.Fatal(err)
	}
	if m.ckptEvery != 4 || m.ckptSink == nil {
		t.Fatal("SetCheckpointing did not stick")
	}
	if err := m.LoadProgram(isa.MustAssemble("t", vectorAddSrc)); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCheckpointing(1, sink); err != nil {
		t.Fatalf("SetCheckpointing on a booted machine: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if int64(len(sink.steps)) != m.Stats().Steps {
		t.Fatalf("%d checkpoints over %d steps, want one a step", len(sink.steps), m.Stats().Steps)
	}
	m.Reset()
	if m.ckptEvery != 0 || m.ckptSink != nil {
		t.Fatal("Reset kept the checkpoint wiring")
	}
}

// TestRestoredMachineIsSnapshottable: a restored machine can itself be
// snapshotted and restored (checkpoint chains across repeated crashes).
func TestRestoredMachineIsSnapshottable(t *testing.T) {
	prog := isa.MustAssemble("split-print", splitPrintSrc)
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
