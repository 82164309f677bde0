package chaos

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fault"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// killPoints picks deterministic pseudo-random step boundaries inside the
// run, seeded from the scenario name so every `go test` kills at the same
// places (reproducible failures) while still spreading kills across the run.
func killPoints(name string, totalSteps int64, n int) []int64 {
	if totalSteps <= 1 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	points := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		points = append(points, 1+rng.Int63n(totalSteps-1))
	}
	return points
}

// buildRun constructs a machine for one corpus program (local data segments
// loaded) without running it.
func buildRun(tb testing.TB, c *codegen.Compiled, cfg machine.Config) *machine.Machine {
	tb.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.LoadProgram(c.Program); err != nil {
		tb.Fatal(err)
	}
	for _, seg := range c.LocalData {
		for g := 0; g < cfg.Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return m
}

// resultOf extracts the observable result of a finished machine.
func resultOf(m *machine.Machine) result {
	var r result
	for _, o := range m.Outputs() {
		r.outputs = append(r.outputs, o.Values...)
	}
	r.memory = m.Shared().Snapshot(0, snapshotWords)
	return r
}

// runKilled executes the program up to the kill step, serializes the machine,
// discards it, restores from the snapshot bytes, and runs the restored
// machine to completion — the crash-recovery path end to end. Both machines
// are Reset under mem.ResetAudit when they are done with: neither the run that
// was cut short nor the one that began as a snapshot may leave a word behind.
func runKilled(tb testing.TB, c *codegen.Compiled, cfg machine.Config, kill int64) (result, *machine.Stats) {
	tb.Helper()
	mem.ResetAudit.Store(true)
	defer mem.ResetAudit.Store(false)
	m := buildRun(tb, c, cfg)
	if err := m.Boot(); err != nil {
		tb.Fatal(err)
	}
	for m.Stats().Steps < kill && !m.Done() {
		if err := m.Step(); err != nil {
			tb.Fatalf("step %d: %v", m.Stats().Steps, err)
		}
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		tb.Fatalf("snapshot at step %d: %v", m.Stats().Steps, err)
	}
	m.Reset()
	r, err := machine.Restore(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		tb.Fatalf("restore at step %d: %v", kill, err)
	}
	if _, err := r.Run(); err != nil {
		tb.Fatalf("resumed run (killed at %d): %v", kill, err)
	}
	res, stats := resultOf(r), *r.Stats()
	stats.PerGroupOps, stats.PerGroupCycles = slices.Clone(stats.PerGroupOps), slices.Clone(stats.PerGroupCycles)
	r.Reset()
	return res, &stats
}

// TestChaosKillAndResumeDifferential is the crash-recovery invariant: for
// every corpus program, on every lockstep variant, with and without
// recoverable fault plans, killing the machine at an arbitrary step boundary,
// serializing it, restoring from the bytes and resuming produces EXACTLY the
// straight-through run — same outputs, same memory image, same Stats
// including cycle counts and fault-recovery counters. Checkpointing must
// never be observable in the results.
func TestChaosKillAndResumeDifferential(t *testing.T) {
	kinds := []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction}
	groups := machine.Default(variant.SingleInstruction).Groups
	plans := []*fault.Plan{
		nil,
		fault.Random(1, groups, groups),
		fault.Random(2, groups, groups),
	}
	var kills, faultedKills int64
	for _, file := range corpusFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			c := compile(t, file)
			for _, kind := range kinds {
				for pi, plan := range plans {
					cfg := machine.Default(kind)
					cfg.FaultPlan = plan

					oracle := buildRun(t, c, cfg)
					if _, err := oracle.Run(); err != nil {
						t.Fatalf("%v plan %d oracle: %v", kind, pi, err)
					}
					want := resultOf(oracle)
					wantStats := oracle.Stats()

					name := file + kind.String() + string(rune('0'+pi))
					for _, kill := range killPoints(name, wantStats.Steps, 3) {
						got, stats := runKilled(t, c, cfg, kill)
						if !reflect.DeepEqual(want.outputs, got.outputs) {
							t.Fatalf("%v plan %d kill=%d: outputs diverged:\noracle  %v\nresumed %v",
								kind, pi, kill, want.outputs, got.outputs)
						}
						if !reflect.DeepEqual(want.memory, got.memory) {
							t.Fatalf("%v plan %d kill=%d: shared memory diverged", kind, pi, kill)
						}
						if !reflect.DeepEqual(*wantStats, *stats) {
							t.Fatalf("%v plan %d kill=%d: stats diverged:\noracle  %+v\nresumed %+v",
								kind, pi, kill, *wantStats, *stats)
						}
						kills++
						if plan != nil && stats.Retransmits+stats.Failovers+stats.Reroutes > 0 {
							faultedKills++
						}
					}
				}
			}
		})
	}
	if kills == 0 {
		t.Fatal("no kill points generated; every corpus run was <= 1 step")
	}
	if faultedKills == 0 {
		t.Fatal("no kill-and-resume run ever crossed a fault; the differential never exercised fault replay")
	}
}

// TestChaosDoubleKillAndResume kills twice — restore from a first snapshot,
// run a bit, snapshot the RESTORED machine, restore again, finish — proving
// checkpoint chains survive repeated crashes without drift.
func TestChaosDoubleKillAndResume(t *testing.T) {
	groups := machine.Default(variant.SingleInstruction).Groups
	cfg := machine.Default(variant.SingleInstruction)
	cfg.FaultPlan = fault.Random(3, groups, groups)

	for _, file := range corpusFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			c := compile(t, file)
			oracle := buildRun(t, c, cfg)
			if _, err := oracle.Run(); err != nil {
				t.Fatal(err)
			}
			want := resultOf(oracle)
			wantStats := oracle.Stats()
			if wantStats.Steps < 3 {
				t.Skipf("run too short (%d steps) for a double kill", wantStats.Steps)
			}

			k1 := wantStats.Steps / 3
			k2 := 2 * wantStats.Steps / 3

			m := buildRun(t, c, cfg)
			if err := m.Boot(); err != nil {
				t.Fatal(err)
			}
			for m.Stats().Steps < k1 && !m.Done() {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var buf1 bytes.Buffer
			if err := m.Snapshot(&buf1); err != nil {
				t.Fatal(err)
			}
			r1, err := machine.Restore(bytes.NewReader(buf1.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r1.Stats().Steps < k2 && !r1.Done() {
				if err := r1.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var buf2 bytes.Buffer
			if err := r1.Snapshot(&buf2); err != nil {
				t.Fatal(err)
			}
			r2, err := machine.Restore(bytes.NewReader(buf2.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r2.Run(); err != nil {
				t.Fatal(err)
			}
			got := resultOf(r2)
			if !reflect.DeepEqual(want.outputs, got.outputs) ||
				!reflect.DeepEqual(want.memory, got.memory) ||
				!reflect.DeepEqual(*wantStats, *r2.Stats()) {
				t.Fatalf("double kill at %d,%d diverged from oracle", k1, k2)
			}
		})
	}
}

// reseal gives snap a trailer that matches its body, so that a mutation of
// the body gets past the checksum and is judged by the decoders themselves.
func reseal(snap []byte) []byte {
	if len(snap) < 8 {
		return snap
	}
	body := len(snap) - 8
	out := bytes.Clone(snap)
	binary.LittleEndian.PutUint64(out[body:], crc64.Checksum(out[:body], crc64.MakeTable(crc64.ECMA)))
	return out
}

// FuzzRestore holds machine.Restore to what a reader of untrusted bytes owes:
// for any input — snapshots of corpus runs cut in the middle, mutated, as they
// are and with the checksum made good again — it returns an error or a machine,
// never panics, indexes out of range or allocates by a forged length; and a
// machine it does return is a fixed point: its snapshot restores, and the
// restored machine's snapshot is the same bytes.
func FuzzRestore(f *testing.F) {
	cfg := machine.Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 16 // fragments and containers among the flows
	for _, file := range corpusFiles(f) {
		c := compile(f, file)
		oracle := buildRun(f, c, cfg)
		if _, err := oracle.Run(); err != nil {
			f.Fatal(err)
		}
		m := buildRun(f, c, cfg)
		if err := m.Boot(); err != nil {
			f.Fatal(err)
		}
		for m.Stats().Steps < oracle.Stats().Steps/2 {
			if err := m.Step(); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, snap []byte) {
		for _, in := range [][]byte{snap, reseal(snap)} {
			m, err := machine.Restore(bytes.NewReader(in), cfg)
			if err != nil {
				continue
			}
			var first, second bytes.Buffer
			if err := m.Snapshot(&first); err != nil {
				continue // restored into a state that is not a step boundary's: refused
			}
			again, err := machine.Restore(bytes.NewReader(first.Bytes()), cfg)
			if err != nil {
				t.Fatalf("the snapshot of a restored machine does not restore: %v", err)
			}
			if err := again.Snapshot(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("the snapshot of a restored machine is not a fixed point of restore and snapshot")
			}
		}
	})
}
