package chaos

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

// buildRun constructs a machine for one program (local data segments loaded)
// without running it.
func buildRun(tb testing.TB, c *codegen.Compiled, cfg machine.Config) *machine.Machine {
	tb.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	loadInto(tb, m, c)
	return m
}

// loadInto loads the program and its local data segments into m.
func loadInto(tb testing.TB, m *machine.Machine, c *codegen.Compiled) {
	tb.Helper()
	if err := m.LoadProgram(c.Program); err != nil {
		tb.Fatal(err)
	}
	for _, seg := range c.LocalData {
		for g := 0; g < m.Config().Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				tb.Fatal(err)
			}
		}
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
		c, _ := compileCorpus(f, file)
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
