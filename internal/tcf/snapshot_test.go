package tcf

import (
	"bytes"
	"testing"

	"tcfpram/internal/checkpoint"
	"tcfpram/internal/isa"
)

func flowBytes(t *testing.T, f *Flow) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := checkpoint.NewEncoder(&buf, "FLOW", 1)
	f.EncodeTo(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlowSnapshotRoundTrip: what a flow writes depends on its registers'
// lanes and lengths and on nothing the arena decides — whether a table is
// attached, how long it is, what capacity a bank has — and what it reads back
// is the same flow: same bytes again, same digest, same lazy allocation. A
// flow without a table, one whose table holds no bank, one with lanes a
// narrower thickness hides, one in the middle of a call.
func TestFlowSnapshotRoundTrip(t *testing.T) {
	scalarOnly := New(3, 7, 4)
	scalarOnly.SetScalar(isa.S(2), -9)

	emptyTable := New(3, 7, 4)
	emptyTable.SetScalar(isa.S(2), -9)
	emptyTable.vectors = make([][]int64, 8)

	hidden := New(5, 1, 6)
	hidden.Regs = NewRegArena(1 << 10)
	for i, v := range hidden.Vector(isa.V(1)) {
		hidden.Vector(isa.V(1))[i] = v + int64(10+i)
	}
	hidden.Vector(isa.V(30))[5] = 1
	if err := hidden.SetThickness(2); err != nil {
		t.Fatal(err)
	}
	hidden.Call(40)
	hidden.Call(41)

	if !bytes.Equal(flowBytes(t, scalarOnly), flowBytes(t, emptyTable)) || scalarOnly.StateDigest() != emptyTable.StateDigest() {
		t.Fatal("a table that holds no bank shows in the snapshot or the digest")
	}
	for name, f := range map[string]*Flow{"no table": scalarOnly, "empty table": emptyTable, "hidden lanes": hidden} {
		want := flowBytes(t, f)
		d, err := checkpoint.NewDecoder(bytes.NewReader(want), "FLOW")
		if err != nil {
			t.Fatal(err)
		}
		var g Flow
		g.vectors = make([][]int64, 4) // whatever it held
		if _, err := g.DecodeFrom(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := flowBytes(t, &g); !bytes.Equal(got, want) {
			t.Fatalf("%s: the decoded flow encodes differently", name)
		}
		if g.StateDigest() != f.StateDigest() || g.RegWords() != f.RegWords() || g.RegWordsPeak != f.RegWordsPeak {
			t.Fatalf("%s: digest, words or peak changed across the round trip", name)
		}
		for r := 0; r < isa.NumVRegs; r++ {
			if g.VectorAllocated(isa.V(r)) != f.VectorAllocated(isa.V(r)) {
				t.Fatalf("%s: V%d allocated %v before, %v after", name, r, f.VectorAllocated(isa.V(r)), g.VectorAllocated(isa.V(r)))
			}
		}
		if (g.vectors != nil) != (f.RegWords() > isa.NumSRegs) {
			t.Fatalf("%s: decoded with a table of %d headers for %d words of banks", name, len(g.vectors), f.RegWords()-isa.NumSRegs)
		}
	}
	// The hidden lanes come back when the thickness does.
	if err := hidden.SetThickness(6); err != nil {
		t.Fatal(err)
	}
	if v := hidden.Vector(isa.V(1)); v[5] != 15 || hidden.Vector(isa.V(30))[5] != 1 {
		t.Fatalf("hidden lanes lost: V1 = %v", v)
	}
}
