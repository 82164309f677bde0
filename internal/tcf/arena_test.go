package tcf

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"tcfpram/internal/checkpoint"
	"tcfpram/internal/isa"
)

// hiddenLanes drives one register through a shrink and two regrowths — the
// first inside the bank it has, the second beyond it — and returns what the
// flow looked like after each change of thickness.
func hiddenLanes(t *testing.T, f *Flow, scale int) (lanes [][]int64, digests []uint64, snap []byte) {
	t.Helper()
	v := f.Vector(isa.V(0))
	for i := range v {
		v[i] = int64(10 + i)
	}
	for _, thick := range []int{3, 6, 12} {
		if err := f.SetThickness(thick * scale); err != nil {
			t.Fatal(err)
		}
		if thick == 3 {
			f.Vector(isa.V(0))[1] = -1 // the visible lanes stay writable
		}
		lanes = append(lanes, slices.Clone(f.Vector(isa.V(0))))
		digests = append(digests, f.StateDigest())
	}
	var buf bytes.Buffer
	e := checkpoint.NewEncoder(&buf, "FLOW", 1)
	f.EncodeTo(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return lanes, digests, buf.Bytes()
}

// TestShrinkGrowKeepsHiddenLanes: the lanes a narrower thickness hides are
// architectural state. They stay in the bank (the digest and the snapshot
// carry them), come back with the values they held when the thickness grows
// again, and only lanes the register never had read as zero — the same from
// the allocator and from an arena whose banks are dirty and oversized.
func TestShrinkGrowKeepsHiddenLanes(t *testing.T) {
	wantLanes, wantDigests, _ := hiddenLanes(t, New(0, 0, 8), 1)
	for i, want := range [][]int64{
		{10, -1, 12},
		{10, -1, 12, 13, 14, 15},
		{10, -1, 12, 13, 14, 15, 16, 17, 0, 0, 0, 0},
	} {
		if !slices.Equal(wantLanes[i], want) {
			t.Fatalf("after thickness change %d: lanes %v, want %v", i, wantLanes[i], want)
		}
	}
	if wantDigests[0] == wantDigests[1] {
		t.Fatal("uncovering hidden lanes left the state digest unchanged: the thickness is in it")
	}

	// The same at sixteen times the width, where banks are the arena's.
	const scale = minBank / 4
	plain := New(0, 0, 8*scale)
	wantLanes, wantDigests, wantSnap := hiddenLanes(t, plain, scale)
	a := NewRegArena(1 << 12)
	for _, n := range []int{12, 8} { // dirty banks, the first request's on top
		bank := make([]int64, n*scale)
		for i := range bank {
			bank[i] = -7
		}
		a.keep(bank)
	}
	f := New(0, 0, 8*scale)
	f.Regs = a
	lanes, digests, snap := hiddenLanes(t, f, scale)
	for i := range wantLanes {
		if !slices.Equal(lanes[i], wantLanes[i]) || digests[i] != wantDigests[i] {
			t.Fatalf("after thickness change %d: arena-backed flow has lanes %v, want %v", i, lanes[i], wantLanes[i])
		}
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Fatal("arena-backed flow encodes differently: bank capacity leaked into the snapshot")
	}
	if f.RegWordsPeak != plain.RegWordsPeak {
		t.Fatalf("RegWordsPeak %d on the arena, %d without", f.RegWordsPeak, plain.RegWordsPeak)
	}
	if reused, allocated := a.Counts(); reused != 2 || allocated != 0 {
		t.Fatalf("arena reused %d banks and allocated %d, want 2 and 0", reused, allocated)
	}
}

// TestRegArenaRecycle: Recycle takes the banks of the flows that hold any,
// leaves those flows without, drops what the run did not use and keeps
// neither more words than the run's flows held nor more than the limit.
func TestRegArenaRecycle(t *testing.T) {
	a := NewRegArena(1000)
	flows := []*Flow{New(0, 0, 400), New(1, 0, 300), New(2, 0, 500), New(3, 0, 1)}
	for _, f := range flows {
		f.Regs = a
	}
	for _, f := range flows[:3] {
		f.Vector(isa.V(1))[0] = 9
	}
	a.Recycle()
	if got := a.words; got != 800 {
		t.Fatalf("%d words kept, want the 500 and 300 that fit under the limit of 1000", got)
	}
	for _, f := range flows {
		if f.VectorAllocated(isa.V(1)) {
			t.Fatalf("flow %d still holds a bank after Recycle", f.ID)
		}
	}

	// The next run finds them, zeroed; what it leaves unused goes.
	g := New(0, 0, 300)
	g.Regs = a
	if v := g.Vector(isa.V(3)); slices.Max(v) != 0 || len(v) != 300 {
		t.Fatalf("recycled bank not zeroed to the requested length: %v", v)
	}
	if reused, allocated := a.Counts(); reused != 1 || allocated != 0 {
		t.Fatalf("reused %d allocated %d, want 1 and 0", reused, allocated)
	}
	a.Recycle()
	if got := a.words; got != 300 {
		t.Fatalf("%d words kept after a run that used 300", got)
	}

	// A bank with room to spare is kept only against words given up: the run
	// that used 150 words of it does not pin 300.
	h := New(0, 0, 150)
	h.Regs = a
	if v := h.Vector(isa.V(0)); cap(v) != 300 {
		t.Fatalf("a request for 150 lanes got a bank of capacity %d, want the 300 on top of the stack", cap(v))
	}
	a.Recycle()
	if got := a.words; got != 0 {
		t.Fatalf("%d words kept after a run that used 150 of a bank of 300", got)
	}

	// Banks come back in the order a rerun asks for them.
	for run := 0; run < 2; run++ {
		f := New(0, 0, 400)
		f.Regs = a
		f.Vector(isa.V(0))
		f.SetThickness(300) // hidden lanes stay; the next register is narrower
		f.Vector(isa.V(1))
		if reused, allocated := a.Counts(); reused != int64(2*run) || allocated != int64(2-2*run) {
			t.Fatalf("run %d: reused %d allocated %d", run, reused, allocated)
		}
		a.Recycle()
	}
}

// TestRegArenaConcurrentGrow: flows of different groups grow registers on the
// same arena at once, as they do under Config.Parallel. A register that
// outgrows its bank keeps its lanes although the other flows take every free
// bank they find, clear it and write it: the replaced bank is free only once
// its lanes are out of it (under -race a bank handed back earlier shows as a
// data race, without it as lost lanes).
func TestRegArenaConcurrentGrow(t *testing.T) {
	a := NewRegArena(1 << 20)
	var wg sync.WaitGroup
	for id := 1; id <= 4; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				f := New(id, 0, minBank)
				f.Regs = a
				for r, had := 1, 0; f.Thickness <= 8*minBank; r++ {
					v := f.Vector(isa.V(0))
					for i, x := range v {
						want := int64(0)
						if i < had {
							want = int64(id)
						}
						if x != want {
							t.Errorf("flow %d at thickness %d: lane %d reads %d, want %d", id, f.Thickness, i, x, want)
							return
						}
						v[i] = int64(id)
					}
					w := f.Vector(isa.V(r)) // a first touch: takes what the others hand back
					for i := range w {
						w[i] = -int64(id)
					}
					had = f.Thickness
					if err := f.SetThickness(2 * had); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
