package tcf

import (
	"bytes"
	"math/rand"
	"slices"
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
	if c := a.Counts(); c.BanksReused != 2 || c.BanksAllocated != 0 {
		t.Fatalf("arena reused %d banks and allocated %d, want 2 and 0", c.BanksReused, c.BanksAllocated)
	}
}

// TestRegArenaRecycle: Recycle takes the banks of the flows that hold any,
// leaves those flows without, drops what the run did not use and keeps
// neither more words than the run's flows held nor more than the limit.
func TestRegArenaRecycle(t *testing.T) {
	const tableWords = isa.NumVRegs * headerWords // a flow with a lent bank has a whole table
	a := NewRegArena(1000)
	flows := []*Flow{New(0, 0, 400), New(1, 0, 300), New(2, 0, 500), New(3, 0, 1)}
	for _, f := range flows {
		f.Regs = a
	}
	for _, f := range flows[:3] {
		f.Vector(isa.V(1))[0] = 9
	}
	a.Recycle()
	if got := a.words; got != 800 || a.kept != 2*tableWords {
		t.Fatalf("%d words of banks and %d of tables kept, want the 500 and 300 that fit under the limit of 1000 and two tables in the rest", got, a.kept)
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
	if c := a.Counts(); c.BanksReused != 1 || c.BanksAllocated != 0 {
		t.Fatalf("reused %d allocated %d, want 1 and 0", c.BanksReused, c.BanksAllocated)
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
		if c := a.Counts(); c.BanksReused != int64(2*run) || c.BanksAllocated != int64(2-2*run) {
			t.Fatalf("run %d: reused %d allocated %d", run, c.BanksReused, c.BanksAllocated)
		}
		a.Recycle()
	}
}

// TestRegArenaInterleavedGrow: flows of different groups grow registers on
// the same arena in turn, as the groups of one step do. A register that
// outgrows its bank keeps its lanes although the other flows take every free
// bank they find, clear it and write it: the replaced bank is free only once
// its lanes are out of it.
func TestRegArenaInterleavedGrow(t *testing.T) {
	a := NewRegArena(1 << 20)
	for round := 0; round < 200; round++ {
		var flows [4]*Flow
		var had, next [4]int
		for i := range flows {
			flows[i] = New(i+1, 0, minBank)
			flows[i].Regs = a
			next[i] = 1
		}
		for grown := true; grown; {
			grown = false
			for i, f := range flows {
				id := int64(i + 1)
				if f.Thickness > 8*minBank {
					continue
				}
				grown = true
				v := f.Vector(isa.V(0))
				for l, x := range v {
					want := int64(0)
					if l < had[i] {
						want = id
					}
					if x != want {
						t.Fatalf("flow %d at thickness %d: lane %d reads %d, want %d", id, f.Thickness, l, x, want)
					}
					v[l] = id
				}
				w := f.Vector(isa.V(next[i])) // a first touch: takes what the others hand back
				for l := range w {
					w[l] = -id
				}
				next[i]++
				had[i] = f.Thickness
				if err := f.SetThickness(2 * had[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// modelFlow is the register file as the architecture defines it and nothing
// else: a length per bank, lanes that stay, zeros beyond.
type modelFlow struct {
	mode      Mode
	thickness int
	banks     [isa.NumVRegs][]int64
	stack     []int64
	peak      int64
}

func (m *modelFlow) lanes() int {
	if m.mode == NUMA {
		return 1
	}
	return m.thickness
}

func (m *modelFlow) extend(r, n int) {
	for len(m.banks[r]) < n {
		m.banks[r] = append(m.banks[r], 0)
		m.peak++
	}
}

// TestRegisterFileAgainstModel drives random Vector, SetThickness, EnterNUMA,
// LeavePRAM, Call and Ret sequences over several flows at once, each flow
// three times: on an arena that bumps and lends, on no arena, and as the
// model. After every call the three agree on every bank's lanes and length
// (hidden lanes included), on RegWords, RegWordsPeak and VectorAllocated, and
// the two flows on their state digest and their snapshot bytes; thicknesses
// straddle minBank, so banks move from the bump region to lent banks and
// tables from short to whole. Every so often the arena is recycled and the
// flows start over in the storage the last ones had: a bank of theirs that
// still aliased a live one would show as a lane the model never wrote.
func TestRegisterFileAgainstModel(t *testing.T) {
	const flows = 5
	rng := rand.New(rand.NewSource(7))
	a := NewRegArena(1 << 12) // small enough for the limit to bite
	encode := func(f *Flow) []byte {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf, "FLOW", 1)
		f.EncodeTo(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for run := 0; run < 40; run++ {
		var onArena, plain [flows]*Flow
		var model [flows]modelFlow
		for i := range onArena {
			thick := rng.Intn(6)
			onArena[i], plain[i] = New(i, 0, thick), New(i, 0, thick)
			onArena[i].Regs = a
			model[i] = modelFlow{thickness: thick, peak: isa.NumSRegs}
		}
		for step := 0; step < 150; step++ {
			i := rng.Intn(flows)
			m, pair := &model[i], [2]*Flow{onArena[i], plain[i]}
			switch op := rng.Intn(10); {
			case op < 5: // touch a register and write its visible lanes
				r := rng.Intn(isa.NumVRegs)
				if rng.Intn(3) > 0 {
					r = rng.Intn(4) // most flows use the first few
				}
				m.extend(r, m.lanes())
				val := rng.Int63()
				for _, f := range pair {
					v := f.Vector(isa.V(r))
					if len(v) != m.lanes() {
						t.Fatalf("run %d step %d: Vector(V%d) has %d lanes, want %d", run, step, r, len(v), m.lanes())
					}
					for k := range v {
						v[k] = val + int64(k)
					}
				}
				for k := 0; k < m.lanes(); k++ {
					m.banks[r][k] = val + int64(k)
				}
			case op < 7:
				thick := rng.Intn(12)
				if rng.Intn(4) == 0 {
					thick = minBank - 8 + rng.Intn(80)
				}
				m.mode, m.thickness = PRAM, thick
				for r := range m.banks {
					if m.banks[r] != nil {
						m.extend(r, thick)
					}
				}
				for _, f := range pair {
					if err := f.SetThickness(thick); err != nil {
						t.Fatal(err)
					}
				}
			case op == 7:
				if rng.Intn(2) == 0 {
					m.mode = NUMA
					bunch := 1 + rng.Intn(4)
					for _, f := range pair {
						if err := f.EnterNUMA(bunch); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					m.mode, m.thickness = PRAM, 1
					pair[0].LeavePRAM()
					pair[1].LeavePRAM()
				}
			case op == 8:
				pc := rng.Intn(1000)
				m.stack = append(m.stack, int64(pc))
				pair[0].Call(pc)
				pair[1].Call(pc)
			default:
				want, ok := int64(0), len(m.stack) > 0
				if ok {
					want, m.stack = m.stack[len(m.stack)-1], m.stack[:len(m.stack)-1]
				}
				for _, f := range pair {
					if pc, got := f.Ret(); got != ok || int64(pc) != want {
						t.Fatalf("run %d step %d: Ret = %d, %v, want %d, %v", run, step, pc, got, want, ok)
					}
				}
			}
			// Every flow, not only the one that moved: a neighbour's write
			// must not have reached it.
			for j := range model {
				m, f, g := &model[j], onArena[j], plain[j]
				words := int64(isa.NumSRegs)
				for r := range m.banks {
					words += int64(len(m.banks[r]))
					for _, h := range [2]*Flow{f, g} {
						if !slices.Equal(h.bank(r), m.banks[r]) || h.VectorAllocated(isa.V(r)) != (m.banks[r] != nil) {
							t.Fatalf("run %d step %d: flow %d V%d holds %v (allocated %v), the model %v", run, step, j, r, h.bank(r), h.VectorAllocated(isa.V(r)), m.banks[r])
						}
					}
				}
				if !slices.Equal(f.CallStack, m.stack) || !slices.Equal(g.CallStack, m.stack) {
					t.Fatalf("run %d step %d: flow %d call stacks %v and %v, the model %v", run, step, j, f.CallStack, g.CallStack, m.stack)
				}
				for _, h := range [2]*Flow{f, g} {
					if h.RegWords() != words || h.RegWordsPeak != m.peak {
						t.Fatalf("run %d step %d: flow %d holds %d words, peak %d; the model %d, peak %d", run, step, j, h.RegWords(), h.RegWordsPeak, words, m.peak)
					}
				}
				if f.StateDigest() != g.StateDigest() {
					t.Fatalf("run %d step %d: flow %d digests differ with and without the arena", run, step, j)
				}
			}
			if step%25 == 0 {
				for j := range onArena {
					if !bytes.Equal(encode(onArena[j]), encode(plain[j])) {
						t.Fatalf("run %d step %d: flow %d encodes differently on the arena", run, step, j)
					}
				}
			}
		}
		a.Recycle()
		if c := a.Counts(); c.HeldWords > 1<<12 {
			t.Fatalf("run %d: the arena holds %d words over its limit of %d", run, c.HeldWords, 1<<12)
		}
	}
}

// TestRegArenaInterleavedThinGrow is TestRegArenaInterleavedGrow below
// minBank and across it: flows of different groups touch and widen thin
// registers and push call stacks on one arena in turn, each keeping its own
// lanes while the bump regions hand out the words next to them.
func TestRegArenaInterleavedThinGrow(t *testing.T) {
	a := NewRegArena(1 << 16)
	for round := 0; round < 300; round++ {
		var flows [4]*Flow
		var had [4]int
		for i := range flows {
			flows[i] = New(i+1, 0, 1)
			flows[i].Regs = a
		}
		for grown := true; grown; {
			grown = false
			for i, f := range flows {
				id := i + 1
				if f.Thickness > 2*minBank {
					continue
				}
				grown = true
				for r := 0; r < 3+id; r++ {
					v := f.Vector(isa.V(r))
					for l, x := range v {
						want := int64(0)
						if l < had[i] {
							want = int64(id*100 + r)
						}
						if x != want {
							t.Fatalf("flow %d at thickness %d: V%d lane %d reads %d, want %d", id, f.Thickness, r, l, x, want)
						}
						v[l] = int64(id*100 + r)
					}
				}
				f.Call(f.Thickness)
				had[i] = f.Thickness
				if err := f.SetThickness(had[i] + 1 + had[i]/3); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, f := range flows {
			if n := len(f.CallStack); n == 0 || f.CallStack[0] != 1 {
				t.Fatalf("flow %d: call stack %v lost its first return address", i+1, f.CallStack)
			}
		}
	}
}
