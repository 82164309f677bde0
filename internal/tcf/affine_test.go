package tcf

import (
	"testing"

	"tcfpram/internal/isa"
)

// TestAffineFormKeepsHiddenLanes: a form taken at a narrower thickness covers
// its lanes and no others. The lanes a wider one uncovers read what the bank
// held before the form, through Lane as through Vector, and Vector
// materialises the form once; a wider write drops it unread.
func TestAffineFormKeepsHiddenLanes(t *testing.T) {
	f := New(0, 0, 300)
	f.Regs = NewRegArena(1 << 16)
	for i, v := 0, f.Vector(isa.V(0)); i < len(v); i++ {
		v[i] = int64(1000 + i)
	}
	if err := f.SetThickness(100); err != nil {
		t.Fatal(err)
	}
	if !f.SetAffine(isa.V(0), 0, 100, 7, 3) {
		t.Fatal("no form at 100 lanes")
	}
	if err := f.SetThickness(300); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.Affine(isa.V(0)); ok {
		t.Fatal("a form of 100 lanes stands for a flow of 300")
	}
	want := func(i int) int64 {
		if i < 100 {
			return int64(7 + 3*i)
		}
		return int64(1000 + i)
	}
	for i := 0; i < 300; i++ {
		if got := f.Lane(isa.V(0), i); got != want(i) {
			t.Fatalf("Lane %d = %d, want %d", i, got, want(i))
		}
	}
	if c := f.Regs.Counts(); c.ColumnsSkipped != 1 || c.ColumnsMaterialised != 0 || f.RegWords() != isa.NumSRegs+300 {
		t.Fatalf("%+v, %d words", c, f.RegWords())
	}
	for i, v := range f.Vector(isa.V(0)) {
		if v != want(i) {
			t.Fatalf("lane %d = %d, want %d", i, v, want(i))
		}
	}
	f.SetAffine(isa.V(0), 0, 300, 1, 1)
	f.Dest(isa.V(0), 0, 300)
	if c := f.Regs.Counts(); c.ColumnsSkipped != 2 || c.ColumnsMaterialised != 1 {
		t.Fatalf("%+v", c)
	}
}

// TestAffineBankRecycles: a bank whose register ends the run in affine form
// goes back to the arena with the length it had, and the next run finds it.
func TestAffineBankRecycles(t *testing.T) {
	a := NewRegArena(1 << 16)
	f := New(0, 0, 300)
	f.Regs = a
	f.SetAffine(isa.V(0), 0, 300, 0, 1)
	a.Recycle()
	g := New(0, 0, 300)
	g.Regs = a
	g.Vector(isa.V(0))
	if c := a.Counts(); c.BanksReused != 1 || c.BanksAllocated != 0 {
		t.Fatalf("the second run reused %d banks and allocated %d", c.BanksReused, c.BanksAllocated)
	}
}

// TestDestTakesWholeWritesUnzeroed: a register without a bank that a write
// covers whole, at minBank lanes or more, gets a lent bank as it comes —
// under PoisonBanks every lane of it reads Poison until written — and every
// other write to a register without a bank, one that starts past lane 0, one
// that stops short of the last lane, or one of a thin flow, gets the lanes it
// does not cover zeroed, as Vector would give them.
func TestDestTakesWholeWritesUnzeroed(t *testing.T) {
	PoisonBanks.Store(true)
	defer PoisonBanks.Store(false)
	for _, c := range []struct {
		lanes, first, end int
		unzeroed          bool
	}{
		{minBank, 0, minBank, true},
		{300, 0, 300, true},
		{300, 1, 300, false},
		{300, 0, 299, false},
		{300, 100, 200, false},
		{minBank - 1, 0, minBank - 1, false},
	} {
		for _, arena := range []*RegArena{nil, NewRegArena(1 << 12)} {
			f := New(0, 0, c.lanes)
			f.Regs = arena
			dst := f.Dest(isa.V(2), c.first, c.end)
			if len(dst) != c.end-c.first {
				t.Fatalf("%+v: Dest returned %d lanes", c, len(dst))
			}
			v := f.Vector(isa.V(2))
			for i, w := range v {
				switch inside := i >= c.first && i < c.end; {
				case !inside && w != 0:
					t.Fatalf("%+v, arena %v: lane %d outside the write reads %#x, want 0", c, arena != nil, i, w)
				case inside && arena != nil && c.unzeroed != (w == Poison):
					t.Fatalf("%+v: lane %d reads %#x before it is written; taken unzeroed: %v", c, i, w, c.unzeroed)
				}
			}
		}
	}
}
