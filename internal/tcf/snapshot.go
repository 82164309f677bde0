package tcf

import (
	"fmt"

	"tcfpram/internal/checkpoint"
	"tcfpram/internal/isa"
)

// EncodeTo streams the flow's complete state into e. Parent links are
// serialized as flow ids (-1 for none) and re-wired by the machine's restore
// pass once every flow exists. Vector register banks are written with their
// exact allocation lengths: lazy allocation is observable through
// RegWordsPeak and VectorAllocated, so restore must reproduce it, not just
// the values.
func (f *Flow) EncodeTo(e *checkpoint.Encoder) {
	e.Int(f.ID)
	e.Int(f.PC)
	e.Int(int(f.Mode))
	e.Int(f.Thickness)
	e.Int(f.Bunch)
	e.Int(int(f.State))
	e.Int64s(f.scalars[:])
	for r := 0; r < isa.NumVRegs; r++ {
		// The lanes an affine form covers are computed (affine.go).
		base, stride, n, _ := f.form(r)
		bank := f.bank(r)
		e.Int64sLen(len(bank))
		for i := range n {
			e.Int64sElem(base + stride*int64(i))
		}
		for _, v := range bank[n:] {
			e.Int64sElem(v)
		}
	}
	e.Int64s(f.CallStack)
	parent := -1
	if f.Parent != nil {
		parent = f.Parent.ID
	}
	e.Int(parent)
	e.Int(f.LiveChildren)
	e.Int(f.ResumePC)
	e.Int(f.Home)
	e.Bool(f.IsFragment)
	e.Int(f.TidOffset)
	e.Int(f.Offset)
	e.Varint(f.InstrFetches)
	e.Varint(f.RegWordsPeak)
}

// DecodeFrom makes f, whatever it held, the flow EncodeTo wrote, and returns
// its parent's flow id (-1 for none); the caller resolves the id to a pointer
// after all flows are decoded. The flow gets a header table only if a register
// of it holds lanes.
func (f *Flow) DecodeFrom(d *checkpoint.Decoder) (int, error) {
	*f = Flow{}
	f.ID = d.Int()
	f.PC = d.Int()
	f.Mode = Mode(d.Int())
	f.Thickness = d.Int()
	f.Bunch = d.Int()
	f.State = State(d.Int())
	scalars := d.Int64s()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if f.Mode != PRAM && f.Mode != NUMA {
		return 0, fmt.Errorf("tcf: snapshot flow %d: bad mode %d", f.ID, int(f.Mode))
	}
	if f.State < Ready || f.State > Done {
		return 0, fmt.Errorf("tcf: snapshot flow %d: bad state %d", f.ID, int(f.State))
	}
	if f.Thickness < 0 {
		return 0, fmt.Errorf("tcf: snapshot flow %d: negative thickness %d", f.ID, f.Thickness)
	}
	if len(scalars) != 0 && len(scalars) != isa.NumSRegs {
		return 0, fmt.Errorf("tcf: snapshot flow %d: %d scalar registers, want %d", f.ID, len(scalars), isa.NumSRegs)
	}
	copy(f.scalars[:], scalars)
	for r := 0; r < isa.NumVRegs; r++ {
		if bank := d.Int64s(); bank != nil {
			if f.vectors == nil {
				f.vectors = make([][]int64, isa.NumVRegs)
			}
			f.vectors[r] = bank
		}
	}
	f.CallStack = d.Int64s()
	parent := d.Int()
	f.LiveChildren = d.Int()
	f.ResumePC = d.Int()
	f.Home = d.Int()
	f.IsFragment = d.Bool()
	f.TidOffset = d.Int()
	f.Offset = d.Int()
	f.InstrFetches = d.Varint()
	f.RegWordsPeak = d.Varint()
	if err := d.Err(); err != nil {
		return 0, err
	}
	return parent, nil
}
