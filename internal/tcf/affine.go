package tcf

import "tcfpram/internal/isa"

// Affine registers. The implicit threads of a flow are known only by their
// index, so much of what a thick flow computes is the index itself and
// arithmetic on it: TID, base + TID, TID*2 + k. A thread-wise register can
// hold such a value as an affine form — lanes [0, n) equal base + stride·lane
// — instead of a column of n words. The form is a representation, never
// state: every reader outside the lane kernels sees exactly the column the
// register would hold.
//
// A register in affine form keeps its bank: the lanes the form does not
// cover, hidden ones included, stay in it. Its first four lanes, which the
// form covers, hold the form — base, stride and n — and the bank's length,
// which is architectural; the register's header has length 0 and the bank's
// capacity. A header of length 0 fails Vector's length check for
// any flow with lanes, so Vector needs no instruction of its own for the
// form: its slow path materialises the column — writes lanes [0, n) from the
// form — and restores the header. Only the kernels that know the form
// (SetAffine, Affine, Dest) and the read-only observers (Lane, StateDigest,
// EncodeTo, RegWords, VectorAllocated), which compute lane values from it and
// leave it in place, look past the header.
//
// A write takes the form only if it covers every lane of a flow of minAffine
// lanes or more. Measured (EXPERIMENTS.md, "Affine thick registers"): on the
// kernels a form costs a few ns more than its column when its next reader
// materialises it and saves up to 140 ns at 4–32 lanes when its readers take
// it, but taken from four lanes on — the fewest it can be held in — forms
// cost serve-cold's generated programs 13 % of their host time an operation,
// and taken from 64 on no workload moved by more than 4 %. 64 is also where
// the arena lends banks rather than bumping them (minBank).
const minAffine = 64

// affineHeader reports whether v, a register's header, presents an affine
// form: a bank holds at least one lane, so no other header has length 0 and
// room behind it.
func affineHeader(v []int64) bool { return len(v) == 0 && cap(v) > 0 }

// unveil returns the bank behind the header v at the bank's length: v
// itself, unless v presents an affine form.
func unveil(v []int64) []int64 {
	if affineHeader(v) {
		return v[:v[:4][3]]
	}
	return v
}

// veil returns the header of a register in affine form for its bank v, whose
// first three lanes hold the form, and notes the bank's length in the fourth.
func veil(v []int64) []int64 {
	v[:4][3] = int64(len(v))
	return v[:0]
}

// form returns register r's affine form, if it is in one: lanes [0, n) are
// base + stride·lane. For a register without one n is 0.
func (f *Flow) form(r int) (base, stride int64, n int, ok bool) {
	if r >= len(f.vectors) || !affineHeader(f.vectors[r]) {
		return 0, 0, 0, false
	}
	w := f.vectors[r][:3]
	return w[0], w[1], int(w[2]), true
}

// Affine returns the affine form of thread-wise register r if every lane of
// the flow lies in it: lane i of r is base + stride·i. It reports false for a
// register held as a column, which the caller reads with Vector.
func (f *Flow) Affine(r isa.Reg) (base, stride int64, ok bool) {
	base, stride, n, ok := f.form(int(r))
	return base, stride, ok && n >= f.Lanes()
}

// SetAffine is a write of lanes [first, end) of thread-wise register r that
// makes lane i base + stride·i, done by taking the form without writing a lane.
// It reports false, and writes nothing, unless the write covers every lane of
// a flow of minAffine lanes or more; the caller then writes the column. Like
// Dest, it is to be called after the instruction has read its sources.
func (f *Flow) SetAffine(r isa.Reg, first, end int, base, stride int64) bool {
	// Inlined: a thin flow pays a comparison.
	return end >= minAffine && first == 0 && f.setAffine(int(r), end, base, stride)
}

func (f *Flow) setAffine(r, n int, base, stride int64) bool {
	if n != f.Lanes() {
		return false
	}
	w := f.Dest(isa.Reg(r), 0, n)[:3]
	w[0], w[1], w[2] = base, stride, int64(n)
	f.vectors[r] = veil(f.vectors[r])
	if f.Regs != nil {
		f.Regs.counts.ColumnsSkipped++
	}
	return true
}

// Dest returns lanes [first, end) of thread-wise register r for an
// instruction that writes every one of them and has read its sources: a
// register in affine form whose lanes all lie in [first, end) drops the form
// unread, one with lanes outside the write is materialised first. A register
// without a bank that the write covers whole, lanes [0, Lanes()) of minBank or
// more, is given one unzeroed: what a lent bank held is overwritten before
// anything can read it. Every narrower or partial write gets zeroed lanes
// around it, as Vector would give them.
func (f *Flow) Dest(r isa.Reg, first, end int) []int64 {
	if int(r) < len(f.vectors) {
		if v, lanes := f.vectors[r], f.Lanes(); len(v) >= lanes {
			return v[first:end]
		}
	}
	return f.dest(int(r), first, end)
}

// dest is Dest where the header is short: a form, a missing bank or one
// shorter than the lanes.
func (f *Flow) dest(r, first, end int) []int64 {
	if _, _, n, ok := f.form(r); ok && first == 0 && n <= end {
		f.vectors[r] = unveil(f.vectors[r])
	} else if first == 0 && end == f.Lanes() && end >= minBank && f.bank(r) == nil {
		f.growBank(r, end, false)
		return f.vectors[r][first:end]
	}
	return f.Vector(isa.Reg(r))[first:end]
}

// materialise writes register r's form into its bank, lanes [0, n) and no
// others — the lanes beyond n keep what they held — and makes the header the
// bank's again.
func (f *Flow) materialise(r int) {
	v := unveil(f.vectors[r])
	base, stride, n := v[0], v[1], int(v[2])
	isa.Ramp(v[:n], base, stride)
	f.vectors[r] = v
	if f.Regs != nil {
		f.Regs.counts.ColumnsMaterialised++
	}
}
