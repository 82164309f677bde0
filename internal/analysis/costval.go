package analysis

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/multiop"
)

// The cost executor's value domain. Scalars are either a known 64-bit word
// or unknown; vectors are compressed whole-register shapes so that
// register-level computation over huge thicknesses stays O(1) per
// instruction:
//
//   - cvUni:  every lane holds the same value (LDI, scalar broadcasts);
//   - cvAff:  lane i holds base + i*stride (TID, linear index arithmetic);
//   - cvConc: an explicit per-lane image, used below the materialization
//     cap (corpus-scale programs run fully concrete and therefore exact);
//   - cvUnk:  value lost to a budget (cost accounting can stay exact —
//     operation counts never depend on the values — but anything
//     control- or address-relevant computed from it stops the analysis).
//
// Affine forms are exact under two's-complement wraparound: ADD/SUB/MUL-
// by-uniform/SHL-by-uniform are ring operations mod 2^64, so the closed
// forms match isa.Eval lane for lane.

// aval is a scalar abstract value.
type aval struct {
	ok bool
	v  int64
}

func known(v int64) aval { return aval{ok: true, v: v} }

var unknown = aval{}

type vkind uint8

const (
	cvUni vkind = iota
	cvAff
	cvConc
	cvUnk
)

// avec is a vector abstract value covering exactly n lanes. The flow
// register file stores the full backing image (the engine's Flow.Vector
// backing); views of other lengths are derived with the engine's
// zero-extension semantics.
type avec struct {
	kind vkind
	n    int
	// base/stride describe cvUni (stride unused) and cvAff lanes.
	base, stride int64
	// vals is the cvConc per-lane image.
	vals []int64
}

func uniVec(n int, v int64) *avec { return &avec{kind: cvUni, n: n, base: v} }
func unkVec(n int) *avec          { return &avec{kind: cvUnk, n: n} }
func concVec(vals []int64) *avec  { return &avec{kind: cvConc, n: len(vals), vals: vals} }
func affVec(n int, b, s int64) *avec {
	if s == 0 {
		return uniVec(n, b)
	}
	return &avec{kind: cvAff, n: n, base: b, stride: s}
}

// lane reads lane i with the engine's semantics: indices beyond the
// representation read as zero (Flow.Lane on a shorter backing).
func (v *avec) lane(i int) aval {
	if v == nil || i >= v.n {
		return known(0)
	}
	switch v.kind {
	case cvUni:
		return known(v.base)
	case cvAff:
		return known(v.base + int64(i)*v.stride)
	case cvConc:
		return known(v.vals[i])
	}
	return unknown
}

// concrete reports whether every lane is known and the vector is within the
// cap: whether materialize would return an image. at then reads lane i < n
// of the image without building it.
func (v *avec) concrete(cap int) bool { return v.n <= cap && v.kind != cvUnk }

func (v *avec) at(i int) int64 {
	switch v.kind {
	case cvUni:
		return v.base
	case cvAff:
		return v.base + int64(i)*v.stride
	}
	return v.vals[i]
}

// materialize returns a concrete lane image, or nil when the vector holds
// unknown lanes or exceeds the cap.
func (v *avec) materialize(cap int) []int64 {
	if v == nil {
		return []int64{}
	}
	if v.n > cap {
		return nil
	}
	switch v.kind {
	case cvConc:
		return v.vals
	case cvUni:
		out := make([]int64, v.n)
		for i := range out {
			out[i] = v.base
		}
		return out
	case cvAff:
		out := make([]int64, v.n)
		for i := range out {
			out[i] = v.base + int64(i)*v.stride
		}
		return out
	}
	return nil
}

// viewVec derives an n-lane view of backing b: truncation keeps the low
// lanes, extension appends zeros (exactly Flow.Vector's lazy grow).
func viewVec(b *avec, n, cap int) *avec {
	if n < 0 {
		n = 0
	}
	if b == nil {
		return uniVec(n, 0)
	}
	if b.n == n {
		return b
	}
	if b.n > n {
		switch b.kind {
		case cvUni:
			return uniVec(n, b.base)
		case cvAff:
			return affVec(n, b.base, b.stride)
		case cvConc:
			return concVec(b.vals[:n])
		}
		return unkVec(n)
	}
	// Extension with zeros.
	switch {
	case b.kind == cvUni && b.base == 0:
		return uniVec(n, 0)
	case b.kind == cvUnk:
		return unkVec(n)
	}
	if vals := b.materialize(cap); vals != nil && n <= cap {
		out := make([]int64, n)
		copy(out, vals)
		return concVec(out)
	}
	return unkVec(n)
}

// tailVec is the lanes [from, b.n) of b.
func tailVec(b *avec, from int) *avec {
	switch b.kind {
	case cvUni:
		return uniVec(b.n-from, b.base)
	case cvAff:
		return affVec(b.n-from, b.base+int64(from)*b.stride, b.stride)
	case cvConc:
		return concVec(b.vals[from:])
	}
	return unkVec(b.n - from)
}

// overwriteLow replaces the low nv.n lanes of backing old with nv, keeping
// old's tail — the engine's SetLane loop over a wider backing.
func overwriteLow(old, nv *avec, cap int) *avec {
	if old == nil || old.n <= nv.n {
		return nv
	}
	tail := tailVec(old, nv.n)
	if nv.kind == cvUni && tail.kind == cvUni && nv.base == tail.base {
		return uniVec(old.n, nv.base)
	}
	if nv.kind == cvAff && tail.kind == cvAff && nv.stride == tail.stride &&
		tail.base == nv.base+int64(nv.n)*nv.stride {
		return affVec(old.n, nv.base, nv.stride)
	}
	hv, tv := nv.materialize(cap), tail.materialize(cap)
	if hv == nil || tv == nil || old.n > cap {
		return unkVec(old.n)
	}
	out := make([]int64, 0, old.n)
	out = append(out, hv...)
	out = append(out, tv...)
	return concVec(out)
}

// setLaneVec point-updates lane i of backing b after growing it to at
// least `lanes` lanes (Flow.Vector grows to Lanes() before indexing).
func setLaneVec(b *avec, i, lanes, cap int, v aval) *avec {
	n := lanes
	if b != nil && b.n > n {
		n = b.n
	}
	if i >= n {
		n = i + 1
	}
	grown := viewVec(b, n, cap)
	if !v.ok || grown.kind == cvUnk {
		// Unknown lanes poison the whole register conservatively.
		return unkVec(n)
	}
	if grown.kind == cvConc {
		if grown.vals[i] == v.v {
			return grown
		}
		out := append([]int64(nil), grown.vals...)
		out[i] = v.v
		return concVec(out)
	}
	if grown.lane(i) == v {
		return grown
	}
	vals := grown.materialize(cap)
	if vals == nil {
		return unkVec(n)
	}
	out := append([]int64(nil), vals...)
	out[i] = v.v
	return concVec(out)
}

// aluVec applies a binary ALU op lane-wise over two equal-length views.
// Affine closed forms are used where they are exact under wraparound;
// everything else materializes below the cap and degrades to unknown above.
func aluVec(op isa.Op, a, b *avec, cap int) *avec {
	n := a.n
	if a.kind == cvUni && b.kind == cvUni {
		return uniVec(n, isa.Eval(op, a.base, b.base))
	}
	if a.kind != cvUnk && b.kind != cvUnk && a.kind != cvConc && b.kind != cvConc {
		// Both uni/aff: treat uni as stride 0.
		ab, as := a.base, a.stride
		if a.kind == cvUni {
			as = 0
		}
		bb, bs := b.base, b.stride
		if b.kind == cvUni {
			bs = 0
		}
		switch op {
		case isa.ADD:
			return affVec(n, ab+bb, as+bs)
		case isa.SUB:
			return affVec(n, ab-bb, as-bs)
		case isa.MUL:
			if bs == 0 {
				return affVec(n, ab*bb, as*bb)
			}
			if as == 0 {
				return affVec(n, ab*bb, ab*bs)
			}
		case isa.SHL:
			if bs == 0 {
				return affVec(n, isa.Eval(op, ab, bb), isa.Eval(op, as, bb))
			}
		}
	}
	if !a.concrete(cap) || !b.concrete(cap) {
		return unkVec(n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = isa.Eval(op, a.at(i), b.at(i))
	}
	return concVec(out)
}

// unaryVec applies MOV/NEG/NOT lane-wise. NEG and NOT are both affine maps
// (-x, and ^x = -x-1), so a stride negates under either.
func unaryVec(op isa.Op, a *avec, cap int) *avec {
	if op == isa.MOV {
		return a
	}
	switch a.kind {
	case cvUni:
		return uniVec(a.n, isa.EvalUnary(op, a.base))
	case cvAff:
		return affVec(a.n, isa.EvalUnary(op, a.base), -a.stride)
	case cvConc:
		out := make([]int64, a.n)
		for i, v := range a.vals {
			out[i] = isa.EvalUnary(op, v)
		}
		return concVec(out)
	}
	return unkVec(a.n)
}

// selVec is the lane-wise SEL (cond ? then : else).
func selVec(cond, then, els *avec, cap int) *avec {
	n := cond.n
	if cond.kind == cvUni {
		if cond.base != 0 {
			return then
		}
		return els
	}
	if !cond.concrete(cap) || !then.concrete(cap) || !els.concrete(cap) {
		return unkVec(n)
	}
	out := make([]int64, n)
	for i := range out {
		if cond.at(i) != 0 {
			out[i] = then.at(i)
		} else {
			out[i] = els.at(i)
		}
	}
	return concVec(out)
}

// triangular returns 0+1+...+(m-1) mod 2^64, computed with a parity split
// so the division by two happens before any wraparound.
func triangular(m int64) int64 {
	um := uint64(m)
	if um == 0 {
		return 0
	}
	if um%2 == 0 {
		return int64((um / 2) * (um - 1))
	}
	return int64(um * ((um - 1) / 2))
}

// addNoWrap reports a+b with an overflow flag.
func addNoWrap(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// mulNoWrap reports a*b with an overflow flag.
func mulNoWrap(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// reduceVec folds a view under one of the combining operators exactly as
// execAtomic does (identity-seeded left fold with multiop.Apply).
func reduceVec(kind isa.Op, v *avec, cap int) aval {
	n := v.n
	if n == 0 {
		return known(multiop.Identity(kind))
	}
	switch v.kind {
	case cvUni:
		switch kind {
		case isa.ADD:
			return known(int64(uint64(v.base) * uint64(n)))
		case isa.AND, isa.OR, isa.MAX, isa.MIN:
			return known(v.base)
		}
	case cvAff:
		switch kind {
		case isa.ADD:
			// Sum of base + i*stride over i in [0, n): exact mod 2^64.
			s := int64(uint64(v.base)*uint64(n)) + int64(uint64(v.stride)*uint64(triangular(int64(n))))
			return known(s)
		case isa.MAX, isa.MIN:
			// Endpoints are only the extrema when the sequence does not
			// wrap; verify before using the closed form.
			if span, ok := mulNoWrap(v.stride, int64(n-1)); ok {
				if last, ok := addNoWrap(v.base, span); ok {
					if (kind == isa.MAX) == (v.stride > 0) {
						return known(last)
					}
					return known(v.base)
				}
			}
		}
	}
	vals := v.materialize(cap)
	if vals == nil {
		return unknown
	}
	acc := multiop.Identity(kind)
	for _, e := range vals {
		acc = multiop.Apply(kind, acc, e)
	}
	return known(acc)
}
