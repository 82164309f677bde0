package isa

import (
	"encoding/binary"
	"slices"
	"testing"
)

var binaryALU = func() []Op {
	var ops []Op
	for op := Op(0); op < opCount; op++ {
		if op.IsBinaryALU() {
			ops = append(ops, op)
		}
	}
	return ops
}()

// gridLanes returns n lanes of a and of b that together walk the whole edge
// grid's cross product from pair k on, so that short lengths still meet every
// pair of operands over the calls of one test.
func gridLanes(n, k int) (a, b []int64) {
	a, b = make([]int64, n), make([]int64, n)
	g := len(evalGrid)
	for i := range a {
		a[i] = evalGrid[(k+i)/g%g]
		b[i] = evalGrid[(k+i)%g]
	}
	return a, b
}

// checkBulk runs one bulk form with dst aliasing neither operand, a, and b
// (where the form has a b), and holds every lane to want.
func checkBulk(t *testing.T, name string, a, b []int64, form func(dst, a, b []int64), want func(i int) int64) {
	t.Helper()
	for _, alias := range []string{"neither", "a", "b"} {
		ca, cb := slices.Clone(a), slices.Clone(b)
		dst := make([]int64, len(a))
		switch {
		case alias == "a":
			dst = ca
		case alias == "b" && b != nil:
			dst = cb
		case alias == "b":
			continue
		}
		form(dst, ca, cb)
		for i := range dst {
			if dst[i] != want(i) {
				t.Fatalf("%s, dst aliasing %s, n=%d: lane %d (a=%d) = %d, want %d",
					name, alias, len(a), i, a[i], dst[i], want(i))
			}
		}
	}
}

// TestBulkAgreesWithEval pins every bulk form to the scalar definition, lane
// for lane: each binary op in the three operand shapes over the edge grid of
// TestEvalAgreesEverywhere, at lengths around nothing, one lane and a few
// unrolled widths, with dst aliasing either operand or neither; then the
// unary, select, fill and iota forms the same way.
func TestBulkAgreesWithEval(t *testing.T) {
	g := len(evalGrid)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for k := 0; k < g*g; k += max(n, 1) {
			a, b := gridLanes(n, k)
			for _, op := range binaryALU {
				checkBulk(t, "EvalVV "+op.String(), a, b,
					func(dst, a, b []int64) { EvalVV(op, dst, a, b) },
					func(i int) int64 { return Eval(op, a[i], b[i]) })
				for _, s := range evalGrid {
					checkBulk(t, "EvalVS "+op.String(), a, nil,
						func(dst, a, _ []int64) { EvalVS(op, dst, a, s) },
						func(i int) int64 { return Eval(op, a[i], s) })
					checkBulk(t, "EvalSV "+op.String(), b, nil,
						func(dst, b, _ []int64) { EvalSV(op, dst, s, b) },
						func(i int) int64 { return Eval(op, s, b[i]) })
				}
			}
			for _, op := range []Op{NEG, NOT} {
				checkBulk(t, "EvalUnaryV "+op.String(), a, nil,
					func(dst, a, _ []int64) { EvalUnaryV(op, dst, a) },
					func(i int) int64 { return EvalUnary(op, a[i]) })
			}
			// SEL: the selector walks zero and non-zero grid values; either
			// source may be flow-common, and dst may be any of the three.
			cond := make([]int64, n)
			for i := range cond {
				cond[i] = evalGrid[(k+i)%3] // 0, 1, -1
			}
			sel := func(yes, no []int64, ys, ns int64) func(i int) int64 {
				return func(i int) int64 {
					y, e := ys, ns
					if yes != nil {
						y = yes[i]
					}
					if no != nil {
						e = no[i]
					}
					if cond[i] != 0 {
						return y
					}
					return e
				}
			}
			checkBulk(t, "SelectV vv", a, b,
				func(dst, a, b []int64) { SelectV(dst, slices.Clone(cond), a, b, 5, 6) }, sel(a, b, 0, 0))
			checkBulk(t, "SelectV vs", a, nil,
				func(dst, a, _ []int64) { SelectV(dst, slices.Clone(cond), a, nil, 5, 6) }, sel(a, nil, 0, 6))
			checkBulk(t, "SelectV sv", b, nil,
				func(dst, b, _ []int64) { SelectV(dst, slices.Clone(cond), nil, b, 5, 6) }, sel(nil, b, 5, 0))
			checkBulk(t, "SelectV ss", cond, nil,
				func(dst, c, _ []int64) { SelectV(dst, c, nil, nil, 5, 6) }, sel(nil, nil, 5, 6))
			checkBulk(t, "Fill", a, nil,
				func(dst, _, _ []int64) { Fill(dst, -9) }, func(int) int64 { return -9 })
			checkBulk(t, "Ramp", a, nil,
				func(dst, _, _ []int64) { Ramp(dst, int64(k)-3, -7) }, func(i int) int64 { return int64(k) - 3 - 7*int64(i) })
		}
	}
	for op := Op(0); op < opCount; op++ {
		one := []int64{1}
		if !op.IsBinaryALU() && !(panics(func() { EvalVV(op, one, one, one) }) &&
			panics(func() { EvalVS(op, one, one, 1) })) {
			t.Errorf("%s: EvalVV/EvalVS accept a non-ALU opcode", op)
		}
		if op != NEG && op != NOT && !panics(func() { EvalUnaryV(op, one, one) }) {
			t.Errorf("%s: EvalUnaryV accepts a non-unary opcode", op)
		}
	}
}

// FuzzBulkVsEval holds the three binary shapes to Eval on fuzzed operands:
// the two byte strings are the lanes of a and b, eight bytes a lane.
func FuzzBulkVsEval(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(uint8(ADD), uint8(0), le(1, 2, 3), le(4, 5, 6))
	f.Add(uint8(DIV), uint8(1), le(-1<<63, 7, 0), le(-1, 0, 3))
	f.Add(uint8(SHL), uint8(2), le(1, -1, 64), le(-5, 63, 1<<40))
	f.Add(uint8(SLT), uint8(2), le(0, 1), le(1, 0))
	f.Fuzz(func(t *testing.T, opb, shape uint8, ab, bb []byte) {
		op := binaryALU[int(opb)%len(binaryALU)]
		n := min(len(ab), len(bb)) / 8
		a, b := make([]int64, n), make([]int64, n)
		for i := range a {
			a[i] = int64(binary.LittleEndian.Uint64(ab[8*i:]))
			b[i] = int64(binary.LittleEndian.Uint64(bb[8*i:]))
		}
		if n == 0 {
			return
		}
		dst := make([]int64, n)
		var want func(i int) int64
		switch shape % 3 {
		case 0:
			EvalVV(op, dst, a, b)
			want = func(i int) int64 { return Eval(op, a[i], b[i]) }
		case 1:
			EvalVS(op, dst, a, b[0])
			want = func(i int) int64 { return Eval(op, a[i], b[0]) }
		case 2:
			EvalSV(op, dst, a[0], b)
			want = func(i int) int64 { return Eval(op, a[0], b[i]) }
		}
		for i := range dst {
			if dst[i] != want(i) {
				t.Fatalf("%s shape %d lane %d (a=%d b=%d a0=%d b0=%d) = %d, want %d",
					op, shape%3, i, a[i], b[i], a[0], b[0], dst[i], want(i))
			}
		}
	})
}

// BenchmarkBulk reports ns/lane of the bulk forms next to the per-lane call
// through EvalFn they replaced, at the thick benchmark's lane count.
func BenchmarkBulk(b *testing.B) {
	const lanes = 1 << 17
	dst, x, y := make([]int64, lanes), make([]int64, lanes), make([]int64, lanes)
	Ramp(x, -lanes/2, 1)
	Ramp(y, 1, 1)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"vv/ADD", func() { EvalVV(ADD, dst, x, y) }},
		{"vv/DIV", func() { EvalVV(DIV, dst, x, y) }},
		{"vs/MUL", func() { EvalVS(MUL, dst, x, 3) }},
		{"vs/SHR", func() { EvalVS(SHR, dst, x, 3) }},
		{"vs/SLT", func() { EvalVS(SLT, dst, x, 3) }},
		{"sv/SUB", func() { EvalSV(SUB, dst, 3, y) }},
		{"unary/NEG", func() { EvalUnaryV(NEG, dst, x) }},
		{"sel", func() { SelectV(dst, x, y, nil, 0, 7) }},
		{"ramp", func() { Ramp(dst, 5, 3) }},
		{"fill", func() { Fill(dst, 5) }},
		{"reduce/MAX", func() { dst[0] = Reduce(MAX, -1<<63, x) }},
		{"evalfn/vs/MUL", func() {
			fn := EvalFn(MUL)
			for i := range dst {
				dst[i] = fn(x[i], 3)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lanes, "ns/lane")
		})
	}
}
