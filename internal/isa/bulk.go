package isa

// Bulk lane forms: one operation over a stretch of lanes, the opcode switch
// outside the loop and the loop over equal-length slices, so that a thick
// instruction costs the host one tight loop. They define nothing: every loop
// body is the operator's scalar definition from eval.go, and
// TestBulkAgreesWithEval holds each form to Eval lane for lane.
//
// The loops take four lanes an iteration, from quads of the operands whose
// length the compiler knows, and the last len(dst) % 4 lanes one by one
// through Eval after the switch: a thick instruction pays a quarter of the
// loop's own overhead, a flow of four lanes one iteration.
//
// dst may be the very slice a or b is — V1 = V1 + V2 — because lane i is read
// before it is written and no lane reads another; operands that overlap dst
// shifted are not supported. Operands are at least as long as dst.

// quad returns the four lanes of v from i on.
func quad(v []int64, i int) []int64 { return v[i : i+4 : i+4] }

// EvalVV computes dst[i] = Eval(op, a[i], b[i]). It panics like Eval.
func EvalVV(op Op, dst, a, b []int64) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := len(dst) &^ 3
	switch op {
	case ADD:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = add(x[0], y[0]), add(x[1], y[1]), add(x[2], y[2]), add(x[3], y[3])
		}
	case SUB:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = sub(x[0], y[0]), sub(x[1], y[1]), sub(x[2], y[2]), sub(x[3], y[3])
		}
	case MUL:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = mul(x[0], y[0]), mul(x[1], y[1]), mul(x[2], y[2]), mul(x[3], y[3])
		}
	case DIV:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = div(x[0], y[0]), div(x[1], y[1]), div(x[2], y[2]), div(x[3], y[3])
		}
	case MOD:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = mod(x[0], y[0]), mod(x[1], y[1]), mod(x[2], y[2]), mod(x[3], y[3])
		}
	case AND:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = and(x[0], y[0]), and(x[1], y[1]), and(x[2], y[2]), and(x[3], y[3])
		}
	case OR:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = or(x[0], y[0]), or(x[1], y[1]), or(x[2], y[2]), or(x[3], y[3])
		}
	case XOR:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = xor(x[0], y[0]), xor(x[1], y[1]), xor(x[2], y[2]), xor(x[3], y[3])
		}
	case SHL:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = shl(x[0], y[0]), shl(x[1], y[1]), shl(x[2], y[2]), shl(x[3], y[3])
		}
	case SHR:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = shr(x[0], y[0]), shr(x[1], y[1]), shr(x[2], y[2]), shr(x[3], y[3])
		}
	case MIN:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = min2(x[0], y[0]), min2(x[1], y[1]), min2(x[2], y[2]), min2(x[3], y[3])
		}
	case MAX:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = max2(x[0], y[0]), max2(x[1], y[1]), max2(x[2], y[2]), max2(x[3], y[3])
		}
	case SEQ:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = seq(x[0], y[0]), seq(x[1], y[1]), seq(x[2], y[2]), seq(x[3], y[3])
		}
	case SNE:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = sne(x[0], y[0]), sne(x[1], y[1]), sne(x[2], y[2]), sne(x[3], y[3])
		}
	case SLT:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = slt(x[0], y[0]), slt(x[1], y[1]), slt(x[2], y[2]), slt(x[3], y[3])
		}
	case SLE:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = sle(x[0], y[0]), sle(x[1], y[1]), sle(x[2], y[2]), sle(x[3], y[3])
		}
	case SGT:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = sgt(x[0], y[0]), sgt(x[1], y[1]), sgt(x[2], y[2]), sgt(x[3], y[3])
		}
	case SGE:
		for i := 0; i < n; i += 4 {
			d, x, y := quad(dst, i), quad(a, i), quad(b, i)
			d[0], d[1], d[2], d[3] = sge(x[0], y[0]), sge(x[1], y[1]), sge(x[2], y[2]), sge(x[3], y[3])
		}
	default:
		panic("isa: EvalVV on " + op.String())
	}
	for i := n; i < len(dst); i++ {
		dst[i] = Eval(op, a[i], b[i])
	}
}

// EvalVS computes dst[i] = Eval(op, a[i], s): the flow-common or immediate
// second operand. A shift count is clamped once, not per lane.
func EvalVS(op Op, dst, a []int64, s int64) {
	a = a[:len(dst)]
	n := len(dst) &^ 3
	switch op {
	case ADD:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = add(x[0], s), add(x[1], s), add(x[2], s), add(x[3], s)
		}
	case SUB:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = sub(x[0], s), sub(x[1], s), sub(x[2], s), sub(x[3], s)
		}
	case MUL:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = mul(x[0], s), mul(x[1], s), mul(x[2], s), mul(x[3], s)
		}
	case DIV:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = div(x[0], s), div(x[1], s), div(x[2], s), div(x[3], s)
		}
	case MOD:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = mod(x[0], s), mod(x[1], s), mod(x[2], s), mod(x[3], s)
		}
	case AND:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = and(x[0], s), and(x[1], s), and(x[2], s), and(x[3], s)
		}
	case OR:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = or(x[0], s), or(x[1], s), or(x[2], s), or(x[3], s)
		}
	case XOR:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = xor(x[0], s), xor(x[1], s), xor(x[2], s), xor(x[3], s)
		}
	case SHL:
		c := clampShift(s)
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = x[0]<<c, x[1]<<c, x[2]<<c, x[3]<<c
		}
	case SHR:
		c := clampShift(s)
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = x[0]>>c, x[1]>>c, x[2]>>c, x[3]>>c
		}
	case MIN:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = min2(x[0], s), min2(x[1], s), min2(x[2], s), min2(x[3], s)
		}
	case MAX:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = max2(x[0], s), max2(x[1], s), max2(x[2], s), max2(x[3], s)
		}
	case SEQ:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = seq(x[0], s), seq(x[1], s), seq(x[2], s), seq(x[3], s)
		}
	case SNE:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = sne(x[0], s), sne(x[1], s), sne(x[2], s), sne(x[3], s)
		}
	case SLT:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = slt(x[0], s), slt(x[1], s), slt(x[2], s), slt(x[3], s)
		}
	case SLE:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = sle(x[0], s), sle(x[1], s), sle(x[2], s), sle(x[3], s)
		}
	case SGT:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = sgt(x[0], s), sgt(x[1], s), sgt(x[2], s), sgt(x[3], s)
		}
	case SGE:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = sge(x[0], s), sge(x[1], s), sge(x[2], s), sge(x[3], s)
		}
	default:
		panic("isa: EvalVS on " + op.String())
	}
	for i := n; i < len(dst); i++ {
		dst[i] = Eval(op, a[i], s)
	}
}

// EvalSV computes dst[i] = Eval(op, s, b[i]): the flow-common first operand.
// Commutative operators and comparisons, mirrored, are EvalVS.
func EvalSV(op Op, dst []int64, s int64, b []int64) {
	b = b[:len(dst)]
	n := len(dst) &^ 3
	switch op {
	case SUB:
		for i := 0; i < n; i += 4 {
			d, y := quad(dst, i), quad(b, i)
			d[0], d[1], d[2], d[3] = sub(s, y[0]), sub(s, y[1]), sub(s, y[2]), sub(s, y[3])
		}
	case DIV:
		for i := 0; i < n; i += 4 {
			d, y := quad(dst, i), quad(b, i)
			d[0], d[1], d[2], d[3] = div(s, y[0]), div(s, y[1]), div(s, y[2]), div(s, y[3])
		}
	case MOD:
		for i := 0; i < n; i += 4 {
			d, y := quad(dst, i), quad(b, i)
			d[0], d[1], d[2], d[3] = mod(s, y[0]), mod(s, y[1]), mod(s, y[2]), mod(s, y[3])
		}
	case SHL:
		for i := 0; i < n; i += 4 {
			d, y := quad(dst, i), quad(b, i)
			d[0], d[1], d[2], d[3] = shl(s, y[0]), shl(s, y[1]), shl(s, y[2]), shl(s, y[3])
		}
	case SHR:
		for i := 0; i < n; i += 4 {
			d, y := quad(dst, i), quad(b, i)
			d[0], d[1], d[2], d[3] = shr(s, y[0]), shr(s, y[1]), shr(s, y[2]), shr(s, y[3])
		}
	case SLT:
		EvalVS(SGT, dst, b, s)
		return
	case SLE:
		EvalVS(SGE, dst, b, s)
		return
	case SGT:
		EvalVS(SLT, dst, b, s)
		return
	case SGE:
		EvalVS(SLE, dst, b, s)
		return
	default: // ADD MUL AND OR XOR MIN MAX SEQ SNE
		EvalVS(op, dst, b, s)
		return
	}
	for i := n; i < len(dst); i++ {
		dst[i] = Eval(op, s, b[i])
	}
}

// EvalUnaryV computes dst[i] = EvalUnary(op, a[i]). It panics like EvalUnary.
func EvalUnaryV(op Op, dst, a []int64) {
	a = a[:len(dst)]
	n := len(dst) &^ 3
	switch op {
	case NEG:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = neg(x[0]), neg(x[1]), neg(x[2]), neg(x[3])
		}
	case NOT:
		for i := 0; i < n; i += 4 {
			d, x := quad(dst, i), quad(a, i)
			d[0], d[1], d[2], d[3] = not(x[0]), not(x[1]), not(x[2]), not(x[3])
		}
	default:
		panic("isa: EvalUnaryV on " + op.String())
	}
	for i := n; i < len(dst); i++ {
		dst[i] = EvalUnary(op, a[i])
	}
}

// Fill broadcasts v into every lane of dst.
func Fill(dst []int64, v int64) {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		d := quad(dst, i)
		d[0], d[1], d[2], d[3] = v, v, v, v
	}
	for i := n; i < len(dst); i++ {
		dst[i] = v
	}
}

// Ramp sets dst[i] = base + stride·i, with int64 wrap-around: TID over a
// stretch of lanes, and the column of any affine register.
func Ramp(dst []int64, base, stride int64) {
	n := len(dst) &^ 3
	s2, s3 := 2*stride, 3*stride
	for i := 0; i < n; i += 4 {
		d, v := quad(dst, i), base+stride*int64(i)
		d[0], d[1], d[2], d[3] = v, v+stride, v+s2, v+s3
	}
	for i := n; i < len(dst); i++ {
		dst[i] = base + stride*int64(i)
	}
}

// SelectV is the lane-wise SEL: dst[i] = yes[i] where cond[i] != 0 and no[i]
// elsewhere. A nil yes or no stands for the flow-common ys or ns.
func SelectV(dst, cond, yes, no []int64, ys, ns int64) {
	cond = cond[:len(dst)]
	for i := range dst {
		v, c := ns, cond[i]
		if no != nil {
			v = no[i]
		}
		if c != 0 {
			v = ys
			if yes != nil {
				v = yes[i]
			}
		}
		dst[i] = v
	}
}

// Reduce folds the lanes of v into acc, left to right, under the combining
// operator kind (Op.CombineKind). It panics for any other opcode.
func Reduce(kind Op, acc int64, v []int64) int64 {
	switch kind {
	case ADD:
		for _, e := range v {
			acc = add(acc, e)
		}
	case AND:
		for _, e := range v {
			acc = and(acc, e)
		}
	case OR:
		for _, e := range v {
			acc = or(acc, e)
		}
	case MAX:
		for _, e := range v {
			acc = max2(acc, e)
		}
	case MIN:
		for _, e := range v {
			acc = min2(acc, e)
		}
	default:
		panic("isa: Reduce on " + kind.String())
	}
	return acc
}
