package isa

// Bulk lane forms: one operation over a stretch of lanes, the opcode switch
// outside the loop and the loop over equal-length slices, so that a thick
// instruction costs the host one tight loop. They define nothing: every loop
// body is the operator's scalar definition from eval.go, and
// TestBulkAgreesWithEval holds each form to Eval lane for lane.
//
// dst may be the very slice a or b is — V1 = V1 + V2 — because lane i is read
// before it is written and no lane reads another; operands that overlap dst
// shifted are not supported. Operands are at least as long as dst.

// EvalVV computes dst[i] = Eval(op, a[i], b[i]). It panics like Eval.
func EvalVV(op Op, dst, a, b []int64) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch op {
	case ADD:
		for i := range dst {
			dst[i] = add(a[i], b[i])
		}
	case SUB:
		for i := range dst {
			dst[i] = sub(a[i], b[i])
		}
	case MUL:
		for i := range dst {
			dst[i] = mul(a[i], b[i])
		}
	case DIV:
		for i := range dst {
			dst[i] = div(a[i], b[i])
		}
	case MOD:
		for i := range dst {
			dst[i] = mod(a[i], b[i])
		}
	case AND:
		for i := range dst {
			dst[i] = and(a[i], b[i])
		}
	case OR:
		for i := range dst {
			dst[i] = or(a[i], b[i])
		}
	case XOR:
		for i := range dst {
			dst[i] = xor(a[i], b[i])
		}
	case SHL:
		for i := range dst {
			dst[i] = shl(a[i], b[i])
		}
	case SHR:
		for i := range dst {
			dst[i] = shr(a[i], b[i])
		}
	case MIN:
		for i := range dst {
			dst[i] = min2(a[i], b[i])
		}
	case MAX:
		for i := range dst {
			dst[i] = max2(a[i], b[i])
		}
	case SEQ:
		for i := range dst {
			dst[i] = seq(a[i], b[i])
		}
	case SNE:
		for i := range dst {
			dst[i] = sne(a[i], b[i])
		}
	case SLT:
		for i := range dst {
			dst[i] = slt(a[i], b[i])
		}
	case SLE:
		for i := range dst {
			dst[i] = sle(a[i], b[i])
		}
	case SGT:
		for i := range dst {
			dst[i] = sgt(a[i], b[i])
		}
	case SGE:
		for i := range dst {
			dst[i] = sge(a[i], b[i])
		}
	default:
		panic("isa: EvalVV on " + op.String())
	}
}

// EvalVS computes dst[i] = Eval(op, a[i], s): the flow-common or immediate
// second operand. A shift count is clamped once, not per lane.
func EvalVS(op Op, dst, a []int64, s int64) {
	a = a[:len(dst)]
	switch op {
	case ADD:
		for i := range dst {
			dst[i] = add(a[i], s)
		}
	case SUB:
		for i := range dst {
			dst[i] = sub(a[i], s)
		}
	case MUL:
		for i := range dst {
			dst[i] = mul(a[i], s)
		}
	case DIV:
		for i := range dst {
			dst[i] = div(a[i], s)
		}
	case MOD:
		for i := range dst {
			dst[i] = mod(a[i], s)
		}
	case AND:
		for i := range dst {
			dst[i] = and(a[i], s)
		}
	case OR:
		for i := range dst {
			dst[i] = or(a[i], s)
		}
	case XOR:
		for i := range dst {
			dst[i] = xor(a[i], s)
		}
	case SHL:
		n := clampShift(s)
		for i := range dst {
			dst[i] = a[i] << n
		}
	case SHR:
		n := clampShift(s)
		for i := range dst {
			dst[i] = a[i] >> n
		}
	case MIN:
		for i := range dst {
			dst[i] = min2(a[i], s)
		}
	case MAX:
		for i := range dst {
			dst[i] = max2(a[i], s)
		}
	case SEQ:
		for i := range dst {
			dst[i] = seq(a[i], s)
		}
	case SNE:
		for i := range dst {
			dst[i] = sne(a[i], s)
		}
	case SLT:
		for i := range dst {
			dst[i] = slt(a[i], s)
		}
	case SLE:
		for i := range dst {
			dst[i] = sle(a[i], s)
		}
	case SGT:
		for i := range dst {
			dst[i] = sgt(a[i], s)
		}
	case SGE:
		for i := range dst {
			dst[i] = sge(a[i], s)
		}
	default:
		panic("isa: EvalVS on " + op.String())
	}
}

// EvalSV computes dst[i] = Eval(op, s, b[i]): the flow-common first operand.
// Commutative operators and comparisons, mirrored, are EvalVS.
func EvalSV(op Op, dst []int64, s int64, b []int64) {
	b = b[:len(dst)]
	switch op {
	case SUB:
		for i := range dst {
			dst[i] = sub(s, b[i])
		}
	case DIV:
		for i := range dst {
			dst[i] = div(s, b[i])
		}
	case MOD:
		for i := range dst {
			dst[i] = mod(s, b[i])
		}
	case SHL:
		for i := range dst {
			dst[i] = shl(s, b[i])
		}
	case SHR:
		for i := range dst {
			dst[i] = shr(s, b[i])
		}
	case SLT:
		EvalVS(SGT, dst, b, s)
	case SLE:
		EvalVS(SGE, dst, b, s)
	case SGT:
		EvalVS(SLT, dst, b, s)
	case SGE:
		EvalVS(SLE, dst, b, s)
	default: // ADD MUL AND OR XOR MIN MAX SEQ SNE
		EvalVS(op, dst, b, s)
	}
}

// EvalUnaryV computes dst[i] = EvalUnary(op, a[i]). It panics like EvalUnary.
func EvalUnaryV(op Op, dst, a []int64) {
	a = a[:len(dst)]
	switch op {
	case NEG:
		for i := range dst {
			dst[i] = neg(a[i])
		}
	case NOT:
		for i := range dst {
			dst[i] = not(a[i])
		}
	default:
		panic("isa: EvalUnaryV on " + op.String())
	}
}

// Fill broadcasts v into every lane of dst.
func Fill(dst []int64, v int64) {
	for i := range dst {
		dst[i] = v
	}
}

// Iota numbers the lanes of dst from base: TID over a stretch of lanes.
func Iota(dst []int64, base int64) {
	for i := range dst {
		dst[i] = base + int64(i)
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
