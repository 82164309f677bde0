package isa

// Integer instruction semantics. This file is their only definition: the
// interpreter and the fused kernels execute through it, the constant
// folders predict through it.
//
// The simulated ALU is trap-free, because a thick instruction runs the same
// operation on every lane and one lane's operand must not abort the flow:
// division and modulo by zero yield 0 (MinInt64 / -1 wraps, as Go's does),
// and shift counts clamp to [0, 63], so an oversized or negative count
// shifts everything out or nothing instead of depending on the host's
// count masking. Comparisons produce 0 or 1.

func add(a, b int64) int64 { return a + b }
func sub(a, b int64) int64 { return a - b }
func mul(a, b int64) int64 { return a * b }
func and(a, b int64) int64 { return a & b }
func or(a, b int64) int64  { return a | b }
func xor(a, b int64) int64 { return a ^ b }
func shl(a, b int64) int64 { return a << clampShift(b) }
func shr(a, b int64) int64 { return a >> clampShift(b) }
func seq(a, b int64) int64 { return b2i(a == b) }
func sne(a, b int64) int64 { return b2i(a != b) }
func slt(a, b int64) int64 { return b2i(a < b) }
func sle(a, b int64) int64 { return b2i(a <= b) }
func sgt(a, b int64) int64 { return b2i(a > b) }
func sge(a, b int64) int64 { return b2i(a >= b) }
func neg(a int64) int64    { return -a }
func not(a int64) int64    { return ^a }

func div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a % b
}

func min2(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// clampShift is the shift count the ALU applies for a requested count b.
func clampShift(b int64) uint {
	if b < 0 {
		return 0
	}
	if b > 63 {
		return 63
	}
	return uint(b)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Eval computes the binary ALU operation op (IsBinaryALU) on a and b. It
// panics for any other opcode.
func Eval(op Op, a, b int64) int64 {
	switch op {
	case ADD:
		return add(a, b)
	case SUB:
		return sub(a, b)
	case MUL:
		return mul(a, b)
	case DIV:
		return div(a, b)
	case MOD:
		return mod(a, b)
	case AND:
		return and(a, b)
	case OR:
		return or(a, b)
	case XOR:
		return xor(a, b)
	case SHL:
		return shl(a, b)
	case SHR:
		return shr(a, b)
	case MIN:
		return min2(a, b)
	case MAX:
		return max2(a, b)
	case SEQ:
		return seq(a, b)
	case SNE:
		return sne(a, b)
	case SLT:
		return slt(a, b)
	case SLE:
		return sle(a, b)
	case SGT:
		return sgt(a, b)
	case SGE:
		return sge(a, b)
	}
	panic("isa: Eval on " + op.String())
}

// EvalFn returns Eval specialised to op, for callers that resolve the
// opcode once and then run a lane loop. It panics like Eval.
func EvalFn(op Op) func(a, b int64) int64 {
	switch op {
	case ADD:
		return add
	case SUB:
		return sub
	case MUL:
		return mul
	case DIV:
		return div
	case MOD:
		return mod
	case AND:
		return and
	case OR:
		return or
	case XOR:
		return xor
	case SHL:
		return shl
	case SHR:
		return shr
	case MIN:
		return min2
	case MAX:
		return max2
	case SEQ:
		return seq
	case SNE:
		return sne
	case SLT:
		return slt
	case SLE:
		return sle
	case SGT:
		return sgt
	case SGE:
		return sge
	}
	panic("isa: EvalFn on " + op.String())
}

// EvalUnary computes NEG or NOT on a. It panics for any other opcode.
func EvalUnary(op Op, a int64) int64 {
	switch op {
	case NEG:
		return neg(a)
	case NOT:
		return not(a)
	}
	panic("isa: EvalUnary on " + op.String())
}
