package isa

import (
	"math"
	"math/big"
	"testing"
)

// evalGrid is the operand edge grid: zero, ±1, the extremes, the divisors
// that trap on real hardware (0 and -1), and shift counts below, at and
// beyond the clamp.
var evalGrid = []int64{
	0, 1, -1, 2, -2, 7, -7, 63, 64, 65, 1 << 40, -(1 << 40),
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// wrap reduces an exact integer to its two's-complement 64-bit word.
func wrap(x *big.Int) int64 {
	return int64(new(big.Int).And(x, new(big.Int).SetUint64(math.MaxUint64)).Uint64())
}

// refEval states the ALU's rules once more, over exact integers: ring
// operations wrap mod 2^64, division truncates and yields 0 on a zero
// divisor, shift counts clamp to [0, 63], comparisons yield 0 or 1.
func refEval(op Op, a, b int64) int64 {
	x, y := big.NewInt(a), big.NewInt(b)
	truth := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	shift := uint(min(max(b, 0), 63))
	switch op {
	case ADD:
		return wrap(x.Add(x, y))
	case SUB:
		return wrap(x.Sub(x, y))
	case MUL:
		return wrap(x.Mul(x, y))
	case DIV:
		if b == 0 {
			return 0
		}
		return wrap(x.Quo(x, y))
	case MOD:
		if b == 0 {
			return 0
		}
		return wrap(x.Rem(x, y))
	case AND:
		return wrap(x.And(x, y))
	case OR:
		return wrap(x.Or(x, y))
	case XOR:
		return wrap(x.Xor(x, y))
	case SHL:
		return wrap(x.Lsh(x, shift))
	case SHR:
		return wrap(x.Rsh(x, shift))
	case MIN:
		return min(a, b)
	case MAX:
		return max(a, b)
	case SEQ:
		return truth(a == b)
	case SNE:
		return truth(a != b)
	case SLT:
		return truth(a < b)
	case SLE:
		return truth(a <= b)
	case SGT:
		return truth(a > b)
	case SGE:
		return truth(a >= b)
	}
	panic("refEval on " + op.String())
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestEvalAgreesEverywhere: for every opcode, Eval and EvalFn are defined
// exactly on the binary ALU ops and EvalUnary exactly on NEG/NOT; where
// defined, Eval, EvalFn and the exact-integer reference agree on the whole
// edge grid, and the unary ops agree with their binary identities.
func TestEvalAgreesEverywhere(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		if !op.IsBinaryALU() {
			if !panics(func() { Eval(op, 1, 1) }) || !panics(func() { EvalFn(op) }) {
				t.Errorf("%s: Eval/EvalFn accept a non-ALU opcode", op)
			}
		} else {
			fn := EvalFn(op)
			for _, a := range evalGrid {
				for _, b := range evalGrid {
					want := refEval(op, a, b)
					if got := Eval(op, a, b); got != want {
						t.Errorf("Eval(%s, %d, %d) = %d, want %d", op, a, b, got, want)
					}
					if got := fn(a, b); got != want {
						t.Errorf("EvalFn(%s)(%d, %d) = %d, want %d", op, a, b, got, want)
					}
				}
			}
		}
		if op != NEG && op != NOT {
			if !panics(func() { EvalUnary(op, 1) }) {
				t.Errorf("%s: EvalUnary accepts a non-unary opcode", op)
			}
			continue
		}
		for _, a := range evalGrid {
			want := Eval(SUB, 0, a)
			if op == NOT {
				want = Eval(XOR, a, -1)
			}
			if got := EvalUnary(op, a); got != want {
				t.Errorf("EvalUnary(%s, %d) = %d, want %d", op, a, got, want)
			}
		}
	}
}

// TestEvalTrapFreeRules pins the rules by value, so a change to one of them
// fails with the rule's name.
func TestEvalTrapFreeRules(t *testing.T) {
	for _, tc := range []struct {
		rule    string
		op      Op
		a, b, w int64
	}{
		{"division by zero yields 0", DIV, 42, 0, 0},
		{"modulo by zero yields 0", MOD, 42, 0, 0},
		{"MinInt64 / -1 wraps", DIV, math.MinInt64, -1, math.MinInt64},
		{"MinInt64 % -1 is 0", MOD, math.MinInt64, -1, 0},
		{"negative shift count shifts by 0", SHL, 5, -1, 5},
		{"negative shift count shifts by 0", SHR, 5, -1, 5},
		{"shift count 63 is honoured", SHL, 1, 63, math.MinInt64},
		{"shift count 64 clamps to 63", SHL, 1, 64, math.MinInt64},
		{"shift count 64 clamps to 63", SHR, -8, 64, -1},
		{"huge shift count clamps to 63", SHR, math.MaxInt64, 1 << 40, 0},
		{"huge shift count clamps to 63", SHL, 3, 1 << 40, math.MinInt64},
		{"comparisons yield 1", SLE, -1, -1, 1},
		{"comparisons yield 0", SGT, -1, -1, 0},
	} {
		if got := Eval(tc.op, tc.a, tc.b); got != tc.w {
			t.Errorf("%s: Eval(%s, %d, %d) = %d, want %d", tc.rule, tc.op, tc.a, tc.b, got, tc.w)
		}
	}
}
