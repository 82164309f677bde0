package codegen

// Differential testing of expression compilation: random scalar expression
// trees are rendered to tcf-e source, compiled, executed, and compared with
// a direct Go evaluation. This exercises constant folding, immediate forms,
// temp allocation and operator lowering.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

// exprNode is a tiny expression tree with its own evaluator.
type exprNode struct {
	op   string // "", "lit", "var", unary "-","!","~", or a binary operator
	lit  int64
	vidx int
	l, r *exprNode
}

var binaryOps = []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"<", "<=", ">", ">=", "==", "!=", "&&", "||"}

func genExpr(rng *rand.Rand, depth int) *exprNode {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return &exprNode{op: "lit", lit: int64(rng.Intn(21) - 10)}
		}
		return &exprNode{op: "var", vidx: rng.Intn(3)}
	}
	switch rng.Intn(6) {
	case 0:
		return &exprNode{op: "-", l: genExpr(rng, depth-1)}
	case 1:
		return &exprNode{op: "!", l: genExpr(rng, depth-1)}
	case 2:
		return &exprNode{op: "~", l: genExpr(rng, depth-1)}
	default:
		op := binaryOps[rng.Intn(len(binaryOps))]
		return &exprNode{op: op, l: genExpr(rng, depth-1), r: genExpr(rng, depth-1)}
	}
}

func (e *exprNode) render() string {
	switch e.op {
	case "lit":
		if e.lit < 0 {
			return fmt.Sprintf("(0 - %d)", -e.lit)
		}
		return fmt.Sprintf("%d", e.lit)
	case "var":
		return fmt.Sprintf("v%d", e.vidx)
	case "-", "!", "~":
		return "(" + e.op + e.l.render() + ")"
	default:
		return "(" + e.l.render() + " " + e.op + " " + e.r.render() + ")"
	}
}

func (e *exprNode) eval(vars []int64) int64 {
	switch e.op {
	case "lit":
		return e.lit
	case "var":
		return vars[e.vidx]
	case "-":
		return -e.l.eval(vars)
	case "!":
		return truth(e.l.eval(vars) == 0)
	case "~":
		return ^e.l.eval(vars)
	}
	a, b := e.l.eval(vars), e.r.eval(vars)
	switch e.op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		if b == 0 {
			return 0
		}
		return a / b
	case "%":
		if b == 0 {
			return 0
		}
		return a % b
	case "&":
		return a & b
	case "|":
		return a | b
	case "^":
		return a ^ b
	case "<<":
		s := b
		if s < 0 {
			s = 0
		}
		if s > 63 {
			s = 63
		}
		return a << uint(s)
	case ">>":
		s := b
		if s < 0 {
			s = 0
		}
		if s > 63 {
			s = 63
		}
		return a >> uint(s)
	case "<":
		return truth(a < b)
	case "<=":
		return truth(a <= b)
	case ">":
		return truth(a > b)
	case ">=":
		return truth(a >= b)
	case "==":
		return truth(a == b)
	case "!=":
		return truth(a != b)
	case "&&":
		return truth(a != 0 && b != 0)
	case "||":
		return truth(a != 0 || b != 0)
	}
	panic("bad op " + e.op)
}

// truth is the reference evaluator's own 0/1 encoding of a condition.
func truth(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestExpressionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		vars := []int64{int64(rng.Intn(15) - 7), int64(rng.Intn(15) - 7), int64(rng.Intn(15) - 7)}
		var exprs []*exprNode
		var want []int64
		var b strings.Builder
		fmt.Fprintf(&b, "func main() {\n")
		fmt.Fprintf(&b, "    int v0 = %s;\n    int v1 = %s;\n    int v2 = %s;\n",
			lit(vars[0]), lit(vars[1]), lit(vars[2]))
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			e := genExpr(rng, 4)
			exprs = append(exprs, e)
			want = append(want, e.eval(vars))
			fmt.Fprintf(&b, "    print(%s);\n", e.render())
		}
		b.WriteString("}\n")
		src := b.String()

		c, err := CompileSource("exprdiff", src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		m, err := machine.New(machine.Default(variant.SingleInstruction))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadProgram(c.Program); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		got := outputs(m)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d outputs, want %d\n%s", trial, len(got), len(want), src)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d expr %d: got %d, want %d\nexpr: %s\n%s",
					trial, i, got[i], want[i], exprs[i].render(), src)
			}
		}
	}
}

func lit(v int64) string {
	if v < 0 {
		return fmt.Sprintf("0 - %d", -v)
	}
	return fmt.Sprintf("%d", v)
}
