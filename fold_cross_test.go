package tcfpram_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tcfpram"
	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
)

// foldGrid is the operand grid of TestFoldedEqualsRuntime: zero, ±1, the
// extremes, the divisors that trap on real hardware, and shift counts below,
// at and beyond the clamp.
var foldGrid = []int64{0, 1, -1, 3, -7, 63, 64, 1 << 40, math.MaxInt64, math.MinInt64}

// foldLit renders v as a constant tcf-e expression (the language has no
// negative literals, and MinInt64's magnitude is no literal either).
func foldLit(v int64) string {
	switch {
	case v == math.MinInt64:
		return fmt.Sprintf("(0 - %d - 1)", int64(math.MaxInt64))
	case v < 0:
		return fmt.Sprintf("(0 - %d)", -v)
	}
	return fmt.Sprint(v)
}

// foldProgram builds, for one operator, a program that evaluates it on every
// operand of the grid (pair, for a binary operator) twice: on literals,
// which every constant folder on the way folds, and on the same values
// loaded from memory, which only the machine computes. It prints both
// results of each evaluation and branches on whether any pair differed, so
// the cost analyzer's run predicts the program exactly only if it computed
// the run-time values as the measured run did.
func foldProgram(op string, binary bool) string {
	var b strings.Builder
	// in[i] + adj[i] is grid value i: MinInt64 cannot be written in an
	// initializer list.
	in, adj := make([]string, len(foldGrid)), make([]string, len(foldGrid))
	for i, v := range foldGrid {
		in[i], adj[i] = fmt.Sprint(v), "0"
		if v == math.MinInt64 {
			in[i], adj[i] = fmt.Sprint(v+1), "-1"
		}
	}
	fmt.Fprintf(&b, "shared int in[%d] @ 100 = {%s};\n", len(in), strings.Join(in, ", "))
	fmt.Fprintf(&b, "shared int adj[%d] @ 200 = {%s};\n", len(adj), strings.Join(adj, ", "))
	b.WriteString("func main() {\n    int r = 0;\n    int bad = 0;\n")
	emit := func(folded, runtime string) {
		fmt.Fprintf(&b, "    print(%s);\n    r = %s;\n    print(r);\n    bad = bad + (r != %s);\n",
			folded, runtime, folded)
	}
	for i, x := range foldGrid {
		rx := fmt.Sprintf("(in[%d] + adj[%d])", i, i)
		if !binary {
			emit(fmt.Sprintf("(%s%s)", op, foldLit(x)), fmt.Sprintf("(%s%s)", op, rx))
			continue
		}
		for j, y := range foldGrid {
			ry := fmt.Sprintf("(in[%d] + adj[%d])", j, j)
			emit(fmt.Sprintf("(%s %s %s)", foldLit(x), op, foldLit(y)), fmt.Sprintf("(%s %s %s)", rx, op, ry))
		}
	}
	b.WriteString("    if (bad) {\n        prints(\"diverged\");\n    }\n    print(bad);\n}\n")
	return b.String()
}

// foldEngines are the two machines TestFoldedEqualsRuntime runs a program on:
// the facade's, whose fused kernels compute the run-time values, and the
// per-lane reference (machine.NewReference), which computes them through
// isa.Eval lane by lane. Each returns the printed words and the Stats.
var foldEngines = []struct {
	name string
	run  func(cfg tcfpram.Config, name, src string) ([]int64, *tcfpram.Stats, error)
}{
	{"reference", func(cfg tcfpram.Config, name, src string) ([]int64, *tcfpram.Stats, error) {
		c, err := codegen.CompileSource(name, src)
		if err != nil {
			return nil, nil, err
		}
		m, err := machine.NewReference(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := m.LoadProgram(c.Program); err != nil { // the programs have no local data
			return nil, nil, err
		}
		st, err := m.Run()
		var out []int64
		for _, o := range m.Outputs() {
			out = append(out, o.Values...)
		}
		return out, st, err
	}},
	{"production", func(cfg tcfpram.Config, name, src string) ([]int64, *tcfpram.Stats, error) {
		m, st, err := tcfpram.RunSource(cfg, name, src)
		if err != nil {
			return nil, st, err
		}
		return m.PrintedValues(), st, nil
	}},
}

// TestFoldedEqualsRuntime is the cross-layer check on instruction semantics:
// for every tcf-e operator and every operand of the grid, the constant the
// folders produce and the word the machine computes from run-time values are
// the same, on both engines, and the cost analyzer — a run of its own —
// predicts the run with zero error.
func TestFoldedEqualsRuntime(t *testing.T) {
	binary := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	unary := []string{"-", "~", "!"}
	for k, op := range append(binary, unary...) {
		isBinary := k < len(binary)
		name := "binary" + op
		if !isBinary {
			name = "unary" + op
		}
		t.Run(name, func(t *testing.T) {
			src := foldProgram(op, isBinary)
			var first []int64
			for _, eng := range foldEngines {
				cfg := tcfpram.DefaultConfig(tcfpram.SingleInstruction)
				out, st, err := eng.run(cfg, name, src)
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				n := len(foldGrid)
				if isBinary {
					n *= len(foldGrid)
				}
				if len(out) != 2*n+1 {
					t.Fatalf("%s: %d printed values, want %d", eng.name, len(out), 2*n+1)
				}
				for i := 0; i < n; i++ {
					if out[2*i] != out[2*i+1] {
						x, y := foldGrid[i%len(foldGrid)], int64(0)
						if isBinary {
							x, y = foldGrid[i/len(foldGrid)], foldGrid[i%len(foldGrid)]
						}
						t.Errorf("%s: operator %s on (%d, %d): folded %d, run-time %d",
							eng.name, op, x, y, out[2*i], out[2*i+1])
					}
				}
				if first == nil {
					first = out
				} else if fmt.Sprint(out) != fmt.Sprint(first) {
					t.Errorf("the engines print different words:\n%v\n%v", first, out)
				}

				rep, err := tcfpram.PredictCost(name, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Resolved {
					t.Fatalf("cost analysis did not resolve: %s", rep.Reason)
				}
				for _, f := range []struct {
					what      string
					predicted tcfpram.CostBound
					measured  int64
				}{
					{"steps", rep.Steps, st.Steps},
					{"cycles", rep.Cycles, st.Cycles},
					{"ops", rep.Ops, st.Ops},
					{"scalar ops", rep.ScalarOps, st.ScalarOps},
					{"fetches", rep.InstrFetches, st.InstrFetches},
					{"shared reads", rep.SharedReads, st.SharedReads},
				} {
					if f.predicted.Min != f.measured || f.predicted.Max != f.measured {
						t.Errorf("%s: predicted %s %s, measured %d", eng.name, f.what, f.predicted, f.measured)
					}
				}
			}
		})
	}
}
