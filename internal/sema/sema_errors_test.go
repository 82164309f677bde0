package sema

import (
	"errors"
	"strings"
	"testing"

	"tcfpram/internal/lang"
)

// TestErrorTable drives every sema rejection path and asserts both the
// message and the reported source position: each case puts the offending
// construct on a known line, and the positioned *Error must point at it.
func TestErrorTable(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantSub  string
		wantLine int
	}{
		{"nonconst-global-init", "shared int x = tid;\nfunc main() { }", "global initializer of x must be constant", 1},
		{"dup-global", "shared int a;\nshared int a;\nfunc main() { }", "duplicate global a", 2},
		{"array-as-value", "shared int a[4];\nfunc main() {\nint x = a;\n}", "array a used as a value", 3},
		{"prints-nonstring", "func main() {\nprints(1);\n}", "prints expects a string literal", 2},
		{"thick-assert", "func main() {\n#4;\nassert(tid);\n}", "assert condition must be scalar", 3},
		{"scalar-reduction", "func main() {\nint x = radd(1);\n}", "radd reduces a thick value; argument 1 is scalar", 2},
		{"void-assign", "func f() { }\nfunc main() {\nint x = 1;\nx = f();\n}", "cannot assign a void call result", 4},
		{"global-shadows-builtin", "shared int tid;\nfunc main() { }", "tid shadows a builtin", 1},
		{"scalar-init-list", "shared int s = {1, 2};\nfunc main() { }", "initializer list on scalar s", 1},
		{"init-too-long", "shared int a[2] = {1, 2, 3};\nfunc main() { }", "has 3 elements for length 2", 1},
		{"dup-func", "func f() { }\nfunc f() { }\nfunc main() { }", "duplicate function f", 2},
		{"func-shadows-builtin", "func radd() { }\nfunc main() { }", "function radd shadows a builtin", 1},
		{"no-main", "func f() { }", "program has no main function", 1},
		{"main-params", "func main(a) { }", "main takes no parameters", 1},
		{"dup-param", "func f(a, a) { }\nfunc main() { }", "duplicate parameter a", 1},
		{"param-shadows-builtin", "func f(tid) { }\nfunc main() { }", "parameter tid shadows a builtin", 1},
		{"recursion", "func f() { f(); }\nfunc main() { f(); }", "recursive call cycle", 1},
		{"expr-stmt", "func main() {\n1 + 2;\n}", "expression statement must be a call", 2},
		{"thick-arm", "func main() {\nparallel {\n#tid: halt;\n}\n}", "parallel arm thickness must be scalar", 3},
		{"dup-default", "func main() {\nswitch (1) {\ndefault: halt;\ndefault: halt;\n}\n}", "duplicate default case", 4},
		{"thick-case", "func main() {\n#4;\nswitch (1) {\ncase tid: halt;\n}\n}", "switch case value must be scalar", 4},
		{"stray-break", "func main() {\nbreak;\n}", "break outside a loop", 2},
		{"stray-continue", "func main() {\ncontinue;\n}", "continue outside a loop", 2},
		{"thick-return", "func f() {\n#4;\nreturn tid;\n}\nfunc main() { f(); }", "return value must be scalar", 3},
		{"thick-cond", "func main() {\n#4;\nif (tid) { halt; }\n}", "condition must be scalar", 3},
		{"nested-shared", "func main() {\nshared int x;\n}", "shared/local declarations must be top-level", 2},
		{"reg-array", "func main() {\nint a[4];\n}", "register variable a cannot be an array", 2},
		{"reg-addr", "func main() {\nint x @ 5;\n}", "register variable x cannot bind an address", 2},
		{"dup-local", "func main() {\nint x = 1;\nint x = 2;\n}", "duplicate variable x in this scope", 3},
		{"local-shadows-builtin", "func main() {\nint tid = 1;\n}", "tid shadows a builtin", 2},
		{"thick-into-scalar-init", "func main() {\n#4;\nint x = tid;\n}", "cannot initialize scalar x with a thick value", 3},
		{"assign-builtin", "func main() {\ntid = 1;\n}", "cannot assign to builtin tid", 2},
		{"assign-undeclared", "func main() {\nx = 1;\n}", "undeclared variable x", 2},
		{"assign-array", "shared int a[4];\nfunc main() {\na = 1;\n}", "cannot assign whole array a", 3},
		{"thick-into-scalar", "func main() {\n#4;\nint x = 1;\nx = tid;\n}", "cannot assign thick value to scalar x", 4},
		{"undeclared-array", "func main() {\nq[0] = 1;\n}", "undeclared array q", 2},
		{"not-an-array", "func main() {\nint x = 1;\nx[0] = 2;\n}", "x is not an array", 3},
		{"thick-store-scalar-index", "shared int a[4];\nfunc main() {\n#4;\na[0] = tid;\n}", "storing a thick value needs a thick index", 4},
		{"undefined-func", "func main() {\ng();\n}", "undefined function g", 2},
		{"bad-arity", "func f(a) { }\nfunc main() {\nf(1, 2);\n}", "f expects 1 argument(s), got 2", 3},
		{"thick-arg", "func f(a) { }\nfunc main() {\n#4;\nf(tid);\n}", "function arguments must be scalar", 4},
		{"addr-of-reg", "func main() {\nint x = 1;\nmadd(&x, 1);\n}", "cannot take the address of register variable x", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := lang.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Check(prog)
			if err == nil {
				t.Fatalf("want error containing %q, got none", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("want error containing %q, got %v", tc.wantSub, err)
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error is not a positioned *sema.Error: %v", err)
			}
			if int(se.Pos.Line) != tc.wantLine {
				t.Fatalf("error at line %d, want line %d: %v", se.Pos.Line, tc.wantLine, err)
			}
			if se.Pos.Col < 1 {
				t.Fatalf("error column %d < 1: %v", se.Pos.Col, err)
			}
		})
	}
}
