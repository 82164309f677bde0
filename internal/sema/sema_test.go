package sema

import (
	"strings"
	"testing"

	"tcfpram/internal/lang"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func mustCheck(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func wantErr(t *testing.T, src, sub string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil || !strings.Contains(err.Error(), sub) {
		t.Fatalf("want error containing %q, got %v", sub, err)
	}
}

func TestGlobalsLayout(t *testing.T) {
	info := mustCheck(t, `
shared int a[8] @ 100 = {1, 2, 3};
shared int b[4];
shared int c;
local int d[16];
local int e;
func main() { }
`)
	var a, b, c, d, e *Sym
	for _, g := range info.Prog.Globals {
		sym := info.SymOf(g)
		switch g.Name {
		case "a":
			a = sym
		case "b":
			b = sym
		case "c":
			c = sym
		case "d":
			d = sym
		case "e":
			e = sym
		}
	}
	if a.Addr != 100 {
		t.Fatalf("a at %d", a.Addr)
	}
	if b.Addr < 8192 || c.Addr != b.Addr+4 {
		t.Fatalf("auto layout: b=%d c=%d", b.Addr, c.Addr)
	}
	if d.Addr != 0 || e.Addr != 16 {
		t.Fatalf("local layout: d=%d e=%d", d.Addr, e.Addr)
	}
	if len(info.Data) != 1 || info.Data[0].Addr != 100 || len(info.Data[0].Words) != 3 {
		t.Fatalf("data segs: %+v", info.Data)
	}
	if info.SharedTop <= 8192 {
		t.Fatalf("shared top = %d", info.SharedTop)
	}
}

func TestConstInitializers(t *testing.T) {
	info := mustCheck(t, `
shared int x @ 50 = 6 * 7;
local int y @ 3 = -(1 << 4);
func main() { }
`)
	if len(info.Data) != 1 || info.Data[0].Words[0] != 42 {
		t.Fatalf("shared const init: %+v", info.Data)
	}
	if len(info.LocalData) != 1 || info.LocalData[0].Words[0] != -16 {
		t.Fatalf("local const init: %+v", info.LocalData)
	}
}

func TestKindsAnnotation(t *testing.T) {
	info := mustCheck(t, `
shared int a[8];
func main() {
    #8;
    thick int v = tid;
    int s = 3;
    a[v] = v + s;
    a[s] = s;
}
`)
	thickCount, scalarCount := 0, 0
	for _, v := range info.kinds {
		switch v {
		case uint8(KindThick) + 1:
			thickCount++
		case uint8(KindScalar) + 1:
			scalarCount++
		}
	}
	if thickCount == 0 || scalarCount == 0 {
		t.Fatalf("kinds not annotated: %d thick, %d scalar", thickCount, scalarCount)
	}
}

func TestReturnsInference(t *testing.T) {
	info := mustCheck(t, `
func main() { g(); print(f()); }
func f() { return 1; }
func g() { return; }
`)
	if !info.Funcs["f"].Returns {
		t.Fatal("f must return a value")
	}
	if info.Funcs["g"].Returns {
		t.Fatal("g must not return a value")
	}
}

func TestForwardCallSeesReturnValue(t *testing.T) {
	// main calls f before f is declared; f returns a value.
	mustCheck(t, `
func main() { int x = f(); print(x); }
func f() { return 7; }
`)
}

func TestErrorCases(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no-main", "func other() { }", "no main"},
		{"main-params", "func main(x) { }", "main takes no parameters"},
		{"dup-global", "shared int x;\nshared int x;\nfunc main() { }", "duplicate global"},
		{"dup-func", "func f() { }\nfunc f() { }\nfunc main() { }", "duplicate function"},
		{"dup-param", "func f(a, a) { }\nfunc main() { }", "duplicate parameter"},
		{"dup-local", "func main() { int x; int x; }", "duplicate variable"},
		{"undeclared", "func main() { x = 1; }", "undeclared"},
		{"undeclared-read", "func main() { print(x); }", "undeclared"},
		{"undefined-func", "func main() { nope(); }", "undefined function"},
		{"recursion", "func main() { f(); }\nfunc f() { f(); }", "recursive"},
		{"mutual-recursion", "func main() { f(); }\nfunc f() { g(); }\nfunc g() { f(); }", "recursive"},
		{"thick-if", "func main() { #4; thick int v = tid; if (v) { } }", "must be scalar"},
		{"thick-while", "func main() { #4; thick int v = tid; while (v > 0) { } }", "must be scalar"},
		{"thick-to-scalar", "func main() { #4; int s; thick int v = tid; s = v; }", "reduction"},
		{"thick-init-scalar", "func main() { #4; int s = tid; }", "thick value"},
		{"thick-return", "func main() { print(f()); }\nfunc f() { #4; thick int v = tid; return v; }", "must be scalar"},
		{"thick-arg", "func main() { #4; thick int v = tid; f(v); }\nfunc f(x) { }", "must be scalar"},
		{"thick-arm", "func main() { #4; thick int v = tid; parallel { #v: halt; } }", "must be scalar"},
		{"global-thick", "shared thick int v;\nfunc main() { }", "cannot be thick"},
		{"global-nonconst", "shared int x = fid;\nfunc main() { }", "must be constant"},
		{"scalar-init-list", "shared int x = {1, 2};\nfunc main() { }", "initializer list on scalar"},
		{"init-too-long", "shared int a[2] = {1, 2, 3};\nfunc main() { }", "3 elements for length 2"},
		{"local-shared-decl", "func main() { shared int x; }", "must be top-level"},
		{"reg-array", "func main() { int a; thick int b; int c; { int d; } }", ""},
		{"array-as-value", "shared int a[4];\nfunc main() { print(a); }", "used as a value"},
		{"whole-array-assign", "shared int a[4];\nfunc main() { a = 1; }", "whole array"},
		{"not-array", "func main() { int x; print(x[0]); }", "not an array"},
		{"addr-of-reg", "func main() { int x; print(&x); }", "address of register"},
		{"builtin-assign", "func main() { tid = 1; }", "builtin"},
		{"builtin-shadow-var", "func main() { int tid; }", "shadows a builtin"},
		{"builtin-shadow-func", "func mpadd() { }\nfunc main() { }", "shadows a builtin"},
		{"builtin-shadow-global", "shared int tid;\nfunc main() { }", "shadows a builtin"},
		{"intrinsic-arity", "func main() { print(radd(1, 2)); }", "expects 1"},
		{"reduce-scalar", "func main() { print(radd(3)); }", "argument 1 is scalar"},
		{"prints-nonstring", "func main() { prints(3); }", "string literal"},
		{"string-in-expr", `func main() { print("x" + 1); }`, "string literal"},
		{"void-in-expr", "func main() { print(f() + 1); }\nfunc f() { }", "void"},
		{"void-assign", "func main() { int x; x = f(); }\nfunc f() { }", "void"},
		{"expr-stmt", "func main() { 1 + 2; }", "must be a call"},
		{"call-arity", "func f(a) { }\nfunc main() { f(); }", "expects 1"},
		{"thick-numa", "func main() { #4; thick int v = tid; #1/v; }", "must be scalar"},
		{"thick-store-scalar-idx", "shared int a[4];\nfunc main() { #4; thick int v = tid; a[0] = v; }", "thick index"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.want == "" {
				mustCheck(t, c.src)
				return
			}
			wantErr(t, c.src, c.want)
		})
	}
}

func TestScoping(t *testing.T) {
	mustCheck(t, `
func main() {
    int x = 1;
    {
        int x = 2;
        print(x);
    }
    for (int x = 0; x < 3; x += 1) { }
    print(x);
}
`)
}

func TestIsBuiltinHelpers(t *testing.T) {
	if !IsBuiltinIdent("tid") || IsBuiltinIdent("foo") {
		t.Fatal("IsBuiltinIdent")
	}
	if !IsIntrinsic("mpadd") || IsIntrinsic("bar") {
		t.Fatal("IsIntrinsic")
	}
	if KindScalar.String() != "scalar" || KindThick.String() != "thick" || KindVoid.String() != "void" {
		t.Fatal("kind names")
	}
}

func TestParallelArmScopes(t *testing.T) {
	mustCheck(t, `
func main() {
    parallel {
        #2: { int x = 1; print(x); }
        #2: { int x = 2; print(x); }
    }
}
`)
}

// Kitchen-sink happy path: every statement and expression form checks.
func TestFullLanguageChecks(t *testing.T) {
	info := mustCheck(t, `
shared int a[16] @ 100 = {1, 2, 3};
shared int total = 2 + 3 * 4 - (10 / 2) % 3 + (1 << 3) - (16 >> 2) + -1 + ~0 + !0;
local int buf[8];

func main() {
    #16;
    thick int v = a[tid] * 2 + (tid & 1) | (tid ^ 3);
    int s = radd(v) + rmax(v) - rmin(v) + rand(v) + ror(v);
    a[tid] = mpadd(&total, v) + mpmax(&a[0], v) + mpmin(&a[1], v)
           + mpand(&a[2], v) + mpor(&a[3], v);
    madd(&total, 1);
    mand(&total, -1);
    mor(&total, 0);
    mmax(&total, s);
    mmin(&total, s);
    if (s > 0 && s < 100 || !s) {
        buf[0] = s;
    } else {
        buf[1] = s;
    }
    while (s > 0) {
        s -= 1;
        if (s == 3) { continue; }
        if (s == 1) { break; }
    }
    for (int i = 0; i < 4; i += 1) {
        switch (i) {
        case 0, 1:
            buf[i] = i;
        default:
            buf[i] = -i;
        }
    }
    parallel {
        #8: a[tid] += 1;
        #8: a[tid + 8] += helper(2, 3);
    }
    #1/4;
    total += buf[0];
    #1;
    print(total);
    prints("done");
    assert(1);
    halt;
}

func helper(x, y) {
    return x * y;
}
`)
	if info.SharedTop <= 8192 {
		t.Fatal("no auto allocation happened")
	}
	if !info.Funcs["helper"].Returns {
		t.Fatal("helper returns")
	}
}

func TestConstFoldForms(t *testing.T) {
	// Exercise every folding operator through global initializers.
	info := mustCheck(t, `
shared int a = 1 + 2;
shared int b = 5 - 1;
shared int c = 3 * 4;
shared int d = 9 / 2;
shared int e = 9 % 2;
shared int f = 6 / 0;
shared int g = 6 % 0;
shared int h = 1 << 70;
shared int i = 1 << -1;
shared int j = 16 >> 2;
shared int k = -(3);
shared int l = ~0;
shared int m = !5;
shared int n = !0;
func main() { }
`)
	want := map[int]int64{0: 3, 1: 4, 2: 12, 3: 4, 4: 1, 5: 0, 6: 0,
		7: -1 << 63, 8: 1, 9: 4, 10: -3, 11: -1, 12: 0, 13: 1}
	for i, seg := range info.Data {
		if seg.Words[0] != want[i] {
			t.Fatalf("const %d = %d, want %d", i, seg.Words[0], want[i])
		}
	}
}
