package lang

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	src := `func main() { int x = 0x10; x <<= 2; prints("hi\n"); } // c`
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokKwFunc, TokIdent, TokLParen, TokRParen, TokLBrace,
		TokKwInt, TokIdent, TokAssign, TokInt, TokSemi,
		TokIdent, TokShlAssign, TokInt, TokSemi,
		TokIdent, TokLParen, TokString, TokRParen, TokSemi, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[8].IntValue(src) != 16 {
		t.Fatalf("hex literal = %d", toks[8].IntValue(src))
	}
	if toks[16].StringValue(src) != "hi\n" {
		t.Fatalf("string = %q", toks[16].StringValue(src))
	}
}

func TestLexOperators(t *testing.T) {
	src := "+ - * / % & | ^ ~ ! << >> < <= > >= == != && || = += -= *= /= %= &= |= ^= <<= >>= # @ :"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokPlus, TokMinus, TokStar, TokSlash, TokPercent, TokAmp,
		TokPipe, TokCaret, TokTilde, TokBang, TokShl, TokShr, TokLt, TokLe,
		TokGt, TokGe, TokEq, TokNe, TokAndAnd, TokOrOr, TokAssign,
		TokPlusAssign, TokMinusAssign, TokStarAssign, TokSlashAssign,
		TokPercentAssign, TokAmpAssign, TokPipeAssign, TokCaretAssign,
		TokShlAssign, TokShrAssign, TokHash, TokAt, TokColon, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := "a /* multi\nline */ b // end\nc"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 || toks[0].Text(src) != "a" || toks[1].Text(src) != "b" || toks[2].Text(src) != "c" {
		t.Fatalf("comment handling: %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* open", `"bad \q"`, "$", "99999999999999999999999"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	src := "a\n  b"
	toks, _ := Lex(src)
	if pos := toks[0].Pos(src); pos.Line != 1 || pos.Col != 1 {
		t.Fatalf("pos a = %v", pos)
	}
	if pos := toks[1].Pos(src); pos.Line != 2 || pos.Col != 3 {
		t.Fatalf("pos b = %v", pos)
	}
}

const kitchenSink = `
shared int a[8] @ 100 = {1, 2, 3, -4};
shared int total;
local int scratch[16];

func main() {
    int size = 8;
    #size;
    thick int v = a[tid] * 2;
    a[tid] = v;
    if (size > 4) {
        total = radd(v);
    } else {
        total = 0;
    }
    while (size > 1) {
        size = size / 2;
    }
    for (int i = 0; i < 4; i += 1) {
        scratch[i] = i;
    }
    parallel {
        #4: a[tid] = 0;
        #4: a[tid + 4] = 1;
    }
    #1/8;
    total += 1;
    barrier;
    print(helper(total, 2));
    prints("done");
    halt;
}

func helper(x, y) {
    return x * y + mpadd(&total, 1);
}
`

func TestParseKitchenSink(t *testing.T) {
	prog, err := Parse(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 3 {
		t.Fatalf("globals = %d", len(prog.Globals))
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(prog.Funcs))
	}
	if prog.Func("main") == nil || prog.Func("helper") == nil || prog.Func("nope") != nil {
		t.Fatal("Func lookup broken")
	}
	g := prog.Globals[0]
	if g.Name != "a" || g.ArrayLen != 8 || g.Addr != 100 || len(g.InitList) != 4 || g.InitList[3] != -4 {
		t.Fatalf("global a = %+v", g)
	}
	if prog.Globals[2].Space != SpaceLocal {
		t.Fatal("scratch should be local")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("func main() { print(1 + 2 * 3); }")
	if err != nil {
		t.Fatal(err)
	}
	call := prog.Funcs[0].Body.Stmts[0].(*ExprStmt).X.(*Call)
	bin := call.Args[0].(*Binary)
	if bin.Op != TokPlus {
		t.Fatalf("root op = %v, want +", bin.Op)
	}
	if inner, ok := bin.Y.(*Binary); !ok || inner.Op != TokStar {
		t.Fatalf("rhs = %#v", bin.Y)
	}
}

func TestParseNumaVsThickness(t *testing.T) {
	prog, err := Parse("func main() { #8; #1/4; #1; }")
	if err != nil {
		t.Fatal(err)
	}
	stmts := prog.Funcs[0].Body.Stmts
	if _, ok := stmts[0].(*ThickStmt); !ok {
		t.Fatalf("#8 parsed as %T", stmts[0])
	}
	if _, ok := stmts[1].(*NumaStmt); !ok {
		t.Fatalf("#1/4 parsed as %T", stmts[1])
	}
	if _, ok := stmts[2].(*ThickStmt); !ok {
		t.Fatalf("#1 parsed as %T", stmts[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"missing-brace", "func main() {", "expected"},
		{"bad-decl", "int;", "expected"},
		{"empty-parallel", "func main() { parallel { } }", "at least one arm"},
		{"zero-array", "shared int a[0];", "positive length"},
		{"assign-to-call", "func main() { f() = 3; }", "assignment target"},
		{"top-level-expr", "1 + 2;", "expected declaration"},
		{"bad-for", "func main() { for (1 1) {} }", "expected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want %q, got %v", c.want, err)
			}
		})
	}
}

func TestSpaceString(t *testing.T) {
	if SpaceReg.String() != "reg" || SpaceShared.String() != "shared" || SpaceLocal.String() != "local" {
		t.Fatal("space names")
	}
}

func TestTokenString(t *testing.T) {
	src := `x 42 "s"`
	toks, _ := Lex(src)
	if !strings.Contains(toks[0].Describe(src), "x") ||
		!strings.Contains(toks[1].Describe(src), "42") ||
		!strings.Contains(toks[2].Describe(src), "s") {
		t.Fatal("token rendering")
	}
	if TokKind(250).String() == "" {
		t.Fatal("unknown token kind should render")
	}
}

// TestIntLiterals pins the integer-literal forms LANGUAGE.md documents:
// decimal without a leading zero, 0x hexadecimal, 0b binary, 0o octal, all
// within int64; everything else a number's run of characters can spell is
// an error at the literal's position.
func TestIntLiterals(t *testing.T) {
	for _, tc := range []struct {
		src     string
		want    int64
		wantErr string // "" means the literal is accepted
	}{
		{src: "0", want: 0},
		{src: "7", want: 7},
		{src: "65535", want: 65535},
		{src: "9223372036854775807", want: 9223372036854775807},
		{src: "0x10", want: 16},
		{src: "0XfF", want: 255},
		{src: "0b11", want: 3},
		{src: "0B101", want: 5},
		{src: "0o17", want: 15},
		{src: "0O7", want: 7},
		{src: "010", wantErr: `lang: 1:3: integer literal "010" has a leading zero (octal is written 0o10)`},
		{src: "00", wantErr: `lang: 1:3: integer literal "00" has a leading zero (octal is written 0o0)`},
		{src: "1e", wantErr: `lang: 1:3: bad integer literal "1e"`},
		{src: "12ab", wantErr: `lang: 1:3: bad integer literal "12ab"`},
		{src: "0x", wantErr: `lang: 1:3: bad integer literal "0x"`},
		{src: "0b12", wantErr: `lang: 1:3: bad integer literal "0b12"`},
		{src: "0o8", wantErr: `lang: 1:3: bad integer literal "0o8"`},
		{src: "9223372036854775808", wantErr: `lang: 1:3: bad integer literal "9223372036854775808"`},
	} {
		src := "# " + tc.src + ";"
		toks, err := Lex(src)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("Lex(%q) error = %v, want %s", src, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Lex(%q): %v", src, err)
			continue
		}
		if len(toks) != 4 || toks[1].Kind != TokInt || toks[1].IntValue(src) != tc.want {
			t.Errorf("Lex(%q) = %v, want the integer %d", src, toks, tc.want)
		}
	}
	// A number stops at the first character it cannot hold; what follows
	// is the next token.
	src := "12zz"
	toks, err := Lex(src)
	if err != nil || len(toks) != 3 || toks[0].IntValue(src) != 12 || toks[1].Text(src) != "zz" {
		t.Errorf("Lex(%q) = %v, %v; want 12 then zz", src, toks, err)
	}
}

// TestErrorPrecedence pins which error a source with several gets, and
// where: a lexical error anywhere in the source goes before any syntax
// error (the parser pulls tokens on demand, but reports as if the whole
// source had been tokenized first), the first lexical error wins, and
// unterminated comments and strings are reported where they start.
func TestErrorPrecedence(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		lexical   bool // the error is a lexical one: Lex reports it too
		want      string
	}{
		{"parse error alone", "func main( { }", false, `lang: 1:12: expected identifier, got {`},
		{"early parse error, later lex error", "func main( { }\nfunc f() { $ }", true, `lang: 2:12: unexpected character "$"`},
		{"early parse error, later bad literal", "func main() { x = ; }\nfunc f() { y = 1e; }", true, `lang: 2:16: bad integer literal "1e"`},
		{"early parse error, unterminated comment at the end", "int int;\n  /* open", true, `lang: 2:3: unterminated block comment`},
		{"two lex errors: the first", "func main() { $ }\n\"open", true, `lang: 1:15: unexpected character "$"`},
		{"unterminated string", "func main() {\n  prints(\"abc\n); }", true, `lang: 2:10: unterminated string`},
		{"unknown escape before the string ends", "func main() { prints(\"a\\q", true, `lang: 1:22: unknown escape \q`},
		{"unterminated escape", "func main() { prints(\"a\\", true, `lang: 1:22: unterminated escape`},
		{"unterminated comment", "func main() { }\n/* a\n b", true, `lang: 2:1: unterminated block comment`},
		{"parse error at end of input", "func main() {", false, `lang: 1:14: expected }, got EOF`},
		{"parse error after a multi-line string", "func main() { prints(\"a\nb\") x }", false, `lang: 2:5: expected ;, got ident(x)`},
	} {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Parse error = %v, want %s", tc.name, err, tc.want)
		}
		// Lex reports the same first lexical error, or none.
		_, lerr := Lex(tc.src)
		switch {
		case tc.lexical && (lerr == nil || lerr.Error() != tc.want):
			t.Errorf("%s: Lex error = %v, want %s", tc.name, lerr, tc.want)
		case !tc.lexical && lerr != nil:
			t.Errorf("%s: Lex error = %v, want none", tc.name, lerr)
		}
	}
}

// TestTokenBound checks the one-allocation promise of Lex: the bound it
// sizes the token array by holds (Lex panics otherwise) and, on programs,
// is within an eighth of the count.
func TestTokenBound(t *testing.T) {
	for _, src := range []string{"", " ", "a", "12zz 3_x 0b1z 7z", "a<<=b>>=c&&d||e",
		"\"s\\\"t\" /* c */ // d\n;", "1 2 3", kitchenSink, coldSource(t)} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		n, bound := len(toks), tokenBound(src)
		if n > bound || len(src) > 200 && bound > n+n/8 {
			t.Errorf("tokenBound(%.20q…) = %d for %d tokens", src, bound, n)
		}
	}
}
