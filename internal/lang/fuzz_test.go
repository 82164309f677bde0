package lang

import "testing"

// FuzzParse checks the tcf-e front end never panics, that the token count
// stays within the bound Lex sizes its array by (Lex panics otherwise), and
// that a lexical error is the error Parse reports.
func FuzzParse(f *testing.F) {
	f.Add(kitchenSink)
	f.Add("func main() { }")
	f.Add("func main() { #8; thick int v = tid; print(radd(v)); }")
	f.Add("shared int a[4] @ 10 = {1, -2};\nfunc main() { a[0] += 1; }")
	f.Add("func main() { parallel { #2: halt; #2: barrier; } }")
	f.Add("func main() { switch (1) { case 1: halt; default: barrier; } }")
	f.Add("func main() { for (int i = 0; i < 3; i += 1) { if (i) { break; } } }")
	f.Add("func f(a, b) { return a / b; }\nfunc main() { print(f(6, 2)); }")
	f.Add("func main( { }\nfunc f() { prints(\"a\\q\"); 12zz 0o7 010 1e /* open")
	f.Fuzz(func(t *testing.T, src string) {
		_, lexErr := Lex(src)
		_, err := Parse(src)
		if lexErr != nil && (err == nil || err.Error() != lexErr.Error()) {
			t.Fatalf("Lex fails with %v, Parse with %v\nsource:\n%s", lexErr, err, src)
		}
	})
}
