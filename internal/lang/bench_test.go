package lang

import (
	"os"
	"testing"
)

// coldSource is the pinned program of the compile-path benchmarks: one
// output of the serve-cold generator of bench/gen (≈ 250 lines, several
// functions, switch, nested parallel, multiprefix and multioperations), kept
// as testdata because the root module cannot import bench/.
func coldSource(tb testing.TB) string {
	src, err := os.ReadFile("testdata/cold.te")
	if err != nil {
		tb.Fatal(err)
	}
	return string(src)
}

func BenchmarkLex(b *testing.B) {
	src := coldSource(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Lex(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := coldSource(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
