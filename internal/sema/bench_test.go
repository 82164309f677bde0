package sema

import (
	"os"
	"testing"

	"tcfpram/internal/lang"
)

// BenchmarkCheck checks the pinned program of the compile-path benchmarks
// (see internal/lang/bench_test.go).
func BenchmarkCheck(b *testing.B) {
	src, err := os.ReadFile("../lang/testdata/cold.te")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Check(prog); err != nil {
			b.Fatal(err)
		}
	}
}
