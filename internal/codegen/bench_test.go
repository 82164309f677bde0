package codegen

import (
	"os"
	"testing"

	"tcfpram/internal/lang"
	"tcfpram/internal/sema"
)

// BenchmarkCompileChecked compiles the pinned program of the compile-path
// benchmarks (see internal/lang/bench_test.go).
func BenchmarkCompileChecked(b *testing.B) {
	src, err := os.ReadFile("../lang/testdata/cold.te")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileChecked(info); err != nil {
			b.Fatal(err)
		}
	}
}
