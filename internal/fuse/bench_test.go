package fuse_test

import (
	"os"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fuse"
)

// BenchmarkFuseCompile fuses the compiled form of the pinned program of the
// compile-path benchmarks (see internal/lang/bench_test.go).
func BenchmarkFuseCompile(b *testing.B) {
	src, err := os.ReadFile("../lang/testdata/cold.te")
	if err != nil {
		b.Fatal(err)
	}
	c, err := codegen.CompileSource("cold.te", string(src))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp := fuse.Compile(c.Program); len(fp.Code) != c.Program.Len() {
			b.Fatal("short program")
		}
	}
}
