package fuse_test

import (
	"fmt"
	"os"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
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

// BenchmarkKern reports ns/lane of one compiled kernel per operand shape, at
// a thin flow's lane count (where the call into the kernel is the cost) and
// at the thick benchmark's (where the lane loop is).
func BenchmarkKern(b *testing.B) {
	p := isa.MustAssemble("kern", `
		ADD V0, V1, V2
		MUL V0, V1, 3
		SUB V0, S1, V2
		NEG V0, V1
		SEL V0, V3, V1, V2
		TID V0
		LDI V0, 7
	`)
	code := fuse.Compile(p).Code
	for pc, shape := range []string{"vv", "vs", "sv", "unary", "sel", "tid", "fill"} {
		for _, lanes := range []int{4, 1 << 17} {
			b.Run(fmt.Sprintf("%s/lanes=%d", shape, lanes), func(b *testing.B) {
				f := tcf.New(0, 0, lanes)
				for r := 0; r < 4; r++ {
					for i, v := 0, f.Vector(isa.V(r)); i < lanes; i++ {
						v[i] = int64(i%7 - r)
					}
				}
				fi := &code[pc]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fi.Kern(fuse.Env{}, &fi.In, f, 0, lanes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lanes), "ns/lane")
			})
		}
	}
}
