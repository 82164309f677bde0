package fuse_test

import (
	"fmt"
	"os"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
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
// at the thick benchmark's (where the lane loop is), and of the chain
// affineChain, a[tid] = tid*3 + 7 after a load of a[tid].
func BenchmarkKern(b *testing.B) {
	for _, lanes := range []int{4, 1 << 17} {
		b.Run(fmt.Sprintf("affine/lanes=%d", lanes), func(b *testing.B) {
			sh, err := mem.NewShared(1<<18, 4, mem.Arbitrary)
			if err != nil {
				b.Fatal(err)
			}
			f := tcf.New(0, 0, lanes)
			f.Regs = tcf.NewRegArena(1 << 20)
			var log mem.WriteLog
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				affineChain(f, sh, &log)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lanes), "ns/lane")
		})
	}
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

// chainCode is the register part of affineChain: the column of a[tid] = tid*3 + 7.
var chainCode = fuse.Compile(isa.MustAssemble("chain", `
		TID V0
		MUL V1, V0, 3
		ADD V1, V1, 7
	`)).Code

// affineChain runs TID, MUL and ADD through their kernels, then an LD of
// V2 from V0+4096 and an ST of V1 to V0+4096 as the machine's bulk path runs
// them: the LD page-wise from an affine address of stride 1, the ST into one
// run of the step's log with both sides where they lie, a form or a bank; a
// column address is read lane by lane.
func affineChain(f *tcf.Flow, sh *mem.Shared, log *mem.WriteLog) {
	for pc := range chainCode {
		fi := &chainCode[pc]
		fi.Kern(fuse.Env{}, &fi.In, f, 0, f.Lanes())
	}
	n := f.Lanes()
	if base, stride, ok := f.Affine(isa.V(0)); ok && stride == 1 {
		sh.PeekRun(f.Dest(isa.V(2), 0, n), base+4096)
	} else {
		rd := sh.Reader()
		av := f.Vector(isa.V(0))
		for i, dst := 0, f.Dest(isa.V(2), 0, n); i < n; i++ {
			dst[i] = rd.Peek(av[i] + 4096)
		}
	}
	log.Reset()
	a := mem.Operand{Lanes: f.Vector(isa.V(0)), Base: 4096}
	if base, stride, ok := f.Affine(isa.V(0)); ok {
		a = mem.Operand{Base: base + 4096, Stride: stride}
	}
	v := mem.Operand{Lanes: f.Vector(isa.V(1))}
	if base, stride, ok := f.Affine(isa.V(1)); ok {
		v = mem.Operand{Base: base, Stride: stride}
	}
	log.Refer(mem.Issue{Flow: f.ID, N: n}, &a, &v)
}
