package gen

import (
	"fmt"
	"strings"
)

// ThickShape sizes the engine-thick kernels. The benchmark uses
// DefaultThick; the smoke test shrinks it.
type ThickShape struct {
	Thickness   int // lanes of every kernel; a power of two, at least 64
	SharedWords int // machine shared memory; at least 12*Thickness + 16384
}

// DefaultThick is thickness 2^17 on 2^21 shared words.
var DefaultThick = ThickShape{Thickness: 1 << 17, SharedWords: 1 << 21}

// FlowShape sizes the engine-flows kernels.
type FlowShape struct {
	Tasks      int // multitask: flows of thickness 4
	TreeDepth  int // splitjoin-tree: depth of the binary tree of parallel statements
	RingRounds int // barrier-ring: barrier rounds of the 16 flows
	ChainIters int // numa-chain: sequential iterations under #1/8
	LoopIters  int // thin-loop: iterations at thickness 16
}

// DefaultFlows is the shape the benchmark runs.
var DefaultFlows = FlowShape{Tasks: 2048, TreeDepth: 8, RingRounds: 200, ChainIters: 20000, LoopIters: 10000}

// Kernel names, in the order ThickKernels and FlowKernels return them.
var (
	ThickKernelNames = []string{"saxpy-loop", "gather-spmv", "histogram", "scan", "scatter-crcw"}
	FlowKernelNames  = []string{"multitask-2048x4", "splitjoin-tree", "barrier-ring", "numa-chain", "thin-loop"}
)

// srcBuilder accumulates tcf-e source lines.
type srcBuilder struct{ strings.Builder }

func (b *srcBuilder) f(format string, args ...any) {
	fmt.Fprintf(&b.Builder, format, args...)
	b.WriteByte('\n')
}

// kernelBase is where kernel arrays start: above the words the compiler
// auto-places scalars in (8192 onward), leaving room for them.
const kernelBase = 16384

// ThickKernels returns the five engine-thick kernels for a seed. Each runs
// at sh.Thickness lanes, computes its seeded input itself, and ends with
// checksum prints that cover every result word.
func ThickKernels(seed int64, sh ThickShape) []*Program {
	r := newRand(seed, "thick")
	odd := func() int64 { return int64(r.Intn(1<<16))*2 + 1 }
	ps := []*Program{
		saxpyLoop(sh, odd(), odd(), odd(), int64(r.Intn(7)+2)),
		gatherSpmv(sh, odd(), odd(), odd()),
		histogram(sh, odd(), odd()),
		scan(sh, odd(), odd()),
		scatterCRCW(sh, odd(), odd()),
	}
	for _, p := range ps {
		p.SharedWords = sh.SharedWords
	}
	return ps
}

// saxpyLoop: ALU work plus disjoint loads and stores, y += (alpha+i)*x.
func saxpyLoop(sh ThickShape, a, c, d, alpha int64) *Program {
	const rounds = 3
	T := int64(sh.Thickness)
	xAddr, yAddr := int64(kernelBase), kernelBase+T
	var b srcBuilder
	b.f("shared int x[%d] @ %d;", T, xAddr)
	b.f("shared int y[%d] @ %d;", T, yAddr)
	b.f("func main() {")
	b.f("    #%d;", T)
	b.f("    x[tid] = ((tid * %d + %d) ^ (tid >> 3)) & 1023;", a, c)
	b.f("    y[tid] = (tid * %d + %d) & 1023;", d, a)
	b.f("    for (int i = 0; i < %d; i += 1) {", rounds)
	b.f("        y[tid] = y[tid] + (%d + i) * x[tid];", alpha)
	b.f("    }")
	b.f("    print(radd(y[tid]));")
	b.f("    #1;")
	b.f("    print(y[0]);")
	b.f("    print(y[%d]);", T-1)
	b.f("}")

	y := make([]int64, T)
	for t := int64(0); t < T; t++ {
		x := ((t*a + c) ^ (t >> 3)) & 1023
		y[t] = (t*d + a) & 1023
		for i := int64(0); i < rounds; i++ {
			y[t] += (alpha + i) * x
		}
	}
	p := &Program{Name: "saxpy-loop", Source: b.String(), WantOutputs: []int64{sum(y), y[0], y[T-1]}}
	p.peek(yAddr, y)
	return p
}

// gatherSpmv: y += A*x for a seeded sparse matrix in padded-row CSR form
// (row r owns [r*K, r*K+len_r) of col and val), so every product is an
// indirect read x[col[...]].
func gatherSpmv(sh ThickShape, a, c, d int64) *Program {
	const K = 2
	T := int64(sh.Thickness)
	colAddr := int64(kernelBase)
	valAddr := colAddr + K*T
	xAddr := valAddr + K*T
	yAddr := xAddr + T
	lenAddr := yAddr + T
	var b srcBuilder
	b.f("shared int col[%d] @ %d;", K*T, colAddr)
	b.f("shared int val[%d] @ %d;", K*T, valAddr)
	b.f("shared int xv[%d] @ %d;", T, xAddr)
	b.f("shared int yv[%d] @ %d;", T, yAddr)
	b.f("shared int rlen[%d] @ %d;", T, lenAddr)
	b.f("func main() {")
	b.f("    #%d;", T)
	b.f("    xv[tid] = ((tid * %d) ^ (tid >> 4)) & 255;", a)
	b.f("    rlen[tid] = 1 + (((tid * %d) >> 3) & %d);", c, K-1)
	b.f("    for (int k = 0; k < %d; k += 1) {", K)
	b.f("        col[tid * %d + k] = ((tid * %d + k * %d + %d) ^ (tid >> 5)) & %d;", K, a, c, d, T-1)
	b.f("        val[tid * %d + k] = ((tid + k) * %d) & 15;", K, d)
	b.f("    }")
	b.f("    thick int acc = 0;")
	b.f("    for (int k = 0; k < %d; k += 1) {", K)
	b.f("        thick int keep = k < rlen[tid];")
	b.f("        acc += val[tid * %d + k] * xv[col[tid * %d + k]] * keep;", K, K)
	b.f("    }")
	b.f("    yv[tid] = yv[tid] + acc;")
	b.f("    print(radd(yv[tid]));")
	b.f("    #1;")
	b.f("    print(yv[0]);")
	b.f("    print(yv[%d]);", T-1)
	b.f("}")

	xv := make([]int64, T)
	for t := int64(0); t < T; t++ {
		xv[t] = ((t * a) ^ (t >> 4)) & 255
	}
	y := make([]int64, T)
	for t := int64(0); t < T; t++ {
		rlen := 1 + (((t * c) >> 3) & (K - 1))
		for k := int64(0); k < K; k++ {
			if k >= rlen {
				continue
			}
			col := ((t*a + k*c + d) ^ (t >> 5)) & (T - 1)
			val := ((t + k) * d) & 15
			y[t] += val * xv[col]
		}
	}
	p := &Program{Name: "gather-spmv", Source: b.String(), WantOutputs: []int64{sum(y), y[0], y[T-1]}}
	p.peek(yAddr, y)
	return p
}

// histogram: every lane adds onto one of 256 bins with the madd
// multioperation, a few references per address per step.
func histogram(sh ThickShape, a, c int64) *Program {
	const rounds, bins = 2, 256
	T := int64(sh.Thickness)
	histAddr := int64(kernelBase)
	dataAddr := histAddr + bins
	var b srcBuilder
	b.f("shared int hist[%d] @ %d;", bins, histAddr)
	b.f("shared int data[%d] @ %d;", T, dataAddr)
	b.f("func main() {")
	b.f("    #%d;", T)
	b.f("    data[tid] = ((tid * %d + %d) ^ (tid >> 6)) & %d;", a, c, bins-1)
	b.f("    for (int i = 0; i < %d; i += 1) {", rounds)
	b.f("        madd(&hist[(data[tid] + i * tid) & %d], 1 + i);", bins-1)
	b.f("    }")
	b.f("    #%d;", bins)
	b.f("    print(radd(hist[tid] * (tid + 1)));")
	b.f("}")

	hist := make([]int64, bins)
	for t := int64(0); t < T; t++ {
		data := ((t*a + c) ^ (t >> 6)) & (bins - 1)
		for i := int64(0); i < rounds; i++ {
			hist[(data+i*t)&(bins-1)] += 1 + i
		}
	}
	var check int64
	for i, h := range hist {
		check += h * int64(i+1)
	}
	p := &Program{Name: "histogram", Source: b.String(), WantOutputs: []int64{check}}
	p.peek(histAddr, hist)
	return p
}

// scan: the ordered multiprefix mpadd onto one word, all lanes on one
// address per step.
func scan(sh ThickShape, a, c int64) *Program {
	const rounds = 3
	T := int64(sh.Thickness)
	srcAddr := int64(kernelBase)
	outAddr := srcAddr + T
	sumAddr := outAddr + T
	var b srcBuilder
	b.f("shared int src[%d] @ %d;", T, srcAddr)
	b.f("shared int out[%d] @ %d;", T, outAddr)
	b.f("shared int total @ %d;", sumAddr)
	b.f("func main() {")
	b.f("    #%d;", T)
	b.f("    src[tid] = ((tid * %d + %d) ^ (tid >> 2)) & 1023;", a, c)
	b.f("    for (int i = 0; i < %d; i += 1) {", rounds)
	b.f("        out[tid] = mpadd(&total, src[tid] + i);")
	b.f("    }")
	b.f("    print(radd(out[tid]));")
	b.f("    #1;")
	b.f("    print(total);")
	b.f("    print(out[%d]);", T-1)
	b.f("}")

	out := make([]int64, T)
	var total int64
	for i := int64(0); i < rounds; i++ {
		for t := int64(0); t < T; t++ {
			out[t] = total
			total += (((t*a + c) ^ (t >> 2)) & 1023) + i
		}
	}
	p := &Program{Name: "scan", Source: b.String(), WantOutputs: []int64{sum(out), total, out[T-1]}}
	p.peek(outAddr, out)
	return p
}

// scatterCRCW: about eight lanes write each address in a step; under the
// machine's Arbitrary policy the lowest lane wins.
func scatterCRCW(sh ThickShape, a, c int64) *Program {
	const rounds = 2
	T := int64(sh.Thickness)
	N := T / 8
	dstAddr := int64(kernelBase)
	var b srcBuilder
	b.f("shared int dst[%d] @ %d;", N, dstAddr)
	b.f("func main() {")
	b.f("    #%d;", T)
	b.f("    for (int i = 0; i < %d; i += 1) {", rounds)
	b.f("        dst[((tid * %d + i * %d) ^ (tid >> 4)) & %d] = tid * 3 + i;", a, c, N-1)
	b.f("    }")
	b.f("    #%d;", N)
	b.f("    print(radd(dst[tid]));")
	b.f("}")

	dst := make([]int64, N)
	for i := int64(0); i < rounds; i++ {
		for t := T - 1; t >= 0; t-- { // descending, so the lowest lane's write lands last
			dst[((t*a+i*c)^(t>>4))&(N-1)] = t*3 + i
		}
	}
	p := &Program{Name: "scatter-crcw", Source: b.String(), Discipline: "crcw", WantOutputs: []int64{sum(dst)}}
	p.peek(dstAddr, dst)
	return p
}

// FlowKernels returns the five engine-flows kernels for a seed: many thin
// flows and many steps, few lanes.
func FlowKernels(seed int64, sh FlowShape) []*Program {
	r := newRand(seed, "flows")
	odd := func() int64 { return int64(r.Intn(1<<10))*2 + 1 }
	return []*Program{
		multitask(sh.Tasks, odd()),
		splitJoinTree(sh.TreeDepth, odd()),
		barrierRing(sh.RingRounds, odd()),
		numaChain(sh.ChainIters, odd()),
		thinLoop(sh.LoopIters, odd()),
	}
}

// multitask: tasks flows of thickness 4 rotate through the 16 slots of the
// TCF storage buffers. The kernel keeps its fixed name; the flow count is in
// the shape.
func multitask(tasks int, c int64) *Program {
	const thick = 4
	n := int64(tasks * thick)
	resAddr := int64(kernelBase)
	var b srcBuilder
	b.f("shared int results[%d] @ %d;", n, resAddr)
	b.f("func main() {")
	b.f("    parallel {")
	for i := 0; i < tasks; i += 8 {
		b.WriteString("       ")
		for j := i; j < i+8 && j < tasks; j++ {
			b.WriteString(" #4: work();")
		}
		b.WriteByte('\n')
	}
	b.f("    }")
	b.f("    #%d;", n)
	b.f("    print(radd(results[tid]));")
	b.f("}")
	b.f("func work() {")
	b.f("    thick int slot = (fid - 1) * %d + tid;", thick)
	b.f("    results[slot] = fid * %d + tid;", c)
	b.f("    results[slot] = results[slot] * 3 + 1;")
	b.f("}")

	res := make([]int64, n)
	for task := int64(0); task < int64(tasks); task++ {
		fid := task + 1 // children are numbered from 1 in arm order
		for t := int64(0); t < thick; t++ {
			res[task*thick+t] = (fid*c+t)*3 + 1
		}
	}
	p := &Program{Name: "multitask-2048x4", Source: b.String(), WantOutputs: []int64{sum(res)}}
	p.peek(resAddr, res)
	return p
}

// splitJoinTree: a binary tree of nested parallel statements; every inner
// node stamps its word before it splits and every leaf stamps its own.
func splitJoinTree(depth int, c int64) *Program {
	nodes := int64(1)<<(depth+1) - 1
	treeAddr := int64(kernelBase)
	tree := make([]int64, nodes)
	var b srcBuilder
	b.f("shared int tree[%d] @ %d;", nodes, treeAddr)
	b.f("func main() {")
	var emit func(node int64, level int, indent string)
	emit = func(node int64, level int, indent string) {
		tree[node] = node*c + int64(level)
		b.f("%stree[%d] = %d * %d + %d;", indent, node, node, c, level)
		if level == depth {
			return
		}
		b.f("%sparallel {", indent)
		for _, child := range []int64{2*node + 1, 2*node + 2} {
			b.f("%s    #1: {", indent)
			emit(child, level+1, indent+"        ")
			b.f("%s    }", indent)
		}
		b.f("%s}", indent)
	}
	emit(0, 0, "    ")
	b.f("    #%d;", nodes)
	b.f("    print(radd(tree[tid]));")
	b.f("}")
	p := &Program{Name: "splitjoin-tree", Source: b.String(), WantOutputs: []int64{sum(tree)}}
	p.peek(treeAddr, tree)
	return p
}

// barrierRing: 16 flows pass values round a ring, two barriers per round.
func barrierRing(rounds int, c int64) *Program {
	const flows = 16
	ringAddr := int64(kernelBase)
	seenAddr := ringAddr + flows
	var b srcBuilder
	b.f("shared int ring[%d] @ %d;", flows, ringAddr)
	b.f("shared int seen[%d] @ %d;", flows, seenAddr)
	b.f("func main() {")
	b.f("    parallel {")
	for i := 0; i < flows; i++ {
		b.f("        #1: node();")
	}
	b.f("    }")
	b.f("    #%d;", flows)
	b.f("    print(radd(seen[tid] * (tid + 1)));")
	b.f("}")
	b.f("func node() {")
	b.f("    int me = fid - 1;")
	b.f("    int acc = 0;")
	b.f("    for (int r = 0; r < %d; r += 1) {", rounds)
	b.f("        ring[(me + 1) & %d] = me * %d + r;", flows-1, c)
	b.f("        barrier;")
	b.f("        acc += ring[me];")
	b.f("        barrier;")
	b.f("    }")
	b.f("    seen[me] = acc;")
	b.f("}")

	seen := make([]int64, flows)
	var check int64
	for me := int64(0); me < flows; me++ {
		from := (me + flows - 1) & (flows - 1)
		for r := int64(0); r < int64(rounds); r++ {
			seen[me] += from*c + r
		}
		check += seen[me] * (me + 1)
	}
	p := &Program{Name: "barrier-ring", Source: b.String(), WantOutputs: []int64{check}}
	p.peek(seenAddr, seen)
	return p
}

// numaChain: low-TLP sequential code under the NUMA statement #1/8.
func numaChain(iters int, c int64) *Program {
	var b srcBuilder
	b.f("func main() {")
	b.f("    #1/8;")
	b.f("    int acc = %d;", c)
	b.f("    for (int i = 0; i < %d; i += 1) {", iters)
	b.f("        acc = (acc * 31 + i) & 1048575;")
	b.f("    }")
	b.f("    print(acc);")
	b.f("}")
	acc := c
	for i := int64(0); i < int64(iters); i++ {
		acc = (acc*31 + i) & 1048575
	}
	return &Program{Name: "numa-chain", Source: b.String(), WantOutputs: []int64{acc}}
}

// ScalarLoop is a sequential loop with no thickness, NUMA or parallel
// statement: the one shape of program all six execution variants accept
// (the thread-based ones run it once per thread), so the variant probe
// always has something to time.
func ScalarLoop(seed int64, iters int) *Program {
	c := int64(newRand(seed, "scalar").Intn(1<<10))*2 + 1
	var b srcBuilder
	b.f("func main() {")
	b.f("    int acc = %d;", c)
	b.f("    for (int i = 0; i < %d; i += 1) {", iters)
	b.f("        acc = (acc * 29 + i) & 1048575;")
	b.f("    }")
	b.f("    print(acc);")
	b.f("}")
	acc := c
	for i := int64(0); i < int64(iters); i++ {
		acc = (acc*29 + i) & 1048575
	}
	return &Program{Name: "scalar-loop", Source: b.String(), WantOutputs: []int64{acc}, PerThread: true}
}

// thinLoop: a long loop at thickness 16, where per-step fixed cost
// outweighs lane work.
func thinLoop(iters int, c int64) *Program {
	const thick = 16
	outAddr := int64(kernelBase)
	var b srcBuilder
	b.f("shared int out[%d] @ %d;", thick, outAddr)
	b.f("func main() {")
	b.f("    #%d;", thick)
	b.f("    thick int v = tid + %d;", c)
	b.f("    for (int i = 0; i < %d; i += 1) {", iters)
	b.f("        v = (v * 5 + i) & 65535;")
	b.f("    }")
	b.f("    out[tid] = v;")
	b.f("    print(radd(v));")
	b.f("}")
	out := make([]int64, thick)
	for t := int64(0); t < thick; t++ {
		v := t + c
		for i := int64(0); i < int64(iters); i++ {
			v = (v*5 + i) & 65535
		}
		out[t] = v
	}
	p := &Program{Name: "thin-loop", Source: b.String(), WantOutputs: []int64{sum(out)}}
	p.peek(outAddr, out)
	return p
}
