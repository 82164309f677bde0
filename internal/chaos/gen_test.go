package chaos

// The lattice's generated input: seeded random programs that carry a direct
// Go evaluation of their result, which the oracle of every variant they run
// on is held to — ISA programs built here, and bench/gen's tcf-e programs,
// which go through the lexer, sema and codegen.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tcfpram/bench/gen"
	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

const (
	diffThickness = 11
	diffInputBase = 1000
	diffOutBase   = 2000
	diffAuxBase   = 900
)

// generators are the seeded program sources of the lattice, FuzzLattice's
// last program slots. TestLattice runs seeds 1 to seeds of each, past full
// quick: in fresh and, for gen-diff, in step, which holds the
// per-lane state of its thick registers to the oracle's after every step;
// gen-tcfe's programs, about a thousand instructions each, in admitted, a
// fresh run as tcfserve admits it.
var generators = []struct {
	build       func(seed int64) entry
	seeds, full int64
}{{genDiffProgram, genSeeds, 3}, {genNUMADiff, genSeeds, 3}, {genTCFE, tcfeSeeds, 1}}

// genSeeds is the most seeds any generator runs; gen-tcfe runs fewer, its
// programs being forty times longer.
const genSeeds, tcfeSeeds = 60, 40

// small is the shared memory of a generated program, which stores below word
// 2 500, as the lattice copies the whole image of every run.
func small(c *machine.Config) { c.SharedWords = 1 << 12 }

// autoSplit4 is single-instruction auto-splitting flows thicker than 4.
var autoSplit4 = shape{name: "single-instruction-autosplit4", kind: variant.SingleInstruction,
	tweak: func(c *machine.Config) { small(c); c.AutoSplitThreshold = 4 }}

// autoSplits are the three TCF variants, each changed by tweak, auto-splitting
// flows thicker than 4, 8 and 16, in fresh and admitted only: relate holds
// each to its variant's unsplit shape, named as it is up to "-autosplit".
func autoSplits(tweak func(*machine.Config)) []shape {
	var ss []shape
	for _, n := range []int{4, 8, 16} {
		for _, s := range on(tcfKinds, tweak) {
			s.name, s.quick = fmt.Sprintf("%s-autosplit%d", s.name, n), []string{"fresh", "admitted"}
			s.tweak = func(c *machine.Config) {
				if tweak != nil {
					tweak(c)
				}
				c.AutoSplitThreshold = n
			}
			ss = append(ss, s)
		}
	}
	return ss
}

// splitPrograms run under the CREW checker on the TCF variants, unsplit and
// on autoSplits. They are the ways a fragment used to lose part of its flow —
// the lanes it should start with, the lanes it should hand back, the call it
// runs in — or to do twice what the flow does once, and siblings that wait
// for queued ones.
var splitPrograms = []struct{ name, src string }{
	{"lanes-into-fragments", `
shared int a[16] @ 1024;
func main() {
    #4;
    thick int v = tid + 100;
    #16;
    a[tid] = v;
}`},
	{"lanes-out-of-fragments", `
shared int a[16] @ 1024;
func main() {
    #16;
    thick int v = tid + 100;
    #4;
    a[tid] = v;
}`},
	{"split-in-a-call", `
shared int a[16] @ 1024;
shared int done @ 1100;
func fill() {
    #16;
    a[tid] = tid + 1;
}
func main() {
    fill();
    #1;
    done = 7;
    print(done);
}`},
	{"store-once", `
shared int a[16] @ 1024;
shared int done @ 1100;
func main() {
    #16;
    a[tid] = tid;
    done = 7;
    a[tid] = a[tid] + done;
}`},
	{"queued-siblings", `
shared int a[256] @ 1024;
shared int b[256] @ 2048;
func main() {
    #256;
    a[tid] = tid * 3;
    b[tid] = a[(tid + 1) % 256] + a[(tid + 255) % 256];
    a[tid] = b[(tid * 7) % 256];
    #1;
    print(radd(a[tid]));
}`},
}

// genShapes are the machines a generated program runs on: kinds, and
// Balanced once per bound.
func genShapes(kinds []variant.Kind, bounds ...int) []shape {
	ss := on(kinds, small)
	for _, n := range bounds {
		ss = append(ss, shape{name: fmt.Sprintf("balanced-%d", n), kind: variant.Balanced,
			tweak: func(c *machine.Config) { small(c); c.BalancedBound = n }})
	}
	return ss
}

// diffEntry turns a generated program and its reference into a lattice entry:
// the words it stores from diffOutBase on must be want, the combining words
// from diffAuxBase on wantAux, and an auto-split shape must split.
func diffEntry(name string, b *isa.Builder, shapes []shape, want, wantAux []int64) entry {
	prog := b.MustBuild()
	ref := append(want, wantAux...)
	return entry{name: name, c: &codegen.Compiled{Program: prog}, shapes: shapes,
		check: func(m *machine.Machine) error {
			if got := append(m.Shared().Snapshot(diffOutBase, len(want)), m.Shared().Snapshot(diffAuxBase, len(wantAux))...); !slices.Equal(got, ref) {
				return fmt.Errorf("stored %v, the Go reference %v\n%s", got, ref, prog.Listing())
			}
			if m.Config().AutoSplitThreshold > 0 && m.Stats().AutoSplits == 0 {
				return errors.New("the auto-split shape never split")
			}
			return nil
		}}
}

// genDiffProgram builds a race-free random program: a single flow of fixed
// thickness computing on vector registers V1..V5 and scalars S1..S2, with
// loads from a random input array, occasional reductions and multiprefixes,
// and stores to disjoint per-lane addresses. Balanced runs it at bounds 1, 3
// and 7, and single-instruction auto-splits it at thickness 4.
func genDiffProgram(seed int64) entry {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("diff")
	b.Label("main")
	b.SetThickImm(diffThickness)
	b.Id(isa.TID, isa.V(0))
	input := make([]int64, diffThickness)
	for i := range input {
		input[i] = int64(rng.Intn(41) - 20)
	}
	b.Data(diffInputBase, input...)

	// The reference: V0..V5 lane by lane, S0..S2 (S0 unused), and the words
	// the stores and multiprefixes leave.
	var vregs [6][]int64
	for r := range vregs {
		vregs[r] = make([]int64, diffThickness)
	}
	each := func(d int, f func(i int) int64) {
		for i := range vregs[d] {
			vregs[d][i] = f(i)
		}
	}
	each(0, func(i int) int64 { return int64(i) })
	var sregs [3]int64
	var want, wantAux []int64
	store := func(v int) { // to the next disjoint per-lane region
		b.St(isa.V(0), int64(diffOutBase+len(want)), isa.V(v))
		want = append(want, vregs[v]...)
	}
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.MIN, isa.MAX, isa.SLT, isa.SGT, isa.SEQ}
	for range 5 + rng.Intn(25) {
		switch rng.Intn(10) {
		case 0: // load from input, indexed by V0 (race-free)
			d := 1 + rng.Intn(5)
			b.Ld(isa.V(d), isa.V(0), diffInputBase)
			copy(vregs[d], input)
		case 1: // LDI broadcast
			d, imm := 1+rng.Intn(5), int64(rng.Intn(21)-10)
			b.Ldi(isa.V(d), imm)
			each(d, func(int) int64 { return imm })
		case 2: // reduction into a scalar
			sd, sr := 1+rng.Intn(2), 1+rng.Intn(5)
			b.Reduce(isa.RADD, isa.S(sd), isa.V(sr))
			sregs[sd] = 0
			for _, x := range vregs[sr] {
				sregs[sd] += x
			}
		case 3: // ALU with scalar operand (broadcast)
			op, d, a, sr := aluOps[rng.Intn(len(aluOps))], 1+rng.Intn(5), rng.Intn(6), 1+rng.Intn(2)
			b.ALU(op, isa.V(d), isa.V(a), isa.S(sr))
			each(d, func(i int) int64 { return isa.Eval(op, vregs[a][i], sregs[sr]) })
		case 4: // SEL
			d, c, x, y := 1+rng.Intn(5), rng.Intn(6), rng.Intn(6), rng.Intn(6)
			b.Sel(isa.V(d), isa.V(c), isa.V(x), isa.V(y))
			each(d, func(i int) int64 {
				if vregs[c][i] != 0 {
					return vregs[x][i]
				}
				return vregs[y][i]
			})
		case 5: // multiprefix over a fresh aux word
			d, v := 1+rng.Intn(5), rng.Intn(6)
			b.Prefix(isa.MPADD, isa.V(d), isa.RegNone, int64(diffAuxBase+len(wantAux)), isa.V(v))
			acc := int64(0)
			each(d, func(i int) int64 {
				acc += vregs[v][i]
				return acc - vregs[v][i]
			})
			wantAux = append(wantAux, acc)
		case 6:
			store(rng.Intn(6))
		default: // plain vector ALU with immediate
			op, d, a, imm := aluOps[rng.Intn(len(aluOps))], 1+rng.Intn(5), rng.Intn(6), int64(rng.Intn(11)-5)
			b.ALUI(op, isa.V(d), isa.V(a), imm)
			each(d, func(i int) int64 { return isa.Eval(op, vregs[a][i], imm) })
		}
	}
	store(rng.Intn(6)) // so that every program stores something
	b.Halt()
	shapes := append(genShapes([]variant.Kind{variant.SingleInstruction, variant.MultiInstruction}, 1, 3, 7), autoSplit4)
	e := diffEntry(fmt.Sprintf("gen-diff-%d", seed), b, shapes, want, wantAux)
	e.quick = []string{"fresh", "step"}
	return e
}

// genNUMADiff builds a random NUMA-mode sequential program (bunch length
// drawn per seed) exercising store-to-load forwarding and bunch boundaries,
// with its sequential reference; Balanced runs it at bounds 1, 2 and 5.
func genNUMADiff(seed int64) entry {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("numadiff")
	b.Label("main")
	b.NumaImm(int64(1 + rng.Intn(9)))
	var sregs [4]int64
	memRef := map[int64]int64{}
	var want []int64
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.MIN, isa.MAX}
	for range 8 + rng.Intn(30) {
		switch rng.Intn(6) {
		case 0: // LDI
			d, v := 1+rng.Intn(3), int64(rng.Intn(31)-15)
			b.Ldi(isa.S(d), v)
			sregs[d] = v
		case 1: // store to a small shared region
			a, r := int64(diffAuxBase+rng.Intn(4)), 1+rng.Intn(3)
			b.St(isa.RegNone, a, isa.S(r))
			memRef[a] = sregs[r]
		case 2: // load back (forwarding within the bunch must hold)
			a, d := int64(diffAuxBase+rng.Intn(4)), 1+rng.Intn(3)
			b.Ld(isa.S(d), isa.RegNone, a)
			sregs[d] = memRef[a]
		case 3: // spill a result to the output region
			r := 1 + rng.Intn(3)
			b.St(isa.RegNone, int64(diffOutBase+len(want)), isa.S(r))
			want = append(want, sregs[r])
		default: // ALU
			op, d, a, imm := ops[rng.Intn(len(ops))], 1+rng.Intn(3), 1+rng.Intn(3), int64(rng.Intn(9)-4)
			b.ALUI(op, isa.S(d), isa.S(a), imm)
			sregs[d] = isa.Eval(op, sregs[a], imm)
		}
	}
	b.Op(isa.PRAM)
	b.Halt()
	kinds := []variant.Kind{variant.SingleInstruction, variant.MultiInstruction, variant.ConfigurableSingleOperation}
	e := diffEntry(fmt.Sprintf("gen-numa-%d", seed), b, genShapes(kinds, 1, 2, 5), want, nil)
	// The Go reference holds only the output region, whose words are stored
	// once; the words the bunch stores over and reloads are relate's: every
	// variant must leave the last store in them.
	e.quick = []string{"fresh"}
	return e
}

// genTCFE takes the first program of bench/gen's stream for seed: 150 to 300
// lines of well-typed tcf-e with helper functions, switch, nested parallel
// statements, multiprefixes, multioperations and thickness changes up to 32.
// It is compiled from source and held to the generator's Go reference, which
// shares no code with the compiler: the values it prints and the words of
// its Peek ranges. It runs on the three TCF variants, on Balanced at bound 3
// and on autoSplits, whose single-instruction shape at 4 runs every row of
// a full seed; the thread variants would stop at its first thickness
// statement.
func genTCFE(seed int64) entry {
	if seed >= 1 && seed <= tcfeSeeds {
		return tcfeEntries()[seed-1]
	}
	return buildTCFE(seed)
}

// tcfeEntries are the gen-tcfe entries of the seeds TestLattice runs, built
// once for it, FuzzLattice and TestGeneratedEntriesEngage: generating and
// compiling them costs as much as running them.
var tcfeEntries = sync.OnceValue(func() (es []entry) {
	for seed := int64(1); seed <= tcfeSeeds; seed++ {
		es = append(es, buildTCFE(seed))
	}
	return es
})

func buildTCFE(seed int64) entry {
	p := gen.NewGenerator(seed, "lattice").Next()
	name := fmt.Sprintf("gen-tcfe-%d", seed) // p.Name is gen-lattice-1 for every seed
	ds, c, err := analysis.AnalyzeAndCompile(name, p.Source, analysis.Options{})
	if c == nil {
		panic(fmt.Sprintf("compile %s: %v %v\n%s", name, err, ds, p.Source))
	}
	shapes := append(genShapes(tcfKinds, 3), autoSplits(small)...)
	shapes[4].quick = nil // single-instruction-autosplit4: every row of a full seed
	return entry{name: name, c: c, shapes: shapes, quick: []string{"admitted"},
		check: func(m *machine.Machine) error {
			return p.Check(printed(m), func(i int) []int64 { return m.Shared().Snapshot(p.Peek[i].Addr, p.Peek[i].N) })
		}}
}

// printed is every value m printed, in order.
func printed(m *machine.Machine) []int64 {
	var vs []int64
	for _, o := range m.Outputs() {
		vs = append(vs, o.Values...)
	}
	return vs
}

// TestGeneratedEntriesEngage: the gen-tcfe entries exercise what they are in
// the lattice for. Across the seeds TestLattice runs, single-instruction
// splits flows and joins them, does multioperations and changes the main
// flow's thickness, each on three quarters of the seeds, and its auto-split
// shapes at thresholds 4, 8 and 16 split on 40, 32 and 19 of them: a
// generator change that empties the programs fails here rather than passing
// every row.
func TestGeneratedEntriesEngage(t *testing.T) {
	var splits, joins, multiops, thickens int
	autoSplits := map[int]int{}
	for seed := int64(1); seed <= tcfeSeeds; seed++ {
		e := genTCFE(seed)
		for _, s := range e.shapes {
			if s.kind != variant.SingleInstruction {
				continue
			}
			cfg := machine.Default(s.kind)
			s.tweak(&cfg)
			m := buildRun(t, e.c, cfg)
			thickened := false
			if _, err := m.RunUntil(context.Background(), func(m *machine.Machine) bool {
				thickened = thickened || m.Flow(0).Thickness != 1
				return false
			}); err != nil {
				t.Fatalf("%s/%s: %v", e.name, s.name, err)
			}
			st := m.Stats()
			if n := cfg.AutoSplitThreshold; n > 0 {
				autoSplits[n] += min(1, int(st.AutoSplits))
				continue
			}
			splits += min(1, int(st.Splits))
			joins += min(1, int(st.Joins))
			multiops += min(1, int(st.MultiopRefs))
			if thickened {
				thickens++
			}
		}
	}
	for what, n := range map[string]int{"split": splits, "join": joins, "multioperation": multiops, "thickness change": thickens} {
		if n < tcfeSeeds*3/4 {
			t.Errorf("a %s on %d of %d seeds, want three quarters", what, n, tcfeSeeds)
		}
	}
	for n, want := range map[int]int{4: 40, 8: 32, 16: 19} {
		if autoSplits[n] != want {
			t.Errorf("threshold %d split on %d seeds, want %d", n, autoSplits[n], want)
		}
	}
}

// saxpyKernel is tcfbench's saxpy-loop at the given thickness, compiled.
func saxpyKernel(tb testing.TB, lanes int) *codegen.Compiled {
	p := gen.ThickKernels(1, gen.ThickShape{Thickness: lanes, SharedWords: 12*lanes + 16384})[0]
	return compileSrc(tb, p.Name, p.Source)
}
