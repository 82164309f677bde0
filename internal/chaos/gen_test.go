package chaos

// The lattice's generated input: seeded random ISA programs that carry a
// direct Go evaluation of their result, which the oracle of every variant
// they run on is held to.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

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
// last program slots. TestLattice runs genSeeds seeds of each, past fullSeeds
// quick: fault-free, in fresh and, for gen-diff, in step, which holds the
// per-lane state of its thick registers to the oracle's after every step.
var generators = []func(seed int64) entry{genDiffProgram, genNUMADiff}

const genSeeds, fullSeeds = 60, 3

// small is the shared memory of a generated program, which stores below word
// 2 500, as the lattice copies the whole image of every run.
func small(c *machine.Config) { c.SharedWords = 1 << 12 }

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
// and 7; a program without a flow-level reduction (which fragments reject)
// also runs single-instruction auto-split at thickness 4.
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
	hasReduction := false
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
			hasReduction = true
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
	shapes := genShapes([]variant.Kind{variant.SingleInstruction, variant.MultiInstruction}, 1, 3, 7)
	if !hasReduction {
		shapes = append(shapes, shape{name: "single-instruction-autosplit4", kind: variant.SingleInstruction,
			tweak: func(c *machine.Config) { small(c); c.AutoSplitThreshold = 4 }})
	}
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
