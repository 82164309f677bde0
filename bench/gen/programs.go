package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// The generated programs work on a fixed set of small shared arrays and
// combining words, so every index a template writes is in range by
// construction and the vet gate has nothing to reject.
const (
	numArrays = 6
	arrayLen  = 32 // also the largest thickness a generated program sets
	numWords  = 3
	arrayBase = 1024
	wordBase  = 960
)

func arrayAddr(a int) int64 { return arrayBase + int64(a)*arrayLen }

// model is the reference state of a generated program: what its memory
// holds and what it has printed, advanced by the same templates that emit
// the source.
type model struct {
	arr   [numArrays][arrayLen]int64
	word  [numWords]int64
	acc   int64 // the flow-common scalar every function body declares
	thick int
	out   []int64
}

func (m *model) clone() *model {
	c := *m
	c.out = append([]int64(nil), m.out...)
	return &c
}

// scope is where a template may read and write. Top-level code owns every
// array and may change thickness; a parallel arm owns lanes
// [lo, lo+thick) of the dst arrays and reads the src arrays, which no
// sibling arm writes, so arms never depend on each other's timing.
type scope struct {
	thick  int
	lo     int
	dst    []int
	src    []int
	top    bool
	indent string
}

// topScope is the scope of a function body: every array readable and
// writable.
func topScope() scope {
	all := []int{0, 1, 2, 3, 4, 5}
	return scope{top: true, indent: "    ", dst: all, src: all}
}

// laneFn evaluates a generated expression for one lane against the model.
type laneFn func(m *model, tid int) int64

// Generator produces an endless, seed-determined stream of distinct
// programs.
type Generator struct {
	r     *rand.Rand
	label string
	n     int
	lines []string

	// helpers of the program being generated
	scalarFns []scalarFn
	thickFns  []thickFn
}

type scalarFn struct {
	name string
	eval func(x, y int64) int64
}

type thickFn struct {
	name  string
	apply func(m *model)
}

// NewGenerator returns the program stream of a seed; streams with
// different labels are independent.
func NewGenerator(seed int64, stream string) *Generator {
	return &Generator{r: newRand(seed, "programs/"+stream), label: stream}
}

func (g *Generator) emit(indent, format string, args ...any) {
	g.lines = append(g.lines, indent+fmt.Sprintf(format, args...))
}

func (g *Generator) pick(xs []int) int { return xs[g.r.Intn(len(xs))] }

// Next generates the next program: 150–300 lines with several functions,
// switch, nested parallel, multiprefix and multioperations, thickness at
// most 32, most of its text on paths the run does not take so that
// compiling it costs far more than running it.
func (g *Generator) Next() *Program {
	g.n++
	for {
		// A draw outside the size range is thrown away; the next one
		// continues the same random sequence, so the stream stays a
		// function of the seed.
		if p := g.build(); len(g.lines) >= 150 && len(g.lines) <= 300 {
			return p
		}
	}
}

func (g *Generator) build() *Program {
	g.lines = g.lines[:0]
	g.scalarFns = g.scalarFns[:0]
	g.thickFns = g.thickFns[:0]
	m := &model{thick: 1}

	for a := 0; a < numArrays; a++ {
		if a < 3 {
			vals := make([]string, arrayLen)
			for i := range vals {
				m.arr[a][i] = int64(g.r.Intn(1000))
				vals[i] = fmt.Sprint(m.arr[a][i])
			}
			g.emit("", "shared int a%d[%d] @ %d = {%s};", a, arrayLen, arrayAddr(a), strings.Join(vals, ", "))
		} else {
			g.emit("", "shared int a%d[%d] @ %d;", a, arrayLen, arrayAddr(a))
		}
	}
	for w := 0; w < numWords; w++ {
		m.word[w] = int64(g.r.Intn(50))
		g.emit("", "shared int w%d @ %d = %d;", w, wordBase+w, m.word[w])
	}

	g.helpers()

	g.emit("", "func main() {")
	m.acc = int64(g.r.Intn(100))
	g.emit("    ", "int acc = %d;", m.acc)
	// One loop counter per function: the compiler gives every declared
	// variable a register for the whole function, and there are 16.
	g.emit("    ", "int i;")
	top := topScope()
	g.setThick(m, &top)
	for i, n := 0, 3+g.r.Intn(3); i < n; i++ {
		g.block(m, &top, 0)
	}
	g.switchBlock(m, &top)
	g.parallelBlock(m, &top, 0)
	for i, n := 0, 2+g.r.Intn(2); i < n; i++ {
		g.block(m, &top, 0)
	}
	g.emit("    ", "print(acc);")
	m.out = append(m.out, m.acc)
	g.emit("", "}")

	// Functions no call reaches: compiled and vetted, never run.
	for d := 0; d < 2; d++ {
		g.deadFunc(d, m)
	}

	p := &Program{
		Name:        fmt.Sprintf("gen-%s-%d", g.label, g.n),
		Source:      strings.Join(g.lines, "\n") + "\n",
		WantOutputs: m.out,
	}
	for a := 0; a < numArrays; a++ {
		p.peek(arrayAddr(a), m.arr[a][:])
	}
	p.peek(wordBase, m.word[:])
	return p
}

// helpers emits the functions main calls: two scalar ones and two thick
// ones, with their reference semantics.
func (g *Generator) helpers() {
	for i := 0; i < 2; i++ {
		c1, c2, sh := int64(g.r.Intn(50)+3), int64(g.r.Intn(500)), int64(g.r.Intn(4)+1)
		name := fmt.Sprintf("h%d", i)
		g.emit("", "func %s(x, y) {", name)
		g.emit("    ", "int t = x * %d + y + %d;", c1, c2)
		g.emit("    ", "return (t ^ (t >> %d)) & 4095;", sh)
		g.emit("", "}")
		g.scalarFns = append(g.scalarFns, scalarFn{name: name, eval: func(x, y int64) int64 {
			t := x*c1 + y + c2
			return (t ^ (t >> sh)) & 4095
		}})
	}
	for i := 0; i < 2; i++ {
		d, s := g.r.Intn(numArrays), g.r.Intn(numArrays)
		c := int64(g.r.Intn(9) + 2)
		name := fmt.Sprintf("k%d", i)
		g.emit("", "func %s() {", name)
		g.emit("    ", "thick int v = a%d[tid] * %d + tid;", s, c)
		g.emit("    ", "a%d[tid] = (a%d[tid] + v) & 65535;", d, d)
		g.emit("", "}")
		g.thickFns = append(g.thickFns, thickFn{name: name, apply: func(m *model) {
			var v [arrayLen]int64
			for t := 0; t < m.thick; t++ {
				v[t] = m.arr[s][t]*c + int64(t)
			}
			for t := 0; t < m.thick; t++ {
				m.arr[d][t] = (m.arr[d][t] + v[t]) & 65535
			}
		}})
	}
}

// deadFunc emits a function nothing calls, built from the same templates
// as main on a throw-away copy of the model.
func (g *Generator) deadFunc(d int, live *model) {
	m := live.clone()
	g.emit("", "func d%d(x) {", d)
	g.emit("    ", "int acc = x;")
	g.emit("    ", "int i;")
	sc := topScope()
	g.setThick(m, &sc)
	for i, n := 0, 3+g.r.Intn(3); i < n; i++ {
		g.block(m, &sc, 1)
	}
	if g.r.Intn(2) == 0 {
		g.parallelBlock(m, &sc, 1)
	}
	g.emit("    ", "return acc;")
	g.emit("", "}")
}

func (g *Generator) setThick(m *model, sc *scope) {
	t := g.pick([]int{4, 8, 16, 32})
	g.emit(sc.indent, "#%d;", t)
	m.thick, sc.thick = t, t
	sc.lo = 0
}

// block emits one randomly chosen template. depth bounds nesting.
func (g *Generator) block(m *model, sc *scope, depth int) {
	if !sc.top {
		switch g.r.Intn(3) {
		case 0:
			g.loopBlock(m, sc)
		default:
			g.mapBlock(m, sc)
		}
		return
	}
	switch g.r.Intn(12) {
	case 0:
		g.setThick(m, sc)
		g.mapBlock(m, sc)
	case 1, 2:
		g.mapBlock(m, sc)
	case 3:
		g.loopBlock(m, sc)
	case 4:
		g.scanBlock(m, sc)
	case 5:
		g.multiopBlock(m, sc)
	case 6:
		g.reduceBlock(m, sc)
	case 7:
		g.callBlock(m, sc)
	case 8:
		g.numaBlock(m, sc)
	case 9:
		if depth < 2 {
			g.ifBlock(m, sc, depth)
		} else {
			g.mapBlock(m, sc)
		}
	case 10:
		if depth < 1 {
			g.parallelBlock(m, sc, depth)
		} else {
			g.reduceBlock(m, sc)
		}
	case 11:
		a, i := g.r.Intn(numArrays), g.r.Intn(arrayLen)
		g.emit(sc.indent, "print(a%d[%d]);", a, i)
		m.out = append(m.out, m.arr[a][i])
	}
}

// expr builds a random thick expression over the scope's readable arrays,
// tid, acc and constants, with its evaluator.
func (g *Generator) expr(sc *scope, depth int) (string, laneFn) {
	if depth == 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return "tid", func(_ *model, tid int) int64 { return int64(tid) }
		case 1:
			c := int64(g.r.Intn(200))
			return fmt.Sprint(c), func(*model, int) int64 { return c }
		case 2:
			return "acc", func(m *model, _ int) int64 { return m.acc }
		default:
			if len(sc.src) > 0 && g.r.Intn(2) == 0 {
				// Any lane of an array no sibling writes.
				a, k := g.pick(sc.src), g.r.Intn(arrayLen)
				return fmt.Sprintf("a%d[(tid + %d) & %d]", a, k, arrayLen-1),
					func(m *model, tid int) int64 { return m.arr[a][(tid+k)&(arrayLen-1)] }
			}
			a, lo := g.pick(sc.dst), sc.lo
			if lo == 0 {
				return fmt.Sprintf("a%d[tid]", a), func(m *model, tid int) int64 { return m.arr[a][tid] }
			}
			return fmt.Sprintf("a%d[tid + %d]", a, lo), func(m *model, tid int) int64 { return m.arr[a][tid+lo] }
		}
	}
	ls, lf := g.expr(sc, depth-1)
	switch op := g.r.Intn(10); op {
	case 0, 1, 2, 3, 4, 5:
		rs, rf := g.expr(sc, depth-1)
		sym := []string{"+", "-", "*", "&", "|", "^"}[op]
		return fmt.Sprintf("(%s %s %s)", ls, sym, rs), func(m *model, tid int) int64 {
			a, b := lf(m, tid), rf(m, tid)
			switch op {
			case 0:
				return a + b
			case 1:
				return a - b
			case 2:
				return a * b
			case 3:
				return a & b
			case 4:
				return a | b
			}
			return a ^ b
		}
	case 6:
		k := int64(g.r.Intn(5) + 1)
		return fmt.Sprintf("(%s >> %d)", ls, k), func(m *model, tid int) int64 { return lf(m, tid) >> k }
	case 7:
		k := int64(g.r.Intn(9) + 2)
		return fmt.Sprintf("(%s / %d)", ls, k), func(m *model, tid int) int64 { return lf(m, tid) / k }
	case 8:
		k := int64(g.r.Intn(9) + 2)
		return fmt.Sprintf("(%s %% %d)", ls, k), func(m *model, tid int) int64 { return lf(m, tid) % k }
	default:
		rs, rf := g.expr(sc, depth-1)
		return fmt.Sprintf("(%s < %s)", ls, rs), func(m *model, tid int) int64 {
			if lf(m, tid) < rf(m, tid) {
				return 1
			}
			return 0
		}
	}
}

// store applies aD[tid+lo] = f(tid) for the scope's lanes, reading the
// whole pre-store state first as the machine's step does.
func store(m *model, sc *scope, d int, f laneFn) {
	var v [arrayLen]int64
	for t := 0; t < sc.thick; t++ {
		v[t] = f(m, t)
	}
	copy(m.arr[d][sc.lo:sc.lo+sc.thick], v[:sc.thick])
}

func (sc *scope) lane() string {
	if sc.lo == 0 {
		return "tid"
	}
	return fmt.Sprintf("tid + %d", sc.lo)
}

func (g *Generator) mapBlock(m *model, sc *scope) {
	d := g.pick(sc.dst)
	es, ef := g.expr(sc, 3)
	g.emit(sc.indent, "a%d[%s] = %s & 65535;", d, sc.lane(), es)
	store(m, sc, d, func(m *model, tid int) int64 { return ef(m, tid) & 65535 })
}

func (g *Generator) loopBlock(m *model, sc *scope) {
	d := g.pick(sc.dst)
	n := g.r.Intn(2) + 2
	es, ef := g.expr(sc, 2)
	g.emit(sc.indent, "for (i = 0; i < %d; i += 1) {", n)
	g.emit(sc.indent, "    a%d[%s] = (a%d[%s] + %s + i) & 65535;", d, sc.lane(), d, sc.lane(), es)
	g.emit(sc.indent, "}")
	for i := 0; i < n; i++ {
		store(m, sc, d, func(m *model, tid int) int64 {
			return (m.arr[d][tid+sc.lo] + ef(m, tid) + int64(i)) & 65535
		})
	}
}

// combine is the reference of the machine's five combining operators.
func combine(kind string, a, b int64) int64 {
	switch kind {
	case "add":
		return a + b
	case "and":
		return a & b
	case "or":
		return a | b
	case "max":
		return max(a, b)
	}
	return min(a, b)
}

var combineKinds = []string{"add", "and", "or", "max", "min"}

// scanBlock: an ordered multiprefix onto one combining word.
func (g *Generator) scanBlock(m *model, sc *scope) {
	kind := combineKinds[g.r.Intn(len(combineKinds))]
	w, d, s := g.r.Intn(numWords), g.pick(sc.dst), g.pick(sc.dst)
	g.emit(sc.indent, "a%d[tid] = mp%s(&w%d, a%d[tid] & 255);", d, kind, w, s)
	var v [arrayLen]int64
	run := m.word[w]
	for t := 0; t < sc.thick; t++ {
		v[t] = run
		run = combine(kind, run, m.arr[s][t]&255)
	}
	m.word[w] = run
	copy(m.arr[d][:sc.thick], v[:sc.thick])
}

// multiopBlock: lanes combine onto a few data-selected words.
func (g *Generator) multiopBlock(m *model, sc *scope) {
	kind := combineKinds[g.r.Intn(len(combineKinds))]
	d, s := g.r.Intn(numArrays), g.r.Intn(numArrays)
	for d == s {
		s = g.r.Intn(numArrays)
	}
	g.emit(sc.indent, "m%s(&a%d[a%d[tid] & 7], tid + 1);", kind, d, s)
	for t := 0; t < sc.thick; t++ {
		i := m.arr[s][t] & 7
		m.arr[d][i] = combine(kind, m.arr[d][i], int64(t)+1)
	}
}

func (g *Generator) reduceBlock(m *model, sc *scope) {
	kind := []string{"add", "max", "min"}[g.r.Intn(3)]
	es, ef := g.expr(sc, 2)
	g.emit(sc.indent, "acc = r%s((%s + tid) & 1023);", kind, es)
	g.emit(sc.indent, "print(acc);")
	acc := ef(m, 0) & 1023
	for t := 1; t < sc.thick; t++ {
		acc = combine(kind, acc, (ef(m, t)+int64(t))&1023)
	}
	m.acc = acc
	m.out = append(m.out, acc)
}

func (g *Generator) callBlock(m *model, sc *scope) {
	if g.r.Intn(2) == 0 {
		f := g.scalarFns[g.r.Intn(len(g.scalarFns))]
		c := int64(g.r.Intn(100))
		g.emit(sc.indent, "acc = %s(acc, %d);", f.name, c)
		g.emit(sc.indent, "print(acc);")
		m.acc = f.eval(m.acc, c)
		m.out = append(m.out, m.acc)
		return
	}
	f := g.thickFns[g.r.Intn(len(g.thickFns))]
	g.emit(sc.indent, "%s();", f.name)
	f.apply(m)
}

// numaBlock: a short sequential stretch under the NUMA statement, then
// back to the thickness it left.
func (g *Generator) numaBlock(m *model, sc *scope) {
	bunch := g.pick([]int{2, 4, 8})
	g.emit(sc.indent, "#1/%d;", bunch)
	for i, n := 0, 2+g.r.Intn(3); i < n; i++ {
		c1, c2 := int64(g.r.Intn(7)+2), int64(g.r.Intn(100))
		g.emit(sc.indent, "acc = (acc * %d + %d) & 4095;", c1, c2)
		m.acc = (m.acc*c1 + c2) & 4095
	}
	g.emit(sc.indent, "print(acc);")
	m.out = append(m.out, m.acc)
	g.emit(sc.indent, "#%d;", sc.thick)
}

// nested emits n blocks one level deeper, on m.
func (g *Generator) nested(m *model, sc *scope, depth, n int) {
	inner := *sc
	inner.indent += "    "
	for i := 0; i < n; i++ {
		g.block(m, &inner, depth+1)
	}
	// A nested block may have changed thickness; the text that follows
	// runs at whatever the taken path left, so every path restores it.
	if inner.thick != sc.thick {
		g.emit(inner.indent, "#%d;", sc.thick)
		m.thick = sc.thick
	}
}

func (g *Generator) ifBlock(m *model, sc *scope, depth int) {
	bit := int64(1) << g.r.Intn(3)
	taken := m.acc&bit != 0
	arm := func(live bool) {
		mm := m
		if !live {
			mm = m.clone()
		}
		g.nested(mm, sc, depth, 2+g.r.Intn(3))
	}
	g.emit(sc.indent, "if (acc & %d) {", bit)
	arm(taken)
	g.emit(sc.indent, "} else {")
	arm(!taken)
	g.emit(sc.indent, "}")
}

// switchBlock: four long arms of which the run takes one.
func (g *Generator) switchBlock(m *model, sc *scope) {
	chosen := int(m.acc & 3)
	g.emit(sc.indent, "switch (acc & 3) {")
	for arm := 0; arm < 4; arm++ {
		if arm < 3 {
			g.emit(sc.indent, "case %d:", arm)
		} else {
			g.emit(sc.indent, "default:")
		}
		mm := m
		if arm != chosen {
			mm = m.clone()
		}
		g.nested(mm, sc, 0, 4+g.r.Intn(4))
	}
	g.emit(sc.indent, "}")
}

// parallelBlock splits the flow into arms that own disjoint lanes of the
// dst arrays; one arm may split again.
func (g *Generator) parallelBlock(m *model, sc *scope, depth int) {
	perm := g.r.Perm(numArrays)
	dst, src := perm[:3], perm[3:]
	arms := g.r.Intn(3) + 2
	width := arrayLen / 4
	g.emit(sc.indent, "parallel {")
	for arm := 0; arm < arms; arm++ {
		as := scope{thick: width, lo: arm * width, dst: dst, src: src, indent: sc.indent + "        "}
		g.emit(sc.indent, "    #%d: {", width)
		for i, n := 0, 2+g.r.Intn(3); i < n; i++ {
			g.block(m, &as, depth+1)
		}
		if arm == 0 && depth == 0 {
			// Nested split: two halves of this arm's lanes.
			half := width / 2
			g.emit(as.indent, "parallel {")
			for h := 0; h < 2; h++ {
				hs := scope{thick: half, lo: as.lo + h*half, dst: dst, src: src, indent: as.indent + "        "}
				g.emit(as.indent, "    #%d: {", half)
				g.block(m, &hs, depth+2)
				g.block(m, &hs, depth+2)
				g.emit(as.indent, "    }")
			}
			g.emit(as.indent, "}")
		}
		g.emit(sc.indent, "    }")
	}
	g.emit(sc.indent, "}")
}
