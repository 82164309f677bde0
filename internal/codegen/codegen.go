// Package codegen compiles checked tcf-e programs to the TCF machine ISA.
//
// Register allocation is static: every function gets a frame of scalar (S)
// and thick (V) registers. Frames of callees start after the frames of all
// their callers (the call graph is acyclic — sema rejects recursion), so a
// call never clobbers live caller state and the flow-level call stack only
// needs return addresses, exactly as the machine provides. Expression
// temporaries are stack-allocated within the frame and released as soon as
// they are consumed: every emitted instruction reads all its sources before
// writing any lane, so a result may safely reuse its operands' registers —
// the register pressure of an expression is its depth, not its node count.
package codegen

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"tcfpram/internal/isa"
	"tcfpram/internal/lang"
	"tcfpram/internal/sema"
)

// Compiled is the result of compilation.
type Compiled struct {
	Program *isa.Program
	// Info is the checked program; nil in a load image, which keeps only
	// what a machine loads.
	Info *sema.Info
	// LocalData must be preloaded into every group's local memory before
	// running (initializers of `local` globals).
	LocalData []sema.DataSeg
	// ThickCeiling is the static thickness ceiling the vet gate recorded:
	// 0 when the program did not pass through it, -1 when no flow's
	// thickness could be bounded.
	ThickCeiling int64
}

// Compile type-checks and compiles a parsed program.
func Compile(prog *lang.Program) (*Compiled, error) {
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return CompileChecked(info)
}

// CompileSource parses, checks and compiles tcf-e source.
func CompileSource(name, src string) (*Compiled, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	c.Program.Name = name
	return c, nil
}

// CompileChecked compiles an already-checked program.
//
// Every function is compiled once. Where a function's frame starts in the
// register files depends on the frame sizes of all its callers, and a
// frame's size is known only when the function is compiled; so the code is
// emitted with frame-relative registers (see relS) and, when all sizes and
// with them all frame bases are known, relocated in place.
func CompileChecked(info *sema.Info) (*Compiled, error) {
	buf := instrScratch.Get().(*[]isa.Instr)
	if *buf == nil {
		// A new buffer starts near the size programs come to: about one
		// instruction for every two AST nodes.
		*buf = make([]isa.Instr, 0, info.Prog.NumNodes/2+16)
	}
	b := isa.NewBuilderIn("tcf-e", *buf)
	defer func() {
		// The program got a copy; the buffer goes back empty, zeroed and
		// as large as this compilation made it.
		used := b.Instrs()
		clear(used)
		*buf = used[:0]
		instrScratch.Put(buf)
	}()
	for _, d := range info.Data {
		b.Data(d.Addr, d.Words...)
	}
	// Emit: main first so that the entry label is PC 0.
	g := &gen{info: info, b: b, frames: make([]frame, len(info.FuncList))}
	for _, fn := range orderedFuncs(info) {
		if err := g.compileFunc(fn); err != nil {
			return nil, err
		}
	}
	// Bases: topological order over the call DAG; base(f) = max frame end
	// of any caller.
	if err := g.frameBases(); err != nil {
		return nil, err
	}
	g.relocate()
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	// The program gets a copy of exactly its size; the scratch buffer
	// serves the next compilation.
	p.Instrs = append(make([]isa.Instr, 0, len(p.Instrs)), p.Instrs...)
	return &Compiled{Program: p, Info: info, LocalData: info.LocalData}, nil
}

// instrScratch holds the buffers programs are emitted into: a compilation
// that finds one emits without growing anything.
var instrScratch = sync.Pool{New: func() any { return new([]isa.Instr) }}

// orderedFuncs returns main first, then the rest in declaration order.
func orderedFuncs(info *sema.Info) []*lang.FuncDecl {
	out := make([]*lang.FuncDecl, 0, len(info.Prog.Funcs))
	out = append(out, info.Prog.Func("main"))
	for _, fn := range info.Prog.Funcs {
		if fn.Name != "main" {
			out = append(out, fn)
		}
	}
	return out
}

// frameBases assigns register frame bases so callee frames start after all
// caller frames.
func (g *gen) frameBases() error {
	// Longest-path layering over the call DAG, iterated to fixpoint (the
	// graph is small and acyclic).
	byName := make([]*frame, len(g.frames))
	for i := range g.frames {
		byName[i] = &g.frames[i]
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
	for changed := true; changed; {
		changed = false
		for _, fr := range byName {
			sEnd, vEnd := fr.sBase+fr.sSize(), fr.vBase+fr.vSize()
			for _, name := range g.info.Funcs[fr.name].Calls {
				callee := &g.frames[g.info.Funcs[name].Index]
				if callee.sBase < sEnd {
					callee.sBase = sEnd
					changed = true
				}
				if callee.vBase < vEnd {
					callee.vBase = vEnd
					changed = true
				}
			}
		}
	}
	for _, fr := range byName {
		if fr.sBase+fr.sSize() > isa.NumSRegs {
			return fmt.Errorf("codegen: scalar register file exhausted in %s (need %d of %d); flatten the call chain or use fewer variables",
				fr.name, fr.sBase+fr.sSize(), isa.NumSRegs)
		}
		if fr.vBase+fr.vSize() > isa.NumVRegs {
			return fmt.Errorf("codegen: thick register file exhausted in %s (need %d of %d)",
				fr.name, fr.vBase+fr.vSize(), isa.NumVRegs)
		}
	}
	return nil
}

// Frame-relative registers. Until the frame bases are known, emitted code
// names a register of the function's own frame by its slot, as a value of
// isa.Reg beyond the register files: relS+k is scalar slot k, relV+k thick
// slot k. A register of a callee's frame (a parameter or the return value,
// at a call site) is relCallee in the code and a calleeRef beside it.
const (
	relS      isa.Reg = 0x40
	relV      isa.Reg = 0x80
	relCallee isa.Reg = 0xC0
	relSlots          = 0x40 // slots a relative register can name; more saturate, and fail in frameBases
)

// calleeRef says which register the relCallee in Rd (or, for !rd, Ra) of the
// instruction at pc stands for: scalar slot slot of function callee's frame.
type calleeRef struct {
	pc     int
	rd     bool
	callee int
	slot   int
}

// relocate replaces the frame-relative registers of the emitted code.
func (g *gen) relocate() {
	instrs := g.b.Instrs()
	for i := range g.frames {
		fr := &g.frames[i]
		fix := func(r *isa.Reg) {
			switch {
			case *r >= relV && *r < relCallee:
				*r = isa.V(fr.vBase + int(*r-relV))
			case *r >= relS && *r < relV:
				*r = isa.S(fr.sBase + int(*r-relS))
			}
		}
		for pc := fr.start; pc < fr.end; pc++ {
			in := &instrs[pc]
			fix(&in.Rd)
			fix(&in.Ra)
			fix(&in.Rb)
			fix(&in.Rc)
			arms := g.b.Arms(*in)
			for a := range arms {
				fix(&arms[a].Thick)
			}
		}
	}
	for _, ref := range g.calleeRefs {
		r := isa.S(g.frames[ref.callee].sBase + ref.slot)
		if ref.rd {
			instrs[ref.pc].Rd = r
		} else {
			instrs[ref.pc].Ra = r
		}
	}
}

// frame tracks register allocation within one function.
type frame struct {
	name         string
	start, end   int // the function's code is [start, end)
	sBase, vBase int // set by frameBases
	// slot maps a register symbol (by Sym.Index) to 1 + its slot in the
	// scalar or thick part of the frame; 0: none yet.
	slot        []int
	sCount      int
	vCount      int
	sTemp, sMax int
	vTemp, vMax int
	retSlot     int // scalar slot of the return value (-1 if none)
}

func (fr *frame) sSize() int { return fr.sCount + fr.sMax }
func (fr *frame) vSize() int { return fr.vCount + fr.vMax }

type gen struct {
	info   *sema.Info
	b      *isa.Builder
	fr     *frame
	labels int
	// loops is the enclosing-loop label stack for break/continue.
	loops []loopLabels
	// frames holds every function's frame, by FuncInfo.Index.
	frames     []frame
	calleeRefs []calleeRef
}

// loopLabels are the jump targets of the innermost loop.
type loopLabels struct {
	breakL    string
	continueL string
}

func (g *gen) label(prefix string) string {
	g.labels++
	return "." + prefix + strconv.Itoa(g.labels)
}

func (g *gen) errf(pos lang.Pos, format string, args ...any) error {
	return fmt.Errorf("codegen: %s: %s", pos, fmt.Sprintf(format, args...))
}

// ---- frame register helpers ----

func (g *gen) sVarReg(sym *sema.Sym) isa.Reg {
	if g.fr.slot[sym.Index] == 0 {
		g.fr.sCount++
		g.fr.slot[sym.Index] = g.fr.sCount
	}
	return g.sReg(g.fr.slot[sym.Index] - 1)
}

func (g *gen) vVarReg(sym *sema.Sym) isa.Reg {
	if g.fr.slot[sym.Index] == 0 {
		g.fr.vCount++
		g.fr.slot[sym.Index] = g.fr.vCount
	}
	return g.vReg(g.fr.slot[sym.Index] - 1)
}

func (g *gen) sReg(slot int) isa.Reg { return relS + isa.Reg(min(slot, relSlots-1)) }
func (g *gen) vReg(slot int) isa.Reg { return relV + isa.Reg(min(slot, relSlots-1)) }

// temp allocation (stack discipline within the expression being compiled).

func (g *gen) allocS() isa.Reg {
	slot := g.fr.sCount + g.fr.sTemp
	g.fr.sTemp++
	if g.fr.sTemp > g.fr.sMax {
		g.fr.sMax = g.fr.sTemp
	}
	return g.sReg(slot)
}

func (g *gen) allocV() isa.Reg {
	slot := g.fr.vCount + g.fr.vTemp
	g.fr.vTemp++
	if g.fr.vTemp > g.fr.vMax {
		g.fr.vMax = g.fr.vTemp
	}
	return g.vReg(slot)
}

// mark/release implement temp stack frames around expression evaluation.
type mark struct{ s, v int }

func (g *gen) mark() mark     { return mark{g.fr.sTemp, g.fr.vTemp} }
func (g *gen) release(m mark) { g.fr.sTemp, g.fr.vTemp = m.s, m.v }

// value is an expression result: an immediate constant or a register.
type value struct {
	imm   int64
	isImm bool
	reg   isa.Reg
	thick bool
}

func immVal(v int64) value   { return value{imm: v, isImm: true} }
func regVal(r isa.Reg) value { return value{reg: r, thick: r >= relV && r < relCallee} }

// materialize puts v into a register (scalar for immediates).
func (g *gen) materialize(v value) isa.Reg {
	if !v.isImm {
		return v.reg
	}
	r := g.allocS()
	g.b.Ldi(r, v.imm)
	return r
}

// ---- function compilation ----

func (g *gen) compileFunc(fn *lang.FuncDecl) error {
	fi := g.info.Funcs[fn.Name]
	g.fr = &g.frames[fi.Index]
	*g.fr = frame{name: fn.Name, start: g.b.PC(), slot: make([]int, fi.NumRegs), retSlot: -1}
	if fi.Returns {
		g.fr.retSlot = g.fr.sCount
		g.fr.sCount++
	}
	for _, p := range fi.Params {
		g.sVarReg(p)
	}
	g.b.Label(funcLabel(fn.Name))
	if err := g.stmt(fn.Body); err != nil {
		return err
	}
	// Fallthrough epilogue.
	if fn.Name == "main" {
		g.b.Halt()
	} else {
		g.b.Op(isa.RET)
	}
	g.fr.end = g.b.PC()
	return nil
}

func funcLabel(name string) string {
	if name == "main" {
		return "main"
	}
	return "fn_" + name
}

// calleeReg records that the instruction emitted last names, in Rd or Ra,
// scalar slot slot of fi's frame. The layout mirrors compileFunc:
// [ret?][params...].
func (g *gen) calleeReg(fi *sema.FuncInfo, slot int, rd bool) {
	g.calleeRefs = append(g.calleeRefs, calleeRef{pc: g.b.PC() - 1, rd: rd, callee: fi.Index, slot: slot})
}
