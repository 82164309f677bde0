// Package fuse builds the per-PC table the step engine executes. At program
// load, CompileTo gives every pure register operation a kernel — a top-level
// function of the instruction, chosen once by its operand shape
// (thread-wise, flow-common, immediate), calling isa's bulk form for that
// shape over a lane range — and records at every PC the length of the
// straight-line run of such operations starting there (isa.RunLengths). The
// engine executes one instruction at a time and reads no run length. The
// table is data: compiling a program allocates nothing but the table itself.
//
// Each entry also carries the instruction's execution class and its
// precomputed thickness and sliceability. The step engine stays the single
// owner of everything step-resolved: memory references, combining traffic,
// discipline records and trace accounting all happen in the engine at run
// boundaries. Decode builds the same table without kernels:
// the machine's per-lane reference (machine.NewReference) runs on it, so
// every kernel is checked against isa.Eval lane by lane.
package fuse

import (
	"slices"

	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// Class is the execution class the engine dispatches on.
type Class uint8

const (
	// ClassReg is a pure register/lane operation with a compiled Kern.
	ClassReg Class = iota
	// ClassMem references shared or local memory or the combining network;
	// the engine executes it with bulk kernels or its per-lane reference
	// path (the fusion boundary of the run).
	ClassMem
	// ClassControl is a flow-level control or structure operation.
	ClassControl
	// ClassAtomic is a flow-atomic operation (reductions, PRINT/PRINTS,
	// NOP) executed by the engine's atomic path.
	ClassAtomic
)

func (c Class) String() string {
	switch c {
	case ClassReg:
		return "reg"
	case ClassMem:
		return "mem"
	case ClassControl:
		return "control"
	case ClassAtomic:
		return "atomic"
	}
	return "class?"
}

// Env is the execution environment a kernel may consult: the identity of the
// group running the flow and the machine shape constants. Passed by value —
// three words — so kernels stay allocation-free.
type Env struct {
	Group  int // executing processor-group index (GID)
	Groups int // P (NGRP)
	Procs  int // P*Tp (NPROC)
}

// Kern executes lanes [first, end) of the register operation in on f; in is
// the instruction of the table entry that holds the kernel. Kernels never
// touch memory, combining or flow structure; their effects are exactly the
// per-lane semantics of in.
type Kern func(env Env, in *isa.Instr, f *tcf.Flow, first, end int)

// Instr is one compiled instruction.
type Instr struct {
	// In is the source instruction.
	In isa.Instr
	// Class selects the engine dispatch path.
	Class Class
	// Thick and Sliceable cache isa.Instr.Thick/Sliceable (instruction-only
	// properties, precomputed off the hot path).
	Thick     bool
	Sliceable bool
	// Run is the length of the straight-line run of register operations
	// starting at this PC (≥ 1; > 1 only for ClassReg): [pc, pc+Run) holds
	// no control transfer, no memory reference and no interior branch
	// target. No engine path reads it; it describes the program's shape
	// (isa.RunLengths).
	Run int
	// Kern is the lane kernel, called with &In (ClassReg; nil in a Decode
	// table, and when the opcode has no lane semantics — the engine then
	// takes its per-lane path, which reports the error).
	Kern Kern
}

// Program is a compiled program: one Instr per source PC.
type Program struct {
	Code []Instr
}

// opFacts are what Decode reads off an opcode, derived from isa's opcode
// metadata once for every byte value.
var opFacts = func() (t [256]struct {
	class Class
	// atomic: a thick instruction of the opcode still runs flow-atomically
	// (reductions, PRINT), so it is never sliced.
	atomic bool
}) {
	for i := range t {
		op := isa.Op(i)
		info := op.Info()
		switch {
		case info.Control:
			t[i].class = ClassControl
		case info.MemRef || info.LocalRef:
			t[i].class = ClassMem
		case !op.Fusible():
			t[i].class = ClassAtomic
		default:
			t[i].class = ClassReg
		}
		t[i].atomic = op.IsReduction() || op == isa.PRINT
	}
	return t
}()

// Decode appends to dst p's per-PC table without kernels: the source
// instruction, its execution class and its thickness/sliceability facts, each
// derived here once so that the step engine never re-derives them per
// executed instruction. This is the whole table the per-lane reference
// reads; CompileTo adds the kernels and run lengths. dst lets a machine that
// reloads programs keep one array.
func Decode(dst []Instr, p *isa.Program) []Instr {
	n := p.Len()
	dst = slices.Grow(dst[:0], n)[:n]
	for pc := range dst {
		decode(&dst[pc], &p.Instrs[pc])
	}
	return dst
}

// decode fills the entry fi of in without a kernel, field by field: an
// entry that is overwritten whole is copied with write barriers.
func decode(fi *Instr, in *isa.Instr) {
	facts := &opFacts[in.Op]
	thick := in.Thick()
	fi.In = *in
	fi.Class = facts.class
	fi.Thick = thick
	fi.Sliceable = thick && !facts.atomic
	fi.Run = 1
	fi.Kern = nil
}

// Compile builds the compiled program for p. It never fails: opcodes the
// compiler cannot kernelize keep a nil Kern, which routes them through the
// engine's per-lane paths, so compiled execution is defined exactly where
// the reference is.
func Compile(p *isa.Program) *Program {
	return &Program{Code: CompileTo(nil, p)}
}

// CompileTo builds Compile's per-PC table in dst, as Decode builds its own:
// a machine compiles every program it loads into the one array it keeps.
// It allocates nothing when dst has room for p.
//
// The run lengths are isa.RunLengths', computed in the one pass that fills
// the table, back to front: a run extends into the next PC when that is a
// register operation no branch lands on. The leaders (isa.VisitLeaders) are
// marked in the table beforehand, by a run length of -1, which no entry has
// until its turn comes.
func CompileTo(dst []Instr, p *isa.Program) []Instr {
	n := p.Len()
	dst = slices.Grow(dst[:0], n)[:n]
	isa.VisitLeaders(p, func(pc int) {
		if pc < n {
			dst[pc].Run = -1
		}
	})
	nextLead := true
	for pc := n - 1; pc >= 0; pc-- {
		fi := &dst[pc]
		lead := fi.Run == -1
		decode(fi, &p.Instrs[pc])
		if fi.Class == ClassReg {
			if next := pc + 1; next < n && !nextLead && dst[next].Class == ClassReg {
				fi.Run += dst[next].Run
			}
			fi.Kern = kernOf(fi.In)
		}
		nextLead = lead
	}
	return dst
}

// Cached returns Compile(p).
//
// Deprecated: machines compile their tables in place (CompileTo); use
// Compile.
func Cached(p *isa.Program) *Program { return Compile(p) }
