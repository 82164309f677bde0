// Package fuse builds the per-PC table the step engine executes. At program
// load, CompileTo gives every pure register operation a kernel — a Go
// closure with its operand shape (thread-wise, flow-common, immediate)
// resolved once, calling isa's bulk form for that shape over a lane range —
// and records at every PC the length of the straight-line run of such
// operations starting there (isa.RunLengths), which the engine may retire
// back to back.
//
// Each entry also carries the instruction's execution class and its
// precomputed thickness and sliceability. The step engine stays the single
// owner of everything step-resolved: memory references, combining traffic,
// fault decisions, discipline records and trace accounting all happen in the
// engine at run boundaries. Decode builds the same table without kernels:
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

// Kern executes lanes [first, end) of one register operation on f. Kernels
// never touch memory, combining or flow structure; their effects are exactly
// the per-lane semantics of the instruction they were compiled from.
type Kern func(env Env, f *tcf.Flow, first, end int)

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
	// Run is the length of the fused straight-line run starting at this PC
	// (≥ 1; > 1 only for ClassReg). The engine may execute instructions
	// [pc, pc+Run) back to back without surfacing, as far as the variant
	// policy's window reaches — one instruction under five of the six: the
	// run contains no control transfer, no memory reference and no interior
	// branch target.
	Run int
	// Kern is the compiled lane kernel (ClassReg; nil in a Decode table, and
	// when the opcode has no lane semantics — the engine then takes its
	// per-lane path, which reports the error).
	Kern Kern
}

// Program is a compiled program: one Instr per source PC.
type Program struct {
	Code []Instr
}

// Decode appends to dst p's per-PC table without kernels: the source
// instruction, its execution class and its thickness/sliceability facts, each
// derived from the opcode metadata once here so that the step engine never
// re-derives them per executed instruction. This is the whole table the
// per-lane reference reads; CompileTo adds the kernels and run lengths. dst
// lets a machine that reloads programs keep one array.
func Decode(dst []Instr, p *isa.Program) []Instr {
	dst = slices.Grow(dst[:0], p.Len())
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		fi := Instr{In: *in, Thick: in.Thick(), Sliceable: in.Sliceable(), Run: 1}
		info := in.Op.Info()
		switch {
		case info.Control:
			fi.Class = ClassControl
		case info.MemRef || info.LocalRef:
			fi.Class = ClassMem
		case !in.Op.Fusible():
			fi.Class = ClassAtomic
		default:
			fi.Class = ClassReg
		}
		dst = append(dst, fi)
	}
	return dst
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
func CompileTo(dst []Instr, p *isa.Program) []Instr {
	rl := isa.RunLengths(p)
	dst = Decode(dst, p)
	for pc := range dst {
		if fi := &dst[pc]; fi.Class == ClassReg {
			fi.Run = rl[pc]
			fi.Kern = compileKern(fi.In)
		}
	}
	return dst
}

// Cached returns Compile(p).
//
// Deprecated: machines compile their tables in place (CompileTo); use
// Compile.
func Cached(p *isa.Program) *Program { return Compile(p) }
