package fuse

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// The kernels are top-level functions of the instruction they execute: the
// table stores one per register instruction, chosen by kernOf from the
// operand shape (thread-wise, flow-common, immediate), and the engine hands
// it the instruction's own word. Compiling a program therefore builds no
// closures — a kernel is data, a code pointer — and each kernel is one call
// into isa's bulk form for its shape over the lanes it is handed, or one
// scalar evaluation when the destination is flow-common.
//
// A kernel reads its sources before it takes its destination (tcf.Flow.Dest),
// so that a destination in affine form, overwritten whole, is dropped without
// being materialised; TID, MOV and ADD, SUB, MUL and SHL by a flow-common
// operand write an affine form where their sources are one (tcf.Flow.SetAffine),
// and leave the column unwritten.

// kernOf returns the lane kernel of a register-class instruction, nil for
// opcodes without lane semantics.
func kernOf(in isa.Instr) Kern {
	op, rd, ra := in.Op, in.Rd, in.Ra
	// Flow-common destinations are most of what a thin flow executes: for the
	// common opcodes their kernels read the instruction and nothing else.
	switch {
	case op == isa.LDI:
		if rd.IsVector() {
			return fillV
		}
		return ldiS

	case op == isa.MOV:
		switch {
		case rd.IsVector() && ra.IsVector():
			return movVV
		case rd.IsVector():
			return movVS
		}
		return movS

	case op == isa.NEG, op == isa.NOT:
		if rd.IsVector() && ra.IsVector() {
			return unaryVV
		}
		return fillKern(rd)

	case op.IsBinaryALU():
		return binKern(in)

	case op == isa.SEL:
		switch {
		case !rd.IsVector():
			return selS
		case !ra.IsVector():
			return selVS
		}
		return selVV

	case op == isa.TID:
		if rd.IsVector() {
			return tidV
		}
		return tidS

	case op == isa.FID, op == isa.THICK, op == isa.GID, op == isa.PID, op == isa.NPROC, op == isa.NGRP:
		return fillKern(rd)
	}
	return nil
}

// operand returns lanes [first, end) of a thread-wise register, or nil and the
// value of a flow-common one.
func operand(f *tcf.Flow, r isa.Reg, first, end int) ([]int64, int64) {
	if r.IsVector() {
		return f.Vector(r)[first:end], 0
	}
	return nil, f.Scalar(r)
}

// fillKern stores one value per instruction (value): broadcast over the
// lanes of a thread-wise destination, or into a flow-common one.
func fillKern(rd isa.Reg) Kern {
	if rd.IsVector() {
		return fillV
	}
	return fillS
}

// value is the one word an instruction of fillKern stores, computed from
// the instruction, the flow and the environment.
func value(env Env, in *isa.Instr, f *tcf.Flow) int64 {
	switch in.Op {
	case isa.LDI:
		return in.Imm
	case isa.NEG, isa.NOT:
		return isa.EvalUnary(in.Op, f.Lane(in.Ra, 0))
	case isa.FID:
		return int64(f.ID)
	case isa.THICK:
		if f.IsFragment {
			return int64(f.Parent.Thickness) // a fragment answers for its container
		}
		return int64(f.Thickness)
	case isa.GID:
		return int64(env.Group)
	case isa.PID:
		return int64(f.Home)
	case isa.NPROC:
		return int64(env.Procs)
	case isa.NGRP:
		return int64(env.Groups)
	}
	panic("fuse: no value for " + in.Op.String())
}

func fillV(env Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	v := value(env, in, f)
	isa.Fill(f.Dest(in.Rd, first, end), v)
}

func fillS(env Env, in *isa.Instr, f *tcf.Flow, _, _ int) { f.SetScalar(in.Rd, value(env, in, f)) }

func ldiS(_ Env, in *isa.Instr, f *tcf.Flow, _, _ int) { f.SetScalar(in.Rd, in.Imm) }

func movVV(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	if base, stride, ok := f.Affine(in.Ra); ok && f.SetAffine(in.Rd, first, end, base, stride) {
		return
	}
	src := f.Vector(in.Ra)[first:end]
	copy(f.Dest(in.Rd, first, end), src)
}

func movVS(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	isa.Fill(f.Dest(in.Rd, first, end), f.Scalar(in.Ra))
}

func movS(_ Env, in *isa.Instr, f *tcf.Flow, _, _ int) { f.SetScalar(in.Rd, f.Lane(in.Ra, 0)) }

func unaryVV(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	src := f.Vector(in.Ra)[first:end]
	isa.EvalUnaryV(in.Op, f.Dest(in.Rd, first, end), src)
}

func selS(_ Env, in *isa.Instr, f *tcf.Flow, _, _ int) {
	v := f.Lane(in.Rc, 0)
	if f.Lane(in.Ra, 0) != 0 {
		v = f.Lane(in.Rb, 0)
	}
	f.SetScalar(in.Rd, v)
}

// The reference reads Rc on every lane and Rb on a selecting one, and
// reading a thread-wise register allocates it: selVS and selVV touch Rb as
// it does.

func selVS(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	src, s := operand(f, in.Rc, first, end)
	if f.Scalar(in.Ra) != 0 {
		src, s = operand(f, in.Rb, first, end)
	}
	if dst := f.Dest(in.Rd, first, end); src != nil {
		copy(dst, src)
	} else {
		isa.Fill(dst, s)
	}
}

func selVV(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	no, ns := operand(f, in.Rc, first, end)
	cond := f.Vector(in.Ra)[first:end]
	var yes []int64
	var ys int64
	if rb := in.Rb; !rb.IsVector() || f.VectorAllocated(rb) || isa.Reduce(isa.OR, 0, cond) != 0 {
		yes, ys = operand(f, rb, first, end)
	}
	isa.SelectV(f.Dest(in.Rd, first, end), cond, yes, no, ys, ns)
}

// An auto-split fragment numbers its window of lanes from its offset, and
// leaves a flow-common TID to its container; the NUMA-mode thread is thread 0.

func tidV(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	base, stride := int64(f.TidOffset), int64(1)
	if f.Mode == tcf.NUMA {
		base, stride = 0, 0
	}
	if !f.SetAffine(in.Rd, first, end, base, stride) {
		isa.Ramp(f.Dest(in.Rd, first, end), base+stride*int64(first), stride)
	}
}

func tidS(_ Env, in *isa.Instr, f *tcf.Flow, _, _ int) { f.SetScalar(in.Rd, 0) }

// binKern picks a binary ALU instruction's kernel: the shape picks the bulk
// form, which takes the opcode, never a per-lane function. A flow-common
// destination (lane 0 semantics), or a thread-wise one with two flow-common
// sources, is one scalar evaluation.
func binKern(in isa.Instr) Kern {
	aVec := in.Ra.IsVector()
	bVec := !in.HasImm && in.Rb.IsVector()
	switch {
	case !in.Rd.IsVector() && in.HasImm:
		return binSI
	case !in.Rd.IsVector():
		return binSR
	case !aVec && !bVec:
		return binFill
	case aVec && bVec:
		return binVV
	case aVec:
		return binVS
	}
	return binSV
}

// binB is the flow-common second operand: the immediate or the register.
func binB(in *isa.Instr, f *tcf.Flow) int64 {
	if in.HasImm {
		return in.Imm
	}
	return f.Scalar(in.Rb)
}

// evalFns is isa.EvalFn of every binary ALU opcode, resolved once: the
// scalar kernels below make one indirect call per instruction, as a closure
// over EvalFn did, rather than a call through Eval's switch.
var evalFns = func() (t [256]func(a, b int64) int64) {
	for op := range isa.NumOps {
		if isa.Op(op).IsBinaryALU() {
			t[op] = isa.EvalFn(isa.Op(op))
		}
	}
	return t
}()

// binSI and binSR are one evaluation per instruction, and most of what a
// thin flow executes.

func binSI(_ Env, in *isa.Instr, f *tcf.Flow, _, _ int) {
	f.SetScalar(in.Rd, evalFns[in.Op](f.Lane(in.Ra, 0), in.Imm))
}

func binSR(_ Env, in *isa.Instr, f *tcf.Flow, _, _ int) {
	f.SetScalar(in.Rd, evalFns[in.Op](f.Lane(in.Ra, 0), f.Lane(in.Rb, 0)))
}

func binFill(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	v := isa.Eval(in.Op, f.Scalar(in.Ra), binB(in, f))
	isa.Fill(f.Dest(in.Rd, first, end), v)
}

func binVV(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	a, b := f.Vector(in.Ra)[first:end], f.Vector(in.Rb)[first:end]
	isa.EvalVV(in.Op, f.Dest(in.Rd, first, end), a, b)
}

func binVS(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	c := binB(in, f)
	if base, stride, ok := f.Affine(in.Ra); ok {
		if base, stride, ok := affineVS(in.Op, base, stride, c); ok && f.SetAffine(in.Rd, first, end, base, stride) {
			return
		}
	}
	a := f.Vector(in.Ra)[first:end]
	isa.EvalVS(in.Op, f.Dest(in.Rd, first, end), a, c)
}

func binSV(_ Env, in *isa.Instr, f *tcf.Flow, first, end int) {
	c := f.Scalar(in.Ra)
	if base, stride, ok := f.Affine(in.Rb); ok {
		if base, stride, ok := affineSV(in.Op, c, base, stride); ok && f.SetAffine(in.Rd, first, end, base, stride) {
			return
		}
	}
	b := f.Vector(in.Rb)[first:end]
	isa.EvalSV(in.Op, f.Dest(in.Rd, first, end), c, b)
}

// affineVS is the form of op on the lanes base + stride·i and the flow-common
// c: exact under int64 wrap-around for ADD, SUB, MUL and SHL by 0–63, the
// shifts that are a multiplication by a power of two. It reports false for
// every other operation.
func affineVS(op isa.Op, base, stride, c int64) (int64, int64, bool) {
	switch op {
	case isa.ADD:
		return base + c, stride, true
	case isa.SUB:
		return base - c, stride, true
	case isa.MUL:
		return base * c, stride * c, true
	case isa.SHL:
		if c >= 0 && c < 64 {
			return base << c, stride << c, true
		}
	}
	return 0, 0, false
}

// affineSV is affineVS with c on the left: ADD, SUB and MUL.
func affineSV(op isa.Op, c, base, stride int64) (int64, int64, bool) {
	switch op {
	case isa.ADD:
		return c + base, stride, true
	case isa.SUB:
		return c - base, -stride, true
	case isa.MUL:
		return c * base, c * stride, true
	}
	return 0, 0, false
}
