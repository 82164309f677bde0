package fuse

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// compileKern builds the lane kernel for a register-class instruction,
// resolving the operand shape (thread-wise, flow-common, immediate) once: a
// kernel is one call into isa's bulk form for that shape over the lanes it is
// handed, or one scalar evaluation when the destination is flow-common.
// Returns nil for opcodes without lane semantics.
func compileKern(in isa.Instr) Kern {
	op, rd, ra, rb, rc := in.Op, in.Rd, in.Ra, in.Rb, in.Rc
	// Flow-common destinations are most of what a thin flow executes: for the
	// common opcodes their kernels stay one closure deep.
	switch {
	case op == isa.LDI:
		imm := in.Imm
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) { isa.Fill(f.Vector(rd)[first:end], imm) }
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, imm) }

	case op == isa.MOV:
		switch {
		case rd.IsVector() && ra.IsVector():
			return func(_ Env, f *tcf.Flow, first, end int) {
				copy(f.Vector(rd)[first:end], f.Vector(ra)[first:end])
			}
		case rd.IsVector():
			return func(_ Env, f *tcf.Flow, first, end int) { isa.Fill(f.Vector(rd)[first:end], f.Scalar(ra)) }
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, f.Lane(ra, 0)) }

	case op == isa.NEG, op == isa.NOT:
		if rd.IsVector() && ra.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				isa.EvalUnaryV(op, f.Vector(rd)[first:end], f.Vector(ra)[first:end])
			}
		}
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return isa.EvalUnary(op, f.Lane(ra, 0)) })

	case op.IsBinaryALU():
		return binKern(in)

	case op == isa.SEL:
		if !rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				v := f.Lane(rc, 0)
				if f.Lane(ra, 0) != 0 {
					v = f.Lane(rb, 0)
				}
				f.SetScalar(rd, v)
			}
		}
		// The reference reads Rc on every lane and Rb on a selecting one, and
		// reading a thread-wise register allocates it: Rb is touched as there.
		if !ra.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				src, s := operand(f, rc, first, end)
				if f.Scalar(ra) != 0 {
					src, s = operand(f, rb, first, end)
				}
				if dst := f.Vector(rd)[first:end]; src != nil {
					copy(dst, src)
				} else {
					isa.Fill(dst, s)
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			no, ns := operand(f, rc, first, end)
			cond := f.Vector(ra)[first:end]
			var yes []int64
			var ys int64
			if !rb.IsVector() || f.VectorAllocated(rb) || isa.Reduce(isa.OR, 0, cond) != 0 {
				yes, ys = operand(f, rb, first, end)
			}
			isa.SelectV(f.Vector(rd)[first:end], cond, yes, no, ys, ns)
		}

	case op == isa.TID:
		// Fragments of an auto-split flow carry their logical thread-index
		// offset; the single NUMA-mode thread is thread 0.
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)[first:end]
				if f.Mode == tcf.NUMA {
					isa.Fill(dst, 0)
				} else {
					isa.Iota(dst, int64(f.TidOffset+first))
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			if f.Mode == tcf.NUMA {
				f.SetScalar(rd, 0)
			} else {
				f.SetScalar(rd, int64(f.TidOffset))
			}
		}

	case op == isa.FID:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.ID) })
	case op == isa.THICK:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.TotalThickness) })
	case op == isa.GID:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Group) })
	case op == isa.PID:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.Home) })
	case op == isa.NPROC:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Procs) })
	case op == isa.NGRP:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Groups) })
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

// fillKern stores one value per instruction, computed from the flow and the
// environment: broadcast over the lanes of a thread-wise destination, or into
// a flow-common one.
func fillKern(rd isa.Reg, val func(Env, *tcf.Flow) int64) Kern {
	if rd.IsVector() {
		return func(env Env, f *tcf.Flow, first, end int) {
			isa.Fill(f.Vector(rd)[first:end], val(env, f))
		}
	}
	return func(env Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, val(env, f)) }
}

// binKern compiles a binary ALU instruction: the shape picks the bulk form,
// and a closure over lanes captures the opcode, never a per-lane function. A
// flow-common destination (lane 0 semantics), or a thread-wise one with two
// flow-common sources, is one scalar evaluation.
func binKern(in isa.Instr) Kern {
	op, rd, ra, rb := in.Op, in.Rd, in.Ra, in.Rb
	imm, hasImm := in.Imm, in.HasImm
	aVec := ra.IsVector()
	bVec := !hasImm && rb.IsVector()
	switch {
	case !rd.IsVector():
		// One evaluation per instruction, and most of what a thin flow
		// executes: resolved to the operator here, not through Eval's switch
		// on every step.
		fn := isa.EvalFn(op)
		if hasImm {
			return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, fn(f.Lane(ra, 0), imm)) }
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, fn(f.Lane(ra, 0), f.Lane(rb, 0))) }
	case !aVec && !bVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			b := imm
			if !hasImm {
				b = f.Scalar(rb)
			}
			isa.Fill(f.Vector(rd)[first:end], isa.Eval(op, f.Scalar(ra), b))
		}
	case aVec && bVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			isa.EvalVV(op, f.Vector(rd)[first:end], f.Vector(ra)[first:end], f.Vector(rb)[first:end])
		}
	case aVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			b := imm
			if !hasImm {
				b = f.Scalar(rb)
			}
			isa.EvalVS(op, f.Vector(rd)[first:end], f.Vector(ra)[first:end], b)
		}
	default:
		return func(_ Env, f *tcf.Flow, first, end int) {
			isa.EvalSV(op, f.Vector(rd)[first:end], f.Scalar(ra), f.Vector(rb)[first:end])
		}
	}
}
