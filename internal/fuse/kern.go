package fuse

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// compileKern builds the lane kernel for a register-class instruction,
// resolving operand shapes (vector/scalar/immediate) once. Returns nil for
// opcodes without lane semantics.
func compileKern(in isa.Instr) Kern {
	rd, ra, rb, rc := in.Rd, in.Ra, in.Rb, in.Rc
	imm := in.Imm
	switch {
	case in.Op == isa.LDI:
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)
				for i := first; i < end; i++ {
					dst[i] = imm
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, imm) }

	case in.Op == isa.MOV:
		switch {
		case rd.IsVector() && ra.IsVector():
			return func(_ Env, f *tcf.Flow, first, end int) {
				copy(f.Vector(rd)[first:end], f.Vector(ra)[first:end])
			}
		case rd.IsVector():
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, v := f.Vector(rd), f.Scalar(ra)
				for i := first; i < end; i++ {
					dst[i] = v
				}
			}
		default:
			return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, f.Lane(ra, 0)) }
		}

	case in.Op == isa.NEG, in.Op == isa.NOT:
		op := in.Op
		un := func(v int64) int64 { return isa.EvalUnary(op, v) }
		if rd.IsVector() && ra.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, src := f.Vector(rd), f.Vector(ra)
				for i := first; i < end; i++ {
					dst[i] = un(src[i])
				}
			}
		}
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, v := f.Vector(rd), un(f.Scalar(ra))
				for i := first; i < end; i++ {
					dst[i] = v
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, un(f.Lane(ra, 0))) }

	case in.Op.IsBinaryALU():
		return binKern(in)

	case in.Op == isa.SEL:
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)
				for i := first; i < end; i++ {
					v := f.Lane(rc, i)
					if f.Lane(ra, i) != 0 {
						v = f.Lane(rb, i)
					}
					dst[i] = v
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			v := f.Lane(rc, 0)
			if f.Lane(ra, 0) != 0 {
				v = f.Lane(rb, 0)
			}
			f.SetScalar(rd, v)
		}

	case in.Op == isa.TID:
		if rd.IsVector() {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst := f.Vector(rd)
				if f.Mode == tcf.NUMA {
					for i := first; i < end; i++ {
						dst[i] = 0
					}
					return
				}
				off := f.TidOffset
				for i := first; i < end; i++ {
					dst[i] = int64(off + i)
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			if f.Mode == tcf.NUMA {
				f.SetScalar(rd, 0)
				return
			}
			f.SetScalar(rd, int64(f.TidOffset))
		}

	case in.Op == isa.FID:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.ID) })
	case in.Op == isa.THICK:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.TotalThickness) })
	case in.Op == isa.GID:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Group) })
	case in.Op == isa.PID:
		return fillKern(rd, func(_ Env, f *tcf.Flow) int64 { return int64(f.Home) })
	case in.Op == isa.NPROC:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Procs) })
	case in.Op == isa.NGRP:
		return fillKern(rd, func(env Env, _ *tcf.Flow) int64 { return int64(env.Groups) })
	}
	return nil
}

// fillKern broadcasts a flow/environment-derived value into the destination.
func fillKern(rd isa.Reg, val func(Env, *tcf.Flow) int64) Kern {
	if rd.IsVector() {
		return func(env Env, f *tcf.Flow, first, end int) {
			dst, v := f.Vector(rd), val(env, f)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
	}
	return func(env Env, f *tcf.Flow, first, end int) { f.SetScalar(rd, val(env, f)) }
}

// binKern compiles a binary ALU instruction. The vector×vector ADD — the
// inner loop of data-parallel arithmetic — gets a dedicated closure; every
// other shape captures the opcode's scalar evaluator.
func binKern(in isa.Instr) Kern {
	rd, ra, rb := in.Rd, in.Ra, in.Rb
	imm, hasImm := in.Imm, in.HasImm
	fn := isa.EvalFn(in.Op)
	if !rd.IsVector() {
		// Scalar destination: one flow-level operation (lane 0 semantics).
		if hasImm {
			return func(_ Env, f *tcf.Flow, first, end int) {
				f.SetScalar(rd, fn(f.Lane(ra, 0), imm))
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			f.SetScalar(rd, fn(f.Lane(ra, 0), f.Lane(rb, 0)))
		}
	}
	aVec := ra.IsVector()
	bVec := !hasImm && rb.IsVector()
	switch {
	case aVec && bVec:
		if in.Op == isa.ADD {
			return func(_ Env, f *tcf.Flow, first, end int) {
				dst, av, bv := f.Vector(rd), f.Vector(ra), f.Vector(rb)
				for i := first; i < end; i++ {
					dst[i] = av[i] + bv[i]
				}
			}
		}
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst, av, bv := f.Vector(rd), f.Vector(ra), f.Vector(rb)
			for i := first; i < end; i++ {
				dst[i] = fn(av[i], bv[i])
			}
		}
	case aVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst, av := f.Vector(rd), f.Vector(ra)
			bs := imm
			if !hasImm {
				bs = f.Scalar(rb)
			}
			for i := first; i < end; i++ {
				dst[i] = fn(av[i], bs)
			}
		}
	case bVec:
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst, bv := f.Vector(rd), f.Vector(rb)
			as := f.Scalar(ra)
			for i := first; i < end; i++ {
				dst[i] = fn(as, bv[i])
			}
		}
	default:
		return func(_ Env, f *tcf.Flow, first, end int) {
			dst := f.Vector(rd)
			bs := imm
			if !hasImm {
				bs = f.Scalar(rb)
			}
			v := fn(f.Scalar(ra), bs)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
	}
}
