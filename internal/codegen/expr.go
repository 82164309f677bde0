package codegen

import (
	"fmt"

	"tcfpram/internal/isa"
	"tcfpram/internal/lang"
	"tcfpram/internal/sema"
)

var commutative = map[isa.Op]bool{
	isa.ADD: true, isa.MUL: true, isa.AND: true, isa.OR: true, isa.XOR: true,
	isa.SEQ: true, isa.SNE: true, isa.MIN: true, isa.MAX: true,
}

// destFor allocates a result register of the right class: thick results use
// the V pool, scalars the S pool.
func (g *gen) destFor(thick bool) isa.Reg {
	if thick {
		return g.allocV()
	}
	return g.allocS()
}

// exprThick reports whether sema typed e as thick.
func (g *gen) exprThick(e lang.Expr) bool {
	return g.info.IsThick(e)
}

func (g *gen) expr(e lang.Expr) (value, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return immVal(e.Val), nil
	case *lang.Ident:
		return g.identExpr(e)
	case *lang.Unary:
		return g.unaryExpr(e)
	case *lang.Binary:
		return g.binaryExpr(e)
	case *lang.Index:
		return g.indexExpr(e)
	case *lang.AddrOf:
		return g.addrOfExpr(e)
	case *lang.Call:
		return g.callExpr(e)
	}
	return value{}, g.errf(e.GetPos(), "unhandled expression %T", e)
}

var builtinOps = map[string]isa.Op{
	"tid": isa.TID, "fid": isa.FID, "thickness": isa.THICK,
	"nproc": isa.NPROC, "ngroups": isa.NGRP, "gid": isa.GID, "pid": isa.PID,
}

func (g *gen) identExpr(e *lang.Ident) (value, error) {
	if op, ok := builtinOps[e.Name]; ok {
		dst := g.destFor(e.Name == "tid")
		g.b.Id(op, dst)
		return regVal(dst), nil
	}
	sym := g.info.SymOf(e)
	if sym.Space != lang.SpaceReg {
		// Memory scalar: load the word.
		load := isa.LD
		if sym.Space == lang.SpaceLocal {
			load = isa.LDL
		}
		dst := g.allocS()
		g.b.Emit(isa.Instr{Op: load, Rd: dst, Ra: isa.RegNone, Imm: sym.Addr})
		return regVal(dst), nil
	}
	if sym.Thick {
		return regVal(g.vVarReg(sym)), nil
	}
	return regVal(g.sVarReg(sym)), nil
}

func (g *gen) unaryExpr(e *lang.Unary) (value, error) {
	m := g.mark()
	x, err := g.expr(e.X)
	if err != nil {
		return value{}, err
	}
	if x.isImm {
		if v, ok := sema.FoldUnary(e.Op, x.imm); ok {
			return immVal(v), nil
		}
	}
	// Operand temps are consumed by the single emitted instruction (which
	// reads its sources before writing any lane), so the destination may
	// reuse them — without this, wide expressions exhaust the register
	// file by holding every intermediate to the end of the statement.
	g.release(m)
	dst := g.destFor(x.thick)
	switch e.Op {
	case lang.TokMinus:
		g.b.Unary(isa.NEG, dst, x.reg)
	case lang.TokTilde:
		g.b.Unary(isa.NOT, dst, x.reg)
	case lang.TokBang:
		g.b.ALUI(isa.SEQ, dst, x.reg, 0)
	default:
		return value{}, g.errf(e.Pos, "unhandled unary operator %s", e.Op)
	}
	return regVal(dst), nil
}

func (g *gen) binaryExpr(e *lang.Binary) (value, error) {
	// Logical && / || without short-circuit: normalize both sides to 0/1.
	if e.Op == lang.TokAndAnd || e.Op == lang.TokOrOr {
		x, err := g.expr(e.X)
		if err != nil {
			return value{}, err
		}
		y, err := g.expr(e.Y)
		if err != nil {
			return value{}, err
		}
		op := isa.AND
		if e.Op == lang.TokOrOr {
			op = isa.OR
		}
		if x.isImm && y.isImm {
			return immVal(isa.Eval(op, isa.Eval(isa.SNE, x.imm, 0), isa.Eval(isa.SNE, y.imm, 0))), nil
		}
		norm := func(v value) isa.Reg {
			r := g.materialize(v)
			n := g.destFor(v.thick)
			g.b.ALUI(isa.SNE, n, r, 0)
			return n
		}
		nx, ny := norm(x), norm(y)
		dst := g.destFor(x.thick || y.thick)
		g.b.ALU(op, dst, nx, ny)
		return regVal(dst), nil
	}

	op, ok := sema.BinaryOp(e.Op)
	if !ok {
		return value{}, g.errf(e.Pos, "unhandled binary operator %s", e.Op)
	}
	m := g.mark()
	x, err := g.expr(e.X)
	if err != nil {
		return value{}, err
	}
	y, err := g.expr(e.Y)
	if err != nil {
		return value{}, err
	}
	if x.isImm && y.isImm {
		return immVal(isa.Eval(op, x.imm, y.imm)), nil
	}
	// Immediate on the right: use the immediate ALU form. Operand temps
	// are released before allocating the destination (see unaryExpr).
	if y.isImm {
		g.release(m)
		dst := g.destFor(x.thick)
		g.b.ALUI(op, dst, x.reg, y.imm)
		return regVal(dst), nil
	}
	if x.isImm {
		if commutative[op] {
			g.release(m)
			dst := g.destFor(y.thick)
			g.b.ALUI(op, dst, y.reg, x.imm)
			return regVal(dst), nil
		}
		xr := g.materialize(x)
		g.release(m)
		dst := g.destFor(y.thick)
		g.b.ALU(op, dst, xr, y.reg)
		return regVal(dst), nil
	}
	g.release(m)
	dst := g.destFor(x.thick || y.thick)
	g.b.ALU(op, dst, x.reg, y.reg)
	return regVal(dst), nil
}

func (g *gen) indexExpr(e *lang.Index) (value, error) {
	sym := g.info.SymOf(e)
	load := isa.LD
	if sym.Space == lang.SpaceLocal {
		load = isa.LDL
	}
	m := g.mark()
	idx, err := g.expr(e.Idx)
	if err != nil {
		return value{}, err
	}
	base, disp := g.memOperand(idx, sym.Addr)
	g.release(m)
	dst := g.destFor(g.exprThick(e))
	g.b.Emit(isa.Instr{Op: load, Rd: dst, Ra: base, Imm: disp})
	return regVal(dst), nil
}

func (g *gen) addrOfExpr(e *lang.AddrOf) (value, error) {
	sym := g.info.SymOf(e)
	if e.Idx == nil {
		return immVal(sym.Addr), nil
	}
	m := g.mark()
	idx, err := g.expr(e.Idx)
	if err != nil {
		return value{}, err
	}
	if idx.isImm {
		return immVal(sym.Addr + idx.imm), nil
	}
	g.release(m)
	dst := g.destFor(idx.thick)
	g.b.ALUI(isa.ADD, dst, idx.reg, sym.Addr)
	return regVal(dst), nil
}

var multiprefixOps = map[string]isa.Op{
	"mpadd": isa.MPADD, "mpand": isa.MPAND, "mpor": isa.MPOR,
	"mpmax": isa.MPMAX, "mpmin": isa.MPMIN,
}

var multiOps = map[string]isa.Op{
	"madd": isa.MADD, "mand": isa.MAND, "mor": isa.MOR,
	"mmax": isa.MMAX, "mmin": isa.MMIN,
}

var reduceOps = map[string]isa.Op{
	"radd": isa.RADD, "rand": isa.RAND, "ror": isa.ROR,
	"rmax": isa.RMAX, "rmin": isa.RMIN,
}

func (g *gen) callExpr(e *lang.Call) (value, error) {
	if op, ok := multiprefixOps[e.Name]; ok {
		m := g.mark()
		addr, err := g.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		val, err := g.expr(e.Args[1])
		if err != nil {
			return value{}, err
		}
		base, disp := g.memOperand(addr, 0)
		vr := g.materialize(val)
		g.release(m)
		dst := g.allocV()
		g.b.Emit(isa.Instr{Op: op, Rd: dst, Ra: base, Imm: disp, Rb: vr})
		return regVal(dst), nil
	}
	if op, ok := multiOps[e.Name]; ok {
		addr, err := g.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		val, err := g.expr(e.Args[1])
		if err != nil {
			return value{}, err
		}
		base, disp := g.memOperand(addr, 0)
		g.b.Emit(isa.Instr{Op: op, Ra: base, Imm: disp, Rb: g.materialize(val)})
		return value{}, nil
	}
	if op, ok := reduceOps[e.Name]; ok {
		m := g.mark()
		v, err := g.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		g.release(m)
		dst := g.allocS()
		g.b.Reduce(op, dst, v.reg)
		return regVal(dst), nil
	}
	switch e.Name {
	case "print":
		v, err := g.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		if v.isImm {
			g.b.PrintImm(v.imm)
		} else {
			g.b.Print(v.reg)
		}
		return value{}, nil
	case "prints":
		g.b.Prints(e.Args[0].(*lang.StrLit).Val)
		return value{}, nil
	case "assert":
		// assert(cond): a failing flow announces the violation and halts.
		m := g.mark()
		v, err := g.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		ok := g.label("assertok")
		g.b.Branch(isa.BNEZ, g.materialize(v), ok)
		g.release(m)
		g.b.Prints(fmt.Sprintf("assertion failed at %s", e.Pos))
		g.b.Halt()
		g.b.Label(ok)
		return value{}, nil
	}
	// User function call.
	fi := g.info.Funcs[e.Name]
	// The callee's frame starts [ret?][params...].
	firstParam := 0
	if fi.Returns {
		firstParam = 1
	}
	// Evaluate arguments into caller temps first (argument expressions may
	// themselves call functions whose frames overlap the callee's).
	m := g.mark()
	temps := make([]value, len(e.Args))
	for i, a := range e.Args {
		v, err := g.expr(a)
		if err != nil {
			return value{}, err
		}
		temps[i] = v
	}
	for i, v := range temps {
		// A callee's registers are never the caller's: always a move.
		g.storeTo(relCallee, v)
		g.calleeReg(fi, firstParam+i, true)
	}
	g.b.Call(funcLabel(e.Name))
	g.release(m)
	if fi.Returns {
		// Copy out: the callee's return slot may be reused by a following
		// call to the same or a deeper function.
		dst := g.allocS()
		g.b.Mov(dst, relCallee)
		g.calleeReg(fi, 0, false)
		return regVal(dst), nil
	}
	return value{}, nil
}
