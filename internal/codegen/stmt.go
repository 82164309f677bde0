package codegen

import (
	"tcfpram/internal/isa"
	"tcfpram/internal/lang"
	"tcfpram/internal/sema"
)

func (g *gen) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.BlockStmt:
		for _, sub := range s.Stmts {
			if err := g.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *lang.VarDecl:
		return g.varDecl(s)
	case *lang.AssignStmt:
		return g.assign(s)
	case *lang.ExprStmt:
		m := g.mark()
		defer g.release(m)
		_, err := g.expr(s.X)
		return err
	case *lang.IfStmt:
		return g.ifStmt(s)
	case *lang.WhileStmt:
		return g.whileStmt(s)
	case *lang.ForStmt:
		return g.forStmt(s)
	case *lang.ParallelStmt:
		return g.parallelStmt(s)
	case *lang.SwitchStmt:
		return g.switchStmt(s)
	case *lang.ThickStmt:
		m := g.mark()
		defer g.release(m)
		v, err := g.expr(s.X)
		if err != nil {
			return err
		}
		if v.isImm {
			g.b.SetThickImm(v.imm)
		} else {
			g.b.SetThick(v.reg)
		}
		return nil
	case *lang.NumaStmt:
		m := g.mark()
		defer g.release(m)
		v, err := g.expr(s.X)
		if err != nil {
			return err
		}
		if v.isImm {
			g.b.NumaImm(v.imm)
		} else {
			g.b.Numa(v.reg)
		}
		return nil
	case *lang.BarrierStmt:
		g.b.Op(isa.BAR)
		return nil
	case *lang.HaltStmt:
		g.b.Halt()
		return nil
	case *lang.BreakStmt:
		if len(g.loops) == 0 {
			return g.errf(s.Pos, "break outside a loop")
		}
		g.b.Jmp(g.loops[len(g.loops)-1].breakL)
		return nil
	case *lang.ContinueStmt:
		if len(g.loops) == 0 {
			return g.errf(s.Pos, "continue outside a loop")
		}
		g.b.Jmp(g.loops[len(g.loops)-1].continueL)
		return nil
	case *lang.ReturnStmt:
		if s.X != nil {
			m := g.mark()
			v, err := g.expr(s.X)
			if err != nil {
				return err
			}
			ret := g.sReg(g.fr.retSlot)
			if v.isImm {
				g.b.Ldi(ret, v.imm)
			} else if v.reg != ret {
				g.b.Mov(ret, v.reg)
			}
			g.release(m)
		}
		if g.fr.name == "main" {
			g.b.Halt()
		} else {
			g.b.Op(isa.RET)
		}
		return nil
	}
	return g.errf(s.GetPos(), "unhandled statement %T", s)
}

func (g *gen) varDecl(d *lang.VarDecl) error {
	sym := g.info.SymOf(d)
	var dst isa.Reg
	if sym.Thick {
		dst = g.vVarReg(sym)
	} else {
		dst = g.sVarReg(sym)
	}
	if d.InitExpr == nil {
		// Zero-initialize for predictability.
		g.b.Ldi(dst, 0)
		return nil
	}
	m := g.mark()
	defer g.release(m)
	v, err := g.expr(d.InitExpr)
	if err != nil {
		return err
	}
	g.storeTo(dst, v)
	return nil
}

// storeTo moves a value into a specific register.
func (g *gen) storeTo(dst isa.Reg, v value) {
	if v.isImm {
		g.b.Ldi(dst, v.imm)
		return
	}
	if v.reg != dst {
		g.b.Mov(dst, v.reg)
	}
}

// assignOpKind maps compound assignment tokens to ALU opcodes.
var assignOps = map[lang.TokKind]isa.Op{
	lang.TokPlusAssign:    isa.ADD,
	lang.TokMinusAssign:   isa.SUB,
	lang.TokStarAssign:    isa.MUL,
	lang.TokSlashAssign:   isa.DIV,
	lang.TokPercentAssign: isa.MOD,
	lang.TokAmpAssign:     isa.AND,
	lang.TokPipeAssign:    isa.OR,
	lang.TokCaretAssign:   isa.XOR,
	lang.TokShlAssign:     isa.SHL,
	lang.TokShrAssign:     isa.SHR,
}

func (g *gen) assign(s *lang.AssignStmt) error {
	m := g.mark()
	defer g.release(m)
	switch lhs := s.LHS.(type) {
	case *lang.Ident:
		sym := g.info.SymOf(lhs)
		if sym.Space != lang.SpaceReg {
			return g.assignMemScalar(s, sym)
		}
		var dst isa.Reg
		if sym.Thick {
			dst = g.vVarReg(sym)
		} else {
			dst = g.sVarReg(sym)
		}
		if s.Op == lang.TokAssign {
			v, err := g.expr(s.RHS)
			if err != nil {
				return err
			}
			g.storeTo(dst, v)
			return nil
		}
		op := assignOps[s.Op]
		v, err := g.expr(s.RHS)
		if err != nil {
			return err
		}
		if v.isImm {
			g.b.ALUI(op, dst, dst, v.imm)
		} else {
			g.b.ALU(op, dst, dst, v.reg)
		}
		return nil
	case *lang.Index:
		return g.assignElement(s, lhs)
	}
	return g.errf(s.Pos, "invalid assignment target")
}

// assignMemScalar handles stores to shared/local memory scalars.
func (g *gen) assignMemScalar(s *lang.AssignStmt, sym *sema.Sym) error {
	store, load := isa.ST, isa.LD
	if sym.Space == lang.SpaceLocal {
		store, load = isa.STL, isa.LDL
	}
	v, err := g.expr(s.RHS)
	if err != nil {
		return err
	}
	if s.Op == lang.TokAssign {
		r := g.materialize(v)
		g.b.Emit(isa.Instr{Op: store, Ra: isa.RegNone, Imm: sym.Addr, Rb: r})
		return nil
	}
	old := g.allocS()
	g.b.Emit(isa.Instr{Op: load, Rd: old, Ra: isa.RegNone, Imm: sym.Addr})
	op := assignOps[s.Op]
	if v.isImm {
		g.b.ALUI(op, old, old, v.imm)
	} else {
		g.b.ALU(op, old, old, v.reg)
	}
	g.b.Emit(isa.Instr{Op: store, Ra: isa.RegNone, Imm: sym.Addr, Rb: old})
	return nil
}

// assignElement handles a[idx] op= rhs for shared/local arrays.
func (g *gen) assignElement(s *lang.AssignStmt, lhs *lang.Index) error {
	sym := g.info.SymOf(lhs)
	store, load := isa.ST, isa.LD
	if sym.Space == lang.SpaceLocal {
		store, load = isa.STL, isa.LDL
	}
	idx, err := g.expr(lhs.Idx)
	if err != nil {
		return err
	}
	rhs, err := g.expr(s.RHS)
	if err != nil {
		return err
	}
	base, disp := g.memOperand(idx, sym.Addr)
	if s.Op == lang.TokAssign {
		r := g.materialize(rhs)
		g.b.Emit(isa.Instr{Op: store, Ra: base, Imm: disp, Rb: r})
		return nil
	}
	// Read-modify-write: the load sees the pre-step value (PRAM step
	// semantics) or the current value (NUMA/sequential) — either way this
	// is the element-wise compound update.
	var old isa.Reg
	if idx.thick || rhs.thick {
		old = g.allocV()
	} else {
		old = g.allocS()
	}
	g.b.Emit(isa.Instr{Op: load, Rd: old, Ra: base, Imm: disp})
	op := assignOps[s.Op]
	if rhs.isImm {
		g.b.ALUI(op, old, old, rhs.imm)
	} else {
		g.b.ALU(op, old, old, rhs.reg)
	}
	g.b.Emit(isa.Instr{Op: store, Ra: base, Imm: disp, Rb: old})
	return nil
}

// memOperand converts an index value plus static base address into the
// machine's (base register, displacement) form.
func (g *gen) memOperand(idx value, addr int64) (isa.Reg, int64) {
	if idx.isImm {
		return isa.RegNone, addr + idx.imm
	}
	return idx.reg, addr
}

func (g *gen) ifStmt(s *lang.IfStmt) error {
	m := g.mark()
	cond, err := g.expr(s.Cond)
	if err != nil {
		return err
	}
	condReg := g.materialize(cond)
	elseL := g.label("else")
	endL := g.label("endif")
	g.b.Branch(isa.BEQZ, condReg, elseL)
	g.release(m)
	if err := g.stmt(s.Then); err != nil {
		return err
	}
	if s.Else != nil {
		g.b.Jmp(endL)
	}
	g.b.Label(elseL)
	if s.Else != nil {
		if err := g.stmt(s.Else); err != nil {
			return err
		}
		g.b.Label(endL)
	}
	return nil
}

func (g *gen) whileStmt(s *lang.WhileStmt) error {
	top := g.label("while")
	end := g.label("endwhile")
	g.b.Label(top)
	m := g.mark()
	cond, err := g.expr(s.Cond)
	if err != nil {
		return err
	}
	g.b.Branch(isa.BEQZ, g.materialize(cond), end)
	g.release(m)
	g.loops = append(g.loops, loopLabels{breakL: end, continueL: top})
	err = g.stmt(s.Body)
	g.loops = g.loops[:len(g.loops)-1]
	if err != nil {
		return err
	}
	g.b.Jmp(top)
	g.b.Label(end)
	return nil
}

func (g *gen) forStmt(s *lang.ForStmt) error {
	if s.Init != nil {
		if err := g.stmt(s.Init); err != nil {
			return err
		}
	}
	top := g.label("for")
	post := g.label("forpost")
	end := g.label("endfor")
	g.b.Label(top)
	if s.Cond != nil {
		m := g.mark()
		cond, err := g.expr(s.Cond)
		if err != nil {
			return err
		}
		g.b.Branch(isa.BEQZ, g.materialize(cond), end)
		g.release(m)
	}
	g.loops = append(g.loops, loopLabels{breakL: end, continueL: post})
	err := g.stmt(s.Body)
	g.loops = g.loops[:len(g.loops)-1]
	if err != nil {
		return err
	}
	g.b.Label(post)
	if s.Post != nil {
		if err := g.stmt(s.Post); err != nil {
			return err
		}
	}
	g.b.Jmp(top)
	g.b.Label(end)
	return nil
}

// switchStmt compiles the flow-level switch: the subject is compared
// against the case values in order; exactly one arm executes.
func (g *gen) switchStmt(s *lang.SwitchStmt) error {
	m := g.mark()
	subj, err := g.expr(s.Subject)
	if err != nil {
		return err
	}
	subjReg := g.materialize(subj)
	end := g.label("endswitch")
	labels := make([]string, len(s.Cases))
	defaultLabel := end
	for i, cs := range s.Cases {
		labels[i] = g.label("case")
		if cs.Values == nil {
			defaultLabel = labels[i]
			continue
		}
		for _, v := range cs.Values {
			vm := g.mark()
			val, err := g.expr(v)
			if err != nil {
				return err
			}
			cmp := g.allocS()
			if val.isImm {
				g.b.ALUI(isa.SEQ, cmp, subjReg, val.imm)
			} else {
				g.b.ALU(isa.SEQ, cmp, subjReg, val.reg)
			}
			g.b.Branch(isa.BNEZ, cmp, labels[i])
			g.release(vm)
		}
	}
	g.b.Jmp(defaultLabel)
	g.release(m)
	for i, cs := range s.Cases {
		g.b.Label(labels[i])
		for _, sub := range cs.Body {
			if err := g.stmt(sub); err != nil {
				return err
			}
		}
		g.b.Jmp(end)
	}
	g.b.Label(end)
	return nil
}

func (g *gen) parallelStmt(s *lang.ParallelStmt) error {
	m := g.mark()
	arms := make([]isa.Arm, len(s.Arms))
	labels := make([]string, len(s.Arms))
	for i, arm := range s.Arms {
		labels[i] = g.label("arm")
		v, err := g.expr(arm.Thick)
		if err != nil {
			return err
		}
		if v.isImm {
			arms[i] = isa.ArmImm(v.imm, labels[i])
		} else {
			arms[i] = isa.ArmReg(v.reg, labels[i])
		}
	}
	cont := g.label("join")
	g.b.Split(arms...)
	g.release(m)
	g.b.Jmp(cont) // the parent resumes here after all arms join
	for i, arm := range s.Arms {
		g.b.Label(labels[i])
		saved := g.loops
		g.loops = nil
		err := g.stmt(arm.Body)
		g.loops = saved
		if err != nil {
			return err
		}
		g.b.Op(isa.JOIN)
	}
	g.b.Label(cont)
	return nil
}
