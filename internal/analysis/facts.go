package analysis

import (
	"tcfpram/internal/codegen"
	"tcfpram/internal/diag"
	"tcfpram/internal/lang"
	"tcfpram/internal/sema"
)

// This file builds the facts tables: everything the analyzer learns from a
// checked program that does not depend on Options. Each function body is
// walked exactly once; the walk builds the CFG and, for every leaf statement
// and trailing expression it places in a block, records which registers it
// reads and defines (as dense Sym.Index ids), which memory accesses it
// performs, which functions it calls and which constant-checkable indexings
// it contains. Then, caller before callee, each function's constants are
// folded, its accesses classified and its thickness dataflow solved.
//
// Every vet check of an Analyze run reads the tables instead of walking the
// AST again. They live as long as the run, and they are as large as the AST.
// What outlives them is the one fact Cost needs, the thickness ceiling:
// AnalyzeAndCompile records it on the compiled program, whose load image is
// all the server's cache keeps.

// span is a half-open index range into one of a funcFacts' flat tables.
type span struct{ lo, hi int32 }

// How a leaf statement changes the flow's thickness.
const (
	thickKeep = iota
	thickSet  // #expr;
	thickNuma // #1/expr;
)

// leaf is a leaf statement in its block, with the facts of the walk.
type leaf struct {
	stmt lang.Stmt

	// def is the Sym.Index of the register the statement defines, -1 if it
	// defines none; plain says the definition is a plain `=` assignment
	// (the only kind reported as a dead store) and decl that it is the
	// register's declaration. call says an expression of the statement
	// calls something, intrinsic or not.
	def               int32
	plain, decl, call bool

	// thickOp says how the statement changes thickness; thickVal is its
	// operand when that folds to a constant (thickKnown), filled in when
	// the function's constants are known.
	thickOp    uint8
	thickKnown bool
	thickVal   int64

	uses, sites, calls span
}

// tail is a trailing expression of a block with the facts of the walk.
type tail struct {
	expr               lang.Expr
	uses, sites, calls span
}

// indexSite is a constant-checkable indexing: a[idx] (sev Error) or
// &a[idx] (Warning) of a memory variable.
type indexSite struct {
	pos lang.Pos
	sym *sema.Sym
	idx lang.Expr
	sev diag.Severity
}

// parFacts is one parallel statement: arms[i] spans the accesses of arm i's
// body (nested statements and arms included) in source order.
type parFacts struct {
	stmt *lang.ParallelStmt
	arms []span
}

// constVal is a slot of a constant table.
type constVal struct {
	ok bool
	v  int64
}

// funcFacts is the facts table of one function.
type funcFacts struct {
	pf *progFacts
	fi *sema.FuncInfo
	g  *cfg

	// Flat tables in source order, spanned by leaves, tails and arms: the
	// Sym.Index of registers read, the memory accesses, the
	// FuncInfo.Index of user functions called.
	uses  []int32
	sites []access
	calls []int32

	// decls are the register declarations with an initializer, in source
	// order; defCount counts, by Sym.Index, the definitions of each
	// register in the whole body.
	decls    []*lang.VarDecl
	defCount []int32

	indexes     []indexSite
	pars        []parFacts
	armBarriers []*lang.BarrierStmt // barriers inside a parallel arm

	// What solve adds. regConst holds, by Sym.Index, the provably-constant
	// scalar registers (a single definition that folds); singleDef the
	// defining expression of thick registers defined once, for copy
	// propagation in the index classifier; thickIn the thickness state at
	// entry to each block, by block id.
	entry     thick
	regConst  []constVal
	singleDef []lang.Expr
	thickIn   []thickState
}

// progFacts is the facts table of a program.
type progFacts struct {
	info  *sema.Info
	funcs []*funcFacts // by FuncInfo.Index

	// order is the order functions are analyzed in: those reachable from
	// main callers first (main runs with thickness 1; every other function
	// inherits the join of its call sites), then the rest in declaration
	// order with whatever entry thickness their call sites gave them —
	// running last, they cannot pollute the functions the program uses.
	order []*funcFacts

	// globalConst holds, by Sym.Index, the memory-scalar globals that are
	// provably constant: initialized once, never assigned, never targeted
	// by &.
	globalConst []constVal

	// ceiling is the largest thickness any flow of the functions reachable
	// from main can have: unknown when some reachable state is (a thickness
	// set from a non-constant expression).
	ceiling thick
}

// thickCeiling returns c's thickness ceiling, encoded as
// codegen.Compiled.ThickCeiling is: the one the vet gate recorded, or else
// that of tables built for c's checked program (0 when c has neither).
func thickCeiling(c *codegen.Compiled) int64 {
	if c.ThickCeiling == 0 && c.Info != nil && c.Info.Prog != nil {
		return buildFacts(c.Info).ceiling.recorded()
	}
	return c.ThickCeiling
}

// recorded is t as codegen.Compiled.ThickCeiling holds it.
func (t thick) recorded() int64 {
	if !t.known {
		return -1
	}
	return t.n
}

func buildFacts(info *sema.Info) *progFacts {
	pf := &progFacts{info: info, funcs: make([]*funcFacts, len(info.FuncList))}
	mutated := make([]bool, len(info.Globals))
	for i, fi := range info.FuncList {
		pf.funcs[i] = walkFunc(pf, fi, mutated)
	}
	pf.buildGlobalConst(mutated)

	callThick := make([]thickState, len(pf.funcs))
	reached := make([]bool, len(pf.funcs))
	pf.order = make([]*funcFacts, 0, len(pf.funcs))
	if main := info.Funcs["main"]; main != nil {
		callThick[main.Index] = thickState{seen: true, t: thick{known: true, n: 1}}
		pf.callOrder(main, reached)
	}
	pf.ceiling = thick{known: true, n: 1}
	for _, ff := range pf.order {
		ff.solve(callThick)
		ff.noteCeiling()
	}
	for i, ff := range pf.funcs {
		if !reached[i] {
			ff.solve(callThick)
			pf.order = append(pf.order, ff)
		}
	}
	return pf
}

// buildGlobalConst finds memory-scalar globals whose value cannot change:
// their initializer word (or 0) participates in constant folding.
func (pf *progFacts) buildGlobalConst(mutated []bool) {
	pf.globalConst = make([]constVal, len(pf.info.Globals))
	for i, sym := range pf.info.Globals {
		g := sym.Decl
		if sym.ArrayLen >= 0 || mutated[i] {
			continue
		}
		v := int64(0)
		switch {
		case g.InitExpr != nil:
			fv, ok := foldPlain(g.InitExpr)
			if !ok {
				continue // sema requires const global inits; stay safe anyway
			}
			v = fv
		case len(g.InitList) > 0:
			v = g.InitList[0]
		}
		pf.globalConst[i] = constVal{true, v}
	}
}

// callOrder appends to pf.order the functions reachable from fi in caller-
// before-callee order (sema rejects recursion, so the call graph is a DAG).
func (pf *progFacts) callOrder(fi *sema.FuncInfo, reached []bool) {
	var post []*funcFacts
	var visit func(fi *sema.FuncInfo)
	visit = func(fi *sema.FuncInfo) {
		if fi == nil || reached[fi.Index] {
			return
		}
		reached[fi.Index] = true
		for _, callee := range fi.Calls {
			visit(pf.info.Funcs[callee])
		}
		post = append(post, pf.funcs[fi.Index])
	}
	visit(fi)
	// Post-order lists callees first; reverse for callers-first.
	for i := len(post) - 1; i >= 0; i-- {
		pf.order = append(pf.order, post[i])
	}
}

// ---- the walk ----

// walker builds one function's CFG and flat tables in a single pass over
// its body.
type walker struct {
	ff      *funcFacts
	info    *sema.Info
	mutated []bool // by the Sym.Index of globals: assigned or targeted by &

	cur      *cfgBlock
	free     []cfgBlock // blocks not handed out yet
	loops    []loopCtx
	armDepth int  // parallel arms around the current statement
	call     bool // the expressions walked since it was cleared hold a call
}

func walkFunc(pf *progFacts, fi *sema.FuncInfo, mutated []bool) *funcFacts {
	ff := &funcFacts{pf: pf, fi: fi, g: &cfg{}, defCount: make([]int32, fi.NumRegs)}
	w := &walker{ff: ff, info: pf.info, mutated: mutated}
	g := ff.g
	g.entry = w.newBlock()
	g.exit = w.newBlock()
	w.cur = g.entry
	if body := fi.Decl.Body; body != nil {
		for _, s := range body.Stmts {
			w.stmt(s)
		}
	}
	w.edge(w.cur, g.exit)
	g.markReachable()
	return ff
}

// newBlock takes the next block from a chunk (a function has dozens) and
// points its edge lists, which seldom hold more than two blocks, at the
// block's own room for them.
func (w *walker) newBlock() *cfgBlock {
	if len(w.free) == 0 {
		w.free = make([]cfgBlock, 16)
	}
	bl := &w.free[0]
	w.free = w.free[1:]
	g := w.ff.g
	bl.id = len(g.blocks)
	bl.succs, bl.preds = bl.edges[0:0:2], bl.edges[2:2:4]
	g.blocks = append(g.blocks, bl)
	return bl
}

func (w *walker) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// terminate ends the current block with an edge to target (exit for
// return/halt, a loop block for break/continue) and opens a fresh,
// predecessor-less block: any statements appended there are unreachable.
func (w *walker) terminate(target *cfgBlock) {
	w.edge(w.cur, target)
	w.cur = w.newBlock()
}

func (w *walker) addLeaf(s lang.Stmt) {
	w.cur.leaves = append(w.cur.leaves, w.leaf(s))
}

func (w *walker) addTail(bl *cfgBlock, e lang.Expr) {
	bl.tails = append(bl.tails, w.tail(e))
}

func (w *walker) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		for _, sub := range s.Stmts {
			w.stmt(sub)
		}
	case *lang.VarDecl, *lang.AssignStmt, *lang.ExprStmt,
		*lang.ThickStmt, *lang.NumaStmt:
		w.addLeaf(s)
	case *lang.BarrierStmt:
		if w.armDepth > 0 {
			w.ff.armBarriers = append(w.ff.armBarriers, s)
		}
		w.addLeaf(s)
	case *lang.IfStmt:
		w.addTail(w.cur, s.Cond)
		cond := w.cur
		cv, isConst := foldPlain(s.Cond)
		after := w.newBlock()
		thenB := w.newBlock()
		if !isConst || cv != 0 {
			w.edge(cond, thenB)
		}
		w.cur = thenB
		w.stmt(s.Then)
		w.edge(w.cur, after)
		if s.Else != nil {
			elseB := w.newBlock()
			if !isConst || cv == 0 {
				w.edge(cond, elseB)
			}
			w.cur = elseB
			w.stmt(s.Else)
			w.edge(w.cur, after)
		} else if !isConst || cv == 0 {
			w.edge(cond, after)
		}
		w.cur = after
	case *lang.WhileStmt:
		head := w.newBlock()
		w.edge(w.cur, head)
		w.addTail(head, s.Cond)
		cv, isConst := foldPlain(s.Cond)
		body := w.newBlock()
		after := w.newBlock()
		if !isConst || cv != 0 {
			w.edge(head, body)
		}
		if !isConst || cv == 0 {
			w.edge(head, after)
		}
		w.loops = append(w.loops, loopCtx{brk: after, cont: head})
		w.cur = body
		w.stmt(s.Body)
		w.edge(w.cur, head)
		w.loops = w.loops[:len(w.loops)-1]
		w.cur = after
	case *lang.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		head := w.newBlock()
		w.edge(w.cur, head)
		body := w.newBlock()
		post := w.newBlock()
		after := w.newBlock()
		if s.Cond != nil {
			w.addTail(head, s.Cond)
			cv, isConst := foldPlain(s.Cond)
			if !isConst || cv != 0 {
				w.edge(head, body)
			}
			if !isConst || cv == 0 {
				w.edge(head, after)
			}
		} else {
			w.edge(head, body)
		}
		// The post statement stands before the body in the source, and the
		// flat tables are in source order: its facts are taken here, its
		// place in the graph is after the body.
		if s.Post != nil {
			post.leaves = append(post.leaves, w.leaf(s.Post))
		}
		w.loops = append(w.loops, loopCtx{brk: after, cont: post})
		w.cur = body
		w.stmt(s.Body)
		w.edge(w.cur, post)
		w.loops = w.loops[:len(w.loops)-1]
		w.edge(post, head)
		w.cur = after
	case *lang.SwitchStmt:
		w.addTail(w.cur, s.Subject)
		subj := w.cur
		after := w.newBlock()
		hasDefault := false
		for i := range s.Cases {
			cs := &s.Cases[i]
			if cs.Values == nil {
				hasDefault = true
			}
			for _, v := range cs.Values {
				w.addTail(subj, v)
			}
			cb := w.newBlock()
			w.edge(subj, cb)
			w.cur = cb
			for _, sub := range cs.Body {
				w.stmt(sub)
			}
			w.edge(w.cur, after)
		}
		if !hasDefault {
			w.edge(subj, after)
		}
		w.cur = after
	case *lang.ParallelStmt:
		pre := w.cur
		join := w.newBlock()
		// An enclosing parallel statement goes before the ones in its arms.
		pi := len(w.ff.pars)
		w.ff.pars = append(w.ff.pars, parFacts{stmt: s, arms: make([]span, len(s.Arms))})
		for i := range s.Arms {
			arm := &s.Arms[i]
			w.addTail(pre, arm.Thick)
			ab := w.newBlock()
			ab.arm = arm
			w.edge(pre, ab)
			// Arms run as separate flows: break/continue cannot cross the
			// split (sema enforces this), so the loop stack is hidden.
			saved := w.loops
			w.loops = nil
			w.cur = ab
			lo := int32(len(w.ff.sites))
			w.armDepth++
			w.stmt(arm.Body)
			w.armDepth--
			w.ff.pars[pi].arms[i] = span{lo, int32(len(w.ff.sites))}
			w.edge(w.cur, join)
			w.loops = saved
		}
		if len(s.Arms) == 0 {
			w.edge(pre, join)
		}
		w.cur = join
	case *lang.ReturnStmt, *lang.HaltStmt:
		w.addLeaf(s)
		w.terminate(w.ff.g.exit)
	case *lang.BreakStmt:
		if n := len(w.loops); n > 0 {
			w.terminate(w.loops[n-1].brk)
		} else {
			w.terminate(w.ff.g.exit)
		}
	case *lang.ContinueStmt:
		if n := len(w.loops); n > 0 {
			w.terminate(w.loops[n-1].cont)
		} else {
			w.terminate(w.ff.g.exit)
		}
	default:
		// Unknown statement kinds (future AST growth) conservatively join
		// the current block.
		w.addLeaf(s)
	}
}

// marks are the lengths of the flat tables: a leaf or tail spans what was
// appended between two marks.
type marks struct{ uses, sites, calls int32 }

func (w *walker) marks() marks {
	ff := w.ff
	return marks{int32(len(ff.uses)), int32(len(ff.sites)), int32(len(ff.calls))}
}

func (w *walker) tail(e lang.Expr) tail {
	m := w.marks()
	w.expr(e)
	n := w.marks()
	return tail{expr: e, uses: span{m.uses, n.uses}, sites: span{m.sites, n.sites}, calls: span{m.calls, n.calls}}
}

// leaf collects the facts of one leaf statement. The accesses mirror
// codegen's access widths: a store through an index is thick iff the index
// or the stored value is thick; a load through an index is thick iff the
// index is thick; scalar-variable accesses are always scalar.
// Multioperation intrinsics are exempt — concurrent combining is their
// point — so &-arguments contribute no access (their index expressions,
// evaluated in registers, still do).
//
// The left-hand side of a plain `=` assignment is not a use; a compound
// assignment's is (the old value is loaded), and an indexed left-hand side
// uses the registers in its index expression.
func (w *walker) leaf(s lang.Stmt) leaf {
	ff := w.ff
	lf := leaf{stmt: s, def: -1}
	m := w.marks()
	w.call = false
	switch s := s.(type) {
	case *lang.VarDecl:
		w.expr(s.InitExpr)
		if sym := w.info.SymOf(s); sym != nil && sym.Space == lang.SpaceReg {
			lf.def, lf.decl = int32(sym.Index), true
			ff.defCount[sym.Index]++
			if s.InitExpr != nil {
				ff.decls = append(ff.decls, s)
			}
		}
	case *lang.AssignStmt:
		w.expr(s.RHS)
		sym := w.info.SymOf(s.LHS)
		if sym == nil {
			break
		}
		reg := sym.Space == lang.SpaceReg
		if !reg {
			w.mutated[sym.Index] = true
		}
		switch lhs := s.LHS.(type) {
		case *lang.Ident:
			if reg {
				lf.def, lf.plain = int32(sym.Index), s.Op == lang.TokAssign
				ff.defCount[sym.Index]++
				if !lf.plain {
					ff.uses = append(ff.uses, int32(sym.Index))
				}
				break
			}
			if s.Op != lang.TokAssign {
				ff.sites = append(ff.sites, access{pos: lhs.Pos, sym: sym})
			}
			ff.sites = append(ff.sites, access{pos: lhs.Pos, sym: sym, write: true})
		case *lang.Index:
			w.expr(lhs.Idx)
			if reg {
				break
			}
			ff.indexes = append(ff.indexes, indexSite{lhs.Pos, sym, lhs.Idx, diag.Error})
			idxThick := w.info.IsThick(lhs.Idx)
			if s.Op != lang.TokAssign {
				ff.sites = append(ff.sites, access{pos: lhs.Pos, sym: sym, thick: idxThick, idxExpr: lhs.Idx})
			}
			ff.sites = append(ff.sites, access{pos: lhs.Pos, sym: sym, write: true,
				thick: idxThick || w.info.IsThick(s.RHS), idxExpr: lhs.Idx})
		}
	case *lang.ExprStmt:
		w.expr(s.X)
	case *lang.ThickStmt:
		lf.thickOp = thickSet
		w.expr(s.X)
	case *lang.NumaStmt:
		lf.thickOp = thickNuma
		w.expr(s.X)
	case *lang.ReturnStmt:
		w.expr(s.X)
	}
	lf.call = w.call
	n := w.marks()
	lf.uses, lf.sites, lf.calls = span{m.uses, n.uses}, span{m.sites, n.sites}, span{m.calls, n.calls}
	return lf
}

// expr walks an expression once, appending what it reads, loads and calls
// to the flat tables.
func (w *walker) expr(e lang.Expr) {
	ff := w.ff
	switch e := e.(type) {
	case *lang.Ident:
		sym := w.info.SymOf(e)
		switch {
		case sym == nil: // a builtin
		case sym.Space == lang.SpaceReg:
			ff.uses = append(ff.uses, int32(sym.Index))
		default:
			ff.sites = append(ff.sites, access{pos: e.Pos, sym: sym})
		}
	case *lang.Index:
		if sym := w.info.SymOf(e); sym != nil && sym.Space != lang.SpaceReg {
			ff.sites = append(ff.sites, access{pos: e.Pos, sym: sym, thick: w.info.IsThick(e.Idx), idxExpr: e.Idx})
			ff.indexes = append(ff.indexes, indexSite{e.Pos, sym, e.Idx, diag.Error})
		}
		w.expr(e.Idx)
	case *lang.AddrOf:
		if sym := w.info.SymOf(e); sym != nil && sym.Space != lang.SpaceReg {
			w.mutated[sym.Index] = true
			if e.Idx != nil {
				// Address computation: out-of-range is still suspicious
				// (multiops write through it) but kept a warning.
				ff.indexes = append(ff.indexes, indexSite{e.Pos, sym, e.Idx, diag.Warning})
			}
		}
		if e.Idx != nil {
			w.expr(e.Idx)
		}
	case *lang.Call:
		w.call = true
		if fi := w.info.Funcs[e.Name]; fi != nil {
			ff.calls = append(ff.calls, int32(fi.Index))
		}
		for _, a := range e.Args {
			w.expr(a)
		}
	case *lang.Unary:
		w.expr(e.X)
	case *lang.Binary:
		w.expr(e.X)
		w.expr(e.Y)
	}
}

// ---- solving ----

// solve folds the function's constants, classifies its accesses and runs
// its thickness dataflow from the entry thickness its call sites gave it,
// then joins the thickness at its own call sites into its callees'.
func (ff *funcFacts) solve(callThick []thickState) {
	info := ff.pf.info
	ff.entry = callThick[ff.fi.Index].t

	// Source order matters: a later constant local may fold through an
	// earlier one.
	ff.regConst = make([]constVal, ff.fi.NumRegs)
	ff.singleDef = make([]lang.Expr, ff.fi.NumRegs)
	for _, d := range ff.decls {
		sym := info.SymOf(d)
		if ff.defCount[sym.Index] != 1 {
			continue
		}
		if sym.Thick {
			ff.singleDef[sym.Index] = d.InitExpr
		} else if v, folded := ff.fold(d.InitExpr); folded {
			ff.regConst[sym.Index] = constVal{true, v}
		}
	}

	for i := range ff.sites {
		acc := &ff.sites[i]
		switch {
		case acc.idxExpr == nil:
			acc.idx = commonVal(0)
		case i > 0 && ff.sites[i-1].idxExpr == acc.idxExpr:
			acc.idx = ff.sites[i-1].idx // the load and the store of a compound assignment
		default:
			acc.idx = ff.classify(acc.idxExpr, 0)
		}
	}

	for _, bl := range ff.g.blocks {
		for i := range bl.leaves {
			lf := &bl.leaves[i]
			switch s := lf.stmt.(type) {
			case *lang.ThickStmt:
				lf.thickVal, lf.thickKnown = ff.fold(s.X)
			case *lang.NumaStmt:
				lf.thickVal, lf.thickKnown = ff.fold(s.X)
			}
		}
		if bl.arm != nil {
			if v, ok := ff.fold(bl.arm.Thick); ok {
				bl.armThick = thick{known: true, n: v}
			}
		}
	}

	ff.thicknessDataflow()

	// Join the flow thickness at every reachable call site into the entry
	// state of the function called.
	join := func(calls span, t thick) {
		for _, callee := range ff.calls[calls.lo:calls.hi] {
			callThick[callee] = callThick[callee].join(t)
		}
	}
	for _, bl := range ff.g.blocks {
		if !bl.reachable {
			continue
		}
		t := ff.thickIn[bl.id].t
		for i := range bl.leaves {
			lf := &bl.leaves[i]
			join(lf.calls, t)
			t = lf.transfer(t)
		}
		for i := range bl.tails {
			join(bl.tails[i].calls, t)
		}
	}
}

// noteCeiling raises the program's thickness ceiling to what the function's
// reachable blocks reach on entry and after each statement, and its arms.
func (ff *funcFacts) noteCeiling() {
	ceiling := &ff.pf.ceiling
	note := func(t thick) {
		if !t.known {
			ceiling.known = false
			return
		}
		if t.n > ceiling.n {
			ceiling.n = t.n
		}
	}
	for _, bl := range ff.g.blocks {
		st := ff.thickIn[bl.id]
		if !st.seen || !bl.reachable {
			continue
		}
		t := st.t
		note(t)
		for i := range bl.leaves {
			t = bl.leaves[i].transfer(t)
			note(t)
		}
		if bl.arm != nil {
			note(bl.armThick)
		}
	}
}
