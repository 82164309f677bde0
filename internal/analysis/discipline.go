package analysis

import (
	"fmt"

	"tcfpram/internal/diag"
	"tcfpram/internal/lang"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
)

// access is one shared/local-memory access a statement performs: which
// symbol, whether it writes, whether the access is thick (one address per
// thread) and the classification of its index expression. The walk records
// the access with its index expression (nil: a scalar variable, index 0);
// solve classifies it.
type access struct {
	pos     lang.Pos
	sym     *sema.Sym
	write   bool
	thick   bool
	idxExpr lang.Expr
	idx     idxInfo
}

// addrRange resolves the access to a [lo,hi) word interval when possible:
// the exact word for flow-common indices, the whole array otherwise.
func (acc *access) addrRange() (lo, hi int64) {
	if acc.idx.kind == idxCommon && acc.idx.valKnown {
		lo = acc.sym.Addr + acc.idx.val
		return lo, lo + 1
	}
	if acc.sym.ArrayLen >= 0 {
		n := int64(acc.sym.ArrayLen)
		if n < 1 {
			n = 1
		}
		return acc.sym.Addr, acc.sym.Addr + n
	}
	return acc.sym.Addr, acc.sym.Addr + 1
}

// checkBlocks replays every reachable block over its entry thickness,
// running the per-statement discipline and thickness-sanity checks.
func (a *analyzer) checkBlocks(ff *funcFacts) {
	for _, bl := range ff.g.blocks {
		if !bl.reachable {
			continue
		}
		t := ff.thickIn[bl.id].t
		for i := range bl.leaves {
			lf := &bl.leaves[i]
			a.checkThickness(lf)
			a.checkAccesses(ff, lf.sites, t)
			t = lf.transfer(t)
		}
		for i := range bl.tails {
			a.checkAccesses(ff, bl.tails[i].sites, t)
		}
	}
}

// checkThickness flags thickness and bunch-length statements whose operand
// is a constant the machine cannot make progress with.
func (a *analyzer) checkThickness(lf *leaf) {
	if !lf.thickKnown {
		return
	}
	v, pos := lf.thickVal, lf.stmt.GetPos()
	switch {
	case lf.thickOp == thickSet && v == 0:
		a.report(diag.New(pos, diag.Warning, "zero-thickness",
			"thickness set to the constant 0: no threads execute the region that follows"))
	case lf.thickOp == thickSet && v < 0:
		a.report(diag.New(pos, diag.Error, "negative-thickness",
			"thickness set to the constant %d; the machine rejects negative thickness", v))
	case lf.thickOp == thickNuma && v <= 0:
		a.report(diag.New(pos, diag.Warning, "zero-thickness",
			"NUMA bunch length is the constant %d; it must be positive to make progress", v))
	}
}

// checkAccesses reports a discipline violation for every access of sites in
// which one thick instruction provably touches the same word from two
// threads in one step.
func (a *analyzer) checkAccesses(ff *funcFacts, sites span, t thick) {
	d := a.opts.Discipline
	if !d.Checks() {
		return
	}
	for i := sites.lo; i < sites.hi; i++ {
		acc := &ff.sites[i]
		if !acc.thick || !acc.idx.collides(t) {
			continue
		}
		if acc.write {
			a.reportAccess(acc, t, "concurrent-write",
				"concurrent write to %s under %s: %s")
		} else if d == mem.DisciplineEREW {
			a.reportAccess(acc, t, "concurrent-read",
				"concurrent read of %s under %s: %s")
		}
	}
}

func (a *analyzer) reportAccess(acc *access, t thick, check, format string) {
	d := a.report(diag.New(acc.pos, diag.Error, check, format,
		acc.sym.Name, a.opts.Discipline, collideWhy(acc.idx, t)))
	d.Addr, d.AddrEnd = acc.addrRange()
}

func collideWhy(i idxInfo, t thick) string {
	switch i.kind {
	case idxCommon:
		if i.valKnown {
			return fmt.Sprintf("all %d threads access index %d in one step", t.n, i.val)
		}
		return fmt.Sprintf("the index is flow-common across all %d threads", t.n)
	case idxMod:
		return fmt.Sprintf("the index takes at most %d distinct values over %d threads", i.mod, t.n)
	case idxDup:
		return fmt.Sprintf("the index provably repeats among the %d threads", t.n)
	}
	return "the index provably collides"
}

// checkParallel checks, for every parallel statement of the function, arm
// thickness sanity and constant-address conflicts between sibling arms
// (arms run as concurrent flows, so same-step accesses to one word are
// possible), and flags barriers inside arms on lockstep variants.
func (a *analyzer) checkParallel(ff *funcFacts) {
	if a.opts.Variant.Props().Lockstep {
		for _, b := range ff.armBarriers {
			a.report(diag.New(b.Pos, diag.Warning, "barrier-in-parallel",
				"barrier inside a parallel arm: on lockstep variants sibling arms "+
					"advance one instruction per step and a barrier here can deadlock "+
					"arms of different lengths"))
		}
	}
	for i := range ff.pars {
		a.checkParallelStmt(ff, &ff.pars[i])
	}
}

func (a *analyzer) checkParallelStmt(ff *funcFacts, p *parFacts) {
	// Arm thickness sanity.
	for i := range p.stmt.Arms {
		arm := &p.stmt.Arms[i]
		if v, ok := ff.fold(arm.Thick); ok {
			if v == 0 {
				a.report(diag.New(arm.Pos, diag.Warning, "zero-thickness",
					"parallel arm with constant thickness 0 spawns no threads"))
			} else if v < 0 {
				a.report(diag.New(arm.Pos, diag.Error, "negative-thickness",
					"parallel arm thickness is the constant %d; the machine rejects negative thickness", v))
			}
		}
	}
	d := a.opts.Discipline
	if !d.Checks() {
		return
	}
	// Constant-address conflict check between sibling arms: every access
	// in an arm body whose address is a compile-time constant (flow-common
	// known index or scalar variable).
	type armAcc struct {
		arm  int
		addr int64
		acc  *access
	}
	var all []armAcc
	for i, sp := range p.arms {
		for k := sp.lo; k < sp.hi; k++ {
			acc := &ff.sites[k]
			lo, hi := acc.addrRange()
			if hi != lo+1 || acc.idx.kind != idxCommon || !acc.idx.valKnown {
				continue
			}
			all = append(all, armAcc{arm: i, addr: lo, acc: acc})
		}
	}
	type pairKey struct {
		addr  int64
		arm   int
		check string
	}
	var seen map[pairKey]bool
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			x, y := all[i], all[j]
			if x.arm == y.arm || x.addr != y.addr {
				continue
			}
			var check string
			switch {
			case x.acc.write && y.acc.write:
				check = "concurrent-write"
			case x.acc.write || y.acc.write:
				check = "read-write-overlap"
			case d == mem.DisciplineEREW:
				check = "concurrent-read"
			default:
				continue
			}
			key := pairKey{x.addr, y.arm, check}
			if seen[key] {
				continue
			}
			if seen == nil {
				seen = map[pairKey]bool{}
			}
			seen[key] = true
			dg := a.report(diag.New(y.acc.pos, diag.Warning, check,
				"parallel arms may %s %s (word %d) in the same step under %s: "+
					"sibling arm access at %s",
				pairVerb(x.acc.write, y.acc.write), y.acc.sym.Name, x.addr,
				d, x.acc.pos))
			dg.Addr, dg.AddrEnd = x.addr, x.addr+1
		}
	}
}

func pairVerb(w1, w2 bool) string {
	switch {
	case w1 && w2:
		return "both write"
	case w1 || w2:
		return "read and write"
	}
	return "both read"
}
