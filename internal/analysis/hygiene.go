package analysis

import (
	"tcfpram/internal/diag"
	"tcfpram/internal/lang"
)

// checkBounds flags constant indices that provably land outside their
// array, and constant non-zero indexing of scalar memory variables (which
// silently aliases a neighboring word).
func (a *analyzer) checkBounds(ff *funcFacts) {
	for i := range ff.indexes {
		ix := &ff.indexes[i]
		sym := ix.sym
		v, ok := ff.fold(ix.idx)
		if !ok {
			continue
		}
		if sym.ArrayLen < 0 {
			if v != 0 {
				d := a.report(diag.New(ix.pos, diag.Warning, "index-out-of-range",
					"indexing scalar variable %s with constant %d accesses a neighboring word", sym.Name, v))
				d.Addr, d.AddrEnd = sym.Addr+v, sym.Addr+v+1
			}
			continue
		}
		if v < 0 || v >= int64(sym.ArrayLen) {
			d := a.report(diag.New(ix.pos, ix.sev, "index-out-of-range",
				"constant index %d is out of range for %s[%d]", v, sym.Name, sym.ArrayLen))
			d.Addr, d.AddrEnd = sym.Addr+v, sym.Addr+v+1
		}
	}
}

// checkPlacements flags explicitly placed (@addr) globals whose word
// intervals overlap another global in the same memory space.
func (a *analyzer) checkPlacements() {
	type region struct {
		decl *lang.VarDecl
		lo   int64
		hi   int64
	}
	var bySpace [lang.SpaceLocal + 1][]region
	for _, sym := range a.pf.info.Globals {
		g := sym.Decl
		n := int64(1)
		if sym.ArrayLen >= 0 {
			n = int64(sym.ArrayLen)
			if n < 1 {
				n = 1
			}
		}
		bySpace[sym.Space] = append(bySpace[sym.Space],
			region{decl: g, lo: sym.Addr, hi: sym.Addr + n})
	}
	for _, regs := range bySpace {
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				x, y := regs[i], regs[j]
				if x.lo < y.hi && y.lo < x.hi {
					// Report at the later declaration in source order.
					if y.decl.Pos.Line < x.decl.Pos.Line {
						x, y = y, x
					}
					d := a.report(diag.New(y.decl.Pos, diag.Warning, "address-overlap",
						"@ placement of %s (words %d..%d) overlaps %s (words %d..%d)",
						y.decl.Name, y.lo, y.hi-1, x.decl.Name, x.lo, x.hi-1))
					lo, hi := max(x.lo, y.lo), min(x.hi, y.hi)
					d.Addr, d.AddrEnd = lo, hi
				}
			}
		}
	}
}
