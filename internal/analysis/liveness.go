package analysis

import (
	"tcfpram/internal/diag"
	"tcfpram/internal/lang"
)

// bitset is a set of small dense ids: register symbols by Sym.Index here,
// pages of shared memory in the cost executor.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) add(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) del(i int32)      { b[i>>6] &^= 1 << (i & 63) }

// liveness runs a backward fixpoint computing, for each block, the set of
// register symbols live at block exit; then reports dead stores: plain `=`
// assignments to registers whose value is never read afterwards.
//
// A block's transfer function is live-in = gen ∪ (live-out − kill); gen and
// kill come from one backward pass over the block's recorded uses and
// definitions, and the fixpoint is word operations on bitsets.
func (a *analyzer) liveness(ff *funcFacts) {
	blocks := ff.g.blocks
	words := (ff.fi.NumRegs + 63) / 64
	if words == 0 {
		return // no register to be dead
	}
	sets := make(bitset, 3*words*len(blocks)+words)
	set := func(k, id int) bitset { return sets[(3*id+k)*words : (3*id+k+1)*words] }
	gen := func(bl *cfgBlock) bitset { return set(0, bl.id) }
	kill := func(bl *cfgBlock) bitset { return set(1, bl.id) }
	out := func(bl *cfgBlock) bitset { return set(2, bl.id) }
	live := sets[3*words*len(blocks):]

	for _, bl := range blocks {
		g, k := gen(bl), kill(bl)
		for i := len(bl.tails) - 1; i >= 0; i-- {
			for _, u := range ff.uses[bl.tails[i].uses.lo:bl.tails[i].uses.hi] {
				g.add(u)
			}
		}
		for i := len(bl.leaves) - 1; i >= 0; i-- {
			lf := &bl.leaves[i]
			if lf.def >= 0 && (lf.plain || lf.decl) {
				g.del(lf.def)
				k.add(lf.def)
			}
			for _, u := range ff.uses[lf.uses.lo:lf.uses.hi] {
				g.add(u)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			bl := blocks[i]
			g, k, o := gen(bl), kill(bl), out(bl)
			for w := range live {
				live[w] = g[w] | o[w]&^k[w]
			}
			for _, pred := range bl.preds {
				po := out(pred)
				for w := range live {
					if live[w]&^po[w] != 0 {
						po[w] |= live[w]
						changed = true
					}
				}
			}
		}
	}

	// Reporting pass: replay each reachable block backward and flag plain
	// stores into dead registers.
	for _, bl := range blocks {
		if !bl.reachable {
			continue
		}
		copy(live, out(bl))
		for i := len(bl.tails) - 1; i >= 0; i-- {
			for _, u := range ff.uses[bl.tails[i].uses.lo:bl.tails[i].uses.hi] {
				live.add(u)
			}
		}
		for i := len(bl.leaves) - 1; i >= 0; i-- {
			lf := &bl.leaves[i]
			if lf.def >= 0 {
				// A store whose right-hand side calls a function still has
				// effects; only the binding is dead, which is too noisy to
				// flag.
				if lf.plain && !live.has(lf.def) && !lf.call {
					a.report(diag.New(lf.stmt.GetPos(), diag.Warning, "dead-store",
						"value assigned to %s is never used", lf.stmt.(*lang.AssignStmt).LHS.(*lang.Ident).Name))
				}
				if lf.plain || lf.decl {
					live.del(lf.def)
				}
			}
			for _, u := range ff.uses[lf.uses.lo:lf.uses.hi] {
				live.add(u)
			}
		}
	}
}

// reportUnreachable flags statements in blocks the CFG cannot reach: code
// after halt/return/break/continue and branches behind constant conditions.
// Only the first statement of each unreachable region is reported.
func (a *analyzer) reportUnreachable(ff *funcFacts) {
	var reported []bool // by block id, allocated at the first finding
	for _, bl := range ff.g.blocks {
		// Blocks are in creation (≈ source) order, so the first
		// statement-bearing block of a region is seen before the blocks
		// markRegion suppresses. Empty blocks carry nothing to point at.
		if bl.reachable || len(bl.leaves) == 0 || reported != nil && reported[bl.id] {
			continue
		}
		if reported == nil {
			reported = make([]bool, len(ff.g.blocks))
		}
		a.report(diag.New(bl.leaves[0].stmt.GetPos(), diag.Warning, "unreachable-code", "unreachable code"))
		markRegion(bl, reported)
	}
}

// markRegion suppresses duplicate reports for blocks downstream of an
// already-reported unreachable region.
func markRegion(root *cfgBlock, reported []bool) {
	work := []*cfgBlock{root}
	reported[root.id] = true
	for len(work) > 0 {
		bl := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range bl.succs {
			if !s.reachable && !reported[s.id] {
				reported[s.id] = true
				work = append(work, s)
			}
		}
	}
}
