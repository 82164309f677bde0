package analysis

// thick is the thickness-analysis lattice value: either a known constant
// thread count or unknown.
type thick struct {
	known bool
	n     int64
}

func joinThick(a, b thick) thick {
	if a.known && b.known && a.n == b.n {
		return a
	}
	return thick{}
}

// thickState distinguishes "not yet reached" (seen == false) from a real
// lattice value, so the first propagation into a block just adopts it.
type thickState struct {
	seen bool
	t    thick
}

func (s thickState) join(t thick) thickState {
	if !s.seen {
		return thickState{seen: true, t: t}
	}
	return thickState{seen: true, t: joinThick(s.t, t)}
}

// thicknessDataflow runs a forward fixpoint over the CFG computing the
// thickness at entry to every block. Thickness changes at `thickness N;`
// statements, `numa` statements (thickness 1 per bunch flow) and on entry
// to parallel arms (the arm's declared thickness).
func (ff *funcFacts) thicknessDataflow() {
	g := ff.g
	ff.thickIn = make([]thickState, len(g.blocks))
	ff.thickIn[g.entry.id] = thickState{seen: true, t: ff.entry}

	work := make([]*cfgBlock, 1, len(g.blocks))
	work[0] = g.entry
	inWork := make([]bool, len(g.blocks))
	inWork[g.entry.id] = true
	for len(work) > 0 {
		bl := work[0]
		work = work[1:]
		inWork[bl.id] = false

		out := ff.blockOutThick(bl)
		for _, succ := range bl.succs {
			in := out
			if succ.arm != nil {
				in = succ.armThick
			}
			old := ff.thickIn[succ.id]
			next := old.join(in)
			if next != old {
				ff.thickIn[succ.id] = next
				if !inWork[succ.id] {
					work = append(work, succ)
					inWork[succ.id] = true
				}
			}
		}
	}
}

// blockOutThick replays a block's statements over its entry thickness.
func (ff *funcFacts) blockOutThick(bl *cfgBlock) thick {
	t := ff.thickIn[bl.id].t
	for i := range bl.leaves {
		t = bl.leaves[i].transfer(t)
	}
	return t
}

// transfer is the thickness after the statement, given the one before it.
func (lf *leaf) transfer(t thick) thick {
	switch lf.thickOp {
	case thickSet:
		if lf.thickKnown {
			return thick{known: true, n: lf.thickVal}
		}
		return thick{}
	case thickNuma:
		// NUMA execution turns the flow into single-thread bunches.
		return thick{known: true, n: 1}
	}
	return t
}
