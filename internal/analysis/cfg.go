package analysis

import (
	"tcfpram/internal/lang"
)

// cfgBlock is one basic block of the flow-level CFG: a run of leaf
// statements executed in order, followed by zero or more trailing
// expressions (branch conditions, switch subjects and case values,
// parallel-arm thickness expressions) evaluated at the block's end. Both
// carry the facts the walk that built the graph collected about them.
type cfgBlock struct {
	id     int
	leaves []leaf
	tails  []tail

	succs, preds []*cfgBlock
	edges        [4]*cfgBlock // room for the first two of each

	// arm is set on the entry block of a parallel arm: thickness inside the
	// arm is the arm's declared thickness (armThick, once the function's
	// constants are known), not the parent flow's.
	arm       *lang.ParArm
	armThick  thick
	reachable bool
}

// cfg is the flow-level control-flow graph of one function. Edges follow
// the structured control of tcf-e: branches, loops (with break/continue),
// switch arms, and parallel splits joining at the statement's end. Edges
// out of constant conditions are pruned, so code behind `if (0)` or after
// `while (1)` shows up as unreachable.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

type loopCtx struct {
	brk, cont *cfgBlock
}

func (g *cfg) markReachable() {
	work := []*cfgBlock{g.entry}
	g.entry.reachable = true
	for len(work) > 0 {
		bl := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range bl.succs {
			if !s.reachable {
				s.reachable = true
				work = append(work, s)
			}
		}
	}
}
