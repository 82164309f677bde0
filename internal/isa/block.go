package isa

// Block discovery: a program partitions
// into straight-line instruction runs bounded by control transfers, branch
// targets and memory-resolution boundaries. A run of Fusible instructions
// can execute as one superinstruction — no memory system, combining network,
// output buffer or flow-structure interaction can occur inside it, so an
// engine may execute the whole run back to back and touch the shared-memory
// resolver only at the run's boundary.

// Thick reports whether the instruction executes one operation per lane of
// the flow running it (as opposed to a single flow-level operation). The
// property depends only on the instruction encoding — register classes and
// the opcode — never on flow state.
func (in Instr) Thick() bool {
	switch in.Op.Info().Args {
	case ArgsDImm, ArgsD:
		return in.Rd.IsVector()
	case ArgsDA, ArgsDAB, ArgsDABC, ArgsDMem, ArgsDMemB:
		return in.Rd.IsVector()
	case ArgsMemB: // ST, STL, multioperations
		// Multioperations are inherently per-thread: every implicit
		// thread contributes, even when both operands are flow-common.
		if in.Op.IsMultiop() {
			return true
		}
		return in.Ra.IsVector() || in.Rb.IsVector()
	case ArgsSV: // reductions read every lane
		return true
	case ArgsSrc:
		return in.Op == PRINT && !in.HasImm && in.Ra.IsVector()
	}
	return false
}

// Sliceable reports whether the instruction can be split lane-by-lane across
// steps (the Balanced variant's budget discipline): thick, and not one of
// the flow-atomic thick forms (reductions, PRINT).
func (in Instr) Sliceable() bool {
	return in.Thick() && !in.Op.IsReduction() && in.Op != PRINT
}

// Fusible reports whether op may live inside a fused straight-line run: a
// pure register-file operation with no memory reference, no combining
// traffic, no output, and no flow-level control or structure effect. Every
// other opcode is a fusion boundary — it interacts with step-resolved
// machinery (shared/local memory, combiners, the output buffer) or with the
// flow population, so a fused run must end at it.
func (op Op) Fusible() bool {
	info := op.Info()
	if info.Control || info.MemRef || info.LocalRef {
		return false
	}
	if op.IsReduction() {
		return false
	}
	switch op {
	case NOP, PRINT, PRINTS:
		// NOP is flow-atomic (it generates a scalar slice, not lane work);
		// PRINT/PRINTS append to the step-resolved output buffer.
		return false
	}
	return true
}

// Block is one discovered straight-line run: instructions [Start, End).
// Fused reports whether the run consists of Fusible instructions (a
// superinstruction candidate); non-fusible instructions appear as singleton
// blocks with Fused == false.
type Block struct {
	Start, End int
	Fused      bool
}

// Len returns the number of instructions in the block.
func (b Block) Len() int { return b.End - b.Start }

// leaders marks every PC that must start a new block: the program entry,
// every control-transfer target (branch, call, split arm), and every
// call-return continuation (CALL pushes PC+1, so PC+1 is reachable
// non-sequentially).
func leaders(p *Program) []bool {
	lead := make([]bool, p.Len()+1)
	VisitLeaders(p, func(pc int) { lead[pc] = true })
	return lead
}

// VisitLeaders calls mark with every PC leaders marks, some more than once,
// each in [0, p.Len()], allocating nothing.
func VisitLeaders(p *Program, mark func(pc int)) {
	visit := func(pc int) {
		if pc >= 0 && pc <= p.Len() {
			mark(pc)
		}
	}
	visit(0)
	visit(p.Entry())
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		switch info := in.Op.Info(); info.Args {
		case ArgsTgt, ArgsCondTgt:
			visit(int(in.Target))
			visit(pc + 1) // fall-through / continuation after the transfer
		case ArgsSplit:
			for _, arm := range p.Arms(*in) {
				visit(arm.Target)
			}
			visit(pc + 1) // the parent's resume PC
		default:
			if info.Control {
				visit(pc + 1)
			}
		}
	}
}

// Blocks partitions p into straight-line runs: maximal sequences of Fusible
// instructions containing no interior branch target, plus singleton blocks
// for every fusion boundary (control transfers, memory-resolution ops,
// reductions, outputs). The blocks tile [0, p.Len()) exactly, in order.
func Blocks(p *Program) []Block {
	n := p.Len()
	if n == 0 {
		return nil
	}
	lead := leaders(p)
	var blocks []Block
	for pc := 0; pc < n; {
		if !p.Instrs[pc].Op.Fusible() {
			blocks = append(blocks, Block{Start: pc, End: pc + 1})
			pc++
			continue
		}
		end := pc + 1
		for end < n && p.Instrs[end].Op.Fusible() && !lead[end] {
			end++
		}
		blocks = append(blocks, Block{Start: pc, End: end, Fused: true})
		pc = end
	}
	return blocks
}

// RunLengths returns, for every PC, the length of the fused straight-line
// run starting there: rl[pc] > 1 means instructions [pc, pc+rl[pc]) are all
// Fusible with no interior branch target, so an engine may execute them as
// one superinstruction. Every suffix of a run is itself a run (a branch may
// land mid-block), so rl decreases by one along a run; fusion boundaries
// have rl == 1. The runs are the Fused blocks of Blocks, read off the
// leaders back to front without building the block list.
func RunLengths(p *Program) []int {
	n := p.Len()
	rl := make([]int, n)
	lead := leaders(p)
	for pc := n - 1; pc >= 0; pc-- {
		rl[pc] = 1
		if pc+1 < n && !lead[pc+1] && p.Instrs[pc].Op.Fusible() && p.Instrs[pc+1].Op.Fusible() {
			rl[pc] += rl[pc+1]
		}
	}
	return rl
}
