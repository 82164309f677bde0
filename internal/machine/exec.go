package machine

import (
	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/tcf"
)

// SliceExec records one executed slice bundle for tracing: flow f on group
// g/slot s executed lanes [FirstLane, FirstLane+Lanes) of the instruction at
// PC (Lanes = 1 per instruction in NUMA bunches).
type SliceExec struct {
	Group, Slot int
	Flow        int
	PC          int
	Op          isa.Op
	FirstLane   int
	Lanes       int
	NUMA        bool
}

// StepRecord is one step of the execution trace, including the step's
// per-stage cost attribution (Figure 13 pipeline stages).
type StepRecord struct {
	Step        int64
	Cycles      int64
	GroupCycles []int64
	Slices      []SliceExec
	Stages      [NumStages]StageStats
	// DiscReads/DiscWrites are the step's accesses recorded by the
	// memory-discipline cross-checker (zero when Config.MemDiscipline is
	// off).
	DiscReads  int64
	DiscWrites int64
}

// fetch returns the table entry of the instruction at f.PC, counting the
// fetch; a PC past the end halts the flow (falling off the program) and
// yields nil.
func (x *groupExec) fetch(f *tcf.Flow) *fuse.Instr {
	code := x.m.code
	if uint(f.PC) >= uint(len(code)) {
		x.halt(f)
		return nil
	}
	x.fetches++
	f.InstrFetches++
	return &code[f.PC]
}

// execWhole executes one fetched instruction across its full width w (in
// operation slices). Class and thickness were decided when the program was
// loaded; a register instruction with a compiled kernel runs it, everything
// else — on a reference machine every instruction — takes the reference paths.
func (x *groupExec) execWhole(f *tcf.Flow, slot int, fi *fuse.Instr, w int) {
	in := &fi.In
	if fragmentUnsafe(f, in) {
		x.failf("flow %d: %s funnels thread-wise data into flow-common state inside an auto-split fragment; disable AutoSplitThreshold for this program", f.ID, in.Op)
		return
	}
	x.record(f, slot, in.Op, 0, w, f.Mode == tcf.NUMA)
	switch {
	case fi.Class == fuse.ClassControl:
		x.scalarOps++
		x.applyControl(f, in)
		return
	case fi.Sliceable:
		x.execLaneRange(f, fi, 0, w)
		x.ops += int64(w)
	default:
		// Flow-level: a thin operation (through its kernel, if it has one),
		// a reduction, an output.
		if fi.Kern != nil {
			fi.Kern(x.fenv, f, 0, 1)
			x.kern.BulkLanes++
		} else {
			x.execAtomic(f, in)
		}
		if w <= 1 {
			x.scalarOps++
		} else {
			x.ops += int64(w)
		}
	}
	f.PC++
}

// execNUMABunch executes up to n consecutive instructions of a NUMA-mode
// flow (thickness 1/T) with sequential semantics. It returns the number of
// instructions executed. Under buffered (lockstep) semantics the flow's own
// same-step stores forward to its later loads, and the step commits one store
// per word the bunch stored, its last, in the order the words were first
// stored; a bunch that stores nothing pays for neither the table nor its
// clearing.
func (x *groupExec) execNUMABunch(f *tcf.Flow, slot, n int) int {
	if len(x.fwdAddrs) > 0 {
		x.fwdAddrs = x.fwdAddrs[:0]
		clear(x.fwd)
	}
	x.fwdOn = !x.immediate
	executed, kerns := x.numaBunch(f, slot, n)
	x.fwdOn = false
	for i, addr := range x.fwdAddrs {
		x.writes.Append(addr, x.fwd[addr], mem.Key{Flow: f.ID, Seq: i})
	}
	// Counted per bunch, not per instruction: a NUMA chain is nothing but
	// such instructions.
	x.kern.BulkLanes += kerns
	x.kern.RunInstrs += kerns
	return executed
}

// numaBunch returns the instructions executed and how many of them ran
// through their compiled kernels.
func (x *groupExec) numaBunch(f *tcf.Flow, slot, n int) (executed int, kerns int64) {
	for k := 0; k < n; k++ {
		if f.State != tcf.Ready || x.err != nil {
			break
		}
		fi := x.fetch(f)
		if fi == nil {
			break
		}
		in := &fi.In
		executed++
		if fi.Class == fuse.ClassControl {
			x.record(f, slot, in.Op, 0, 1, true)
			x.scalarOps++
			x.applyControl(f, in)
			// Mode/structure changes end the bunch; plain branches and
			// calls continue executing consecutive instructions.
			switch in.Op {
			case isa.SETTHICK, isa.NUMA, isa.PRAM, isa.SPLIT, isa.BAR, isa.JOIN, isa.HALT:
				return executed, kerns
			}
			continue
		}
		if fi.Kern != nil {
			// Fused straight-line run: consecutive register instructions of
			// the bunch execute back to back through their compiled kernels,
			// with per-instruction fetch and trace accounting.
			x.record(f, slot, in.Op, 0, 1, true)
			fi.Kern(x.fenv, f, 0, 1)
			kerns++
			if fi.Thick {
				x.ops++
			} else {
				x.scalarOps++
			}
			f.PC++
			for fi.Run > 1 && k+1 < n {
				fj := &x.m.code[f.PC]
				if fj.Kern == nil {
					break
				}
				k++
				executed++
				x.fetches++
				f.InstrFetches++
				x.record(f, slot, fj.In.Op, 0, 1, true)
				fj.Kern(x.fenv, f, 0, 1)
				kerns++
				if fj.Thick {
					x.ops++
				} else {
					x.scalarOps++
				}
				f.PC++
				fi = fj
			}
			continue
		}
		x.record(f, slot, in.Op, 0, 1, true)
		seq := k
		if !fi.Sliceable {
			x.execAtomic(f, in)
			x.scalarOps++
		} else {
			x.execLane(f, in, 0, seq)
			x.ops++
		}
		f.PC++
		// Combining operations resolve at the step boundary; end the
		// bunch so the next instruction observes their results.
		if !x.immediate && (in.Op.IsMultiop() || in.Op.IsMultiprefix()) {
			return executed, kerns
		}
	}
	return executed, kerns
}

// record appends a trace slice when tracing is enabled.
func (x *groupExec) record(f *tcf.Flow, slot int, op isa.Op, first, lanes int, numa bool) {
	if !x.m.cfg.TraceEnabled {
		return
	}
	x.slices = append(x.slices, SliceExec{
		Group: x.g.Index, Slot: slot, Flow: f.ID, PC: f.PC, Op: op,
		FirstLane: first, Lanes: lanes, NUMA: numa,
	})
}

// rejoinFragment ends an auto-split fragment at a thickness/mode/structure
// change: the container resumes at this PC once all fragments arrive.
func (x *groupExec) rejoinFragment(f *tcf.Flow) {
	x.g.Buf.retire(f)
	x.done++
	x.events = append(x.events, deferredEvent{kind: evFragmentRejoin, flow: f, pc: f.PC})
}

// halt terminates f; if it is a split child, the parent is notified at the
// step boundary (HALT inside an arm is treated as an implicit JOIN).
func (x *groupExec) halt(f *tcf.Flow) {
	if f.State == tcf.Done {
		return
	}
	x.g.Buf.retire(f)
	x.done++
	if f.Parent != nil {
		x.events = append(x.events, deferredEvent{kind: evChildDone, flow: f})
	}
}

// armThickness returns the thickness the split arm asks for of parent f: an
// immediate or a common register of f's, which stands unchanged while f waits
// for the arms it splits into.
func armThickness(f *tcf.Flow, arm isa.SplitArm) int64 {
	if arm.Thick != isa.RegNone {
		return f.Scalar(arm.Thick)
	}
	return arm.ThickImm
}

// applyControl executes a control instruction (flow-level).
func (x *groupExec) applyControl(f *tcf.Flow, in *isa.Instr) {
	props := &x.m.props
	switch in.Op {
	case isa.JMP:
		f.PC = int(in.Target)
	case isa.BEQZ:
		if f.Scalar(in.Ra) == 0 {
			f.PC = int(in.Target)
		} else {
			f.PC++
		}
	case isa.BNEZ:
		if f.Scalar(in.Ra) != 0 {
			f.PC = int(in.Target)
		} else {
			f.PC++
		}
	case isa.CALL:
		f.Call(f.PC + 1)
		f.PC = int(in.Target)
	case isa.RET:
		if pc, ok := f.Ret(); ok {
			f.PC = pc
		} else {
			x.halt(f)
		}
	case isa.SETTHICK:
		if !props.VariableThickness {
			x.failf("flow %d: SETTHICK unsupported by the %s variant (fixed thread set)", f.ID, x.m.cfg.Variant)
			return
		}
		if f.IsFragment {
			x.rejoinFragment(f)
			return
		}
		t := in.Imm
		if !in.HasImm {
			t = f.Scalar(in.Ra)
		}
		if t < 0 {
			x.failf("flow %d: SETTHICK to negative thickness %d", f.ID, t)
			return
		}
		x.kern.MaxThickness = max(x.kern.MaxThickness, t)
		if lim := x.m.cfg.MaxThickness; lim > 0 && t > int64(lim) {
			x.failw(ErrThicknessLimit, "flow %d: SETTHICK to %d exceeds MaxThickness=%d", f.ID, t, lim)
			return
		}
		if err := f.SetThickness(int(t)); err != nil {
			x.failf("%v", err)
			return
		}
		f.PC++
		// OS-level splitting of overly thick flows (Section 3.3): the
		// continuation runs as threshold-sized fragments on the
		// least-loaded groups; this flow completes when they all halt.
		if th := x.m.cfg.AutoSplitThreshold; th > 0 && int(t) > th && props.ControlParallel {
			f.State = tcf.Waiting
			f.ResumePC = -1 // sentinel: finish (do not resume) at join
			x.events = append(x.events, deferredEvent{kind: evAutoSplit, flow: f, thick: int(t)})
		}
	case isa.NUMA:
		if !props.NUMAOperation {
			x.failf("flow %d: NUMA mode unsupported by the %s variant", f.ID, x.m.cfg.Variant)
			return
		}
		if f.IsFragment {
			x.rejoinFragment(f)
			return
		}
		b := in.Imm
		if !in.HasImm {
			b = f.Scalar(in.Ra)
		}
		if b < 1 {
			x.failf("flow %d: NUMA bunch length %d must be >= 1", f.ID, b)
			return
		}
		if err := f.EnterNUMA(int(b)); err != nil {
			x.failf("%v", err)
			return
		}
		f.PC++
	case isa.PRAM:
		if !props.NUMAOperation {
			x.failf("flow %d: PRAM mode switch unsupported by the %s variant", f.ID, x.m.cfg.Variant)
			return
		}
		if f.IsFragment {
			x.rejoinFragment(f)
			return
		}
		f.LeavePRAM()
		f.PC++
	case isa.SPLIT:
		if !props.ControlParallel {
			x.failf("flow %d: SPLIT unsupported by the %s variant (no control parallelism)", f.ID, x.m.cfg.Variant)
			return
		}
		if f.IsFragment {
			// A parallel statement must execute once for the whole flow:
			// rejoin and let the container run it.
			x.rejoinFragment(f)
			return
		}
		arms := x.m.prog.Arms(*in)
		for _, arm := range arms {
			t := armThickness(f, arm)
			if t < 0 {
				x.failf("flow %d: SPLIT arm with negative thickness %d", f.ID, t)
				return
			}
			x.kern.MaxThickness = max(x.kern.MaxThickness, t)
			if lim := x.m.cfg.MaxThickness; lim > 0 && t > int64(lim) {
				x.failw(ErrThicknessLimit, "flow %d: SPLIT arm thickness %d exceeds MaxThickness=%d", f.ID, t, lim)
				return
			}
		}
		f.State = tcf.Waiting
		f.ResumePC = f.PC + 1
		f.LiveChildren = len(arms)
		x.events = append(x.events, deferredEvent{kind: evSplit, flow: f, arms: arms})
	case isa.JOIN:
		x.halt(f)
	case isa.BAR:
		f.State = tcf.Blocked
		f.PC++
		x.barriers++
	case isa.HALT:
		x.halt(f)
	default:
		x.failf("flow %d: unhandled control op %s", f.ID, in.Op)
	}
}
