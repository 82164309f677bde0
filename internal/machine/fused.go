package machine

import (
	"tcfpram/internal/fuse"
	"tcfpram/internal/tcf"
)

// Fused backend (Config.Backend == BackendFused): the step engine runs the
// program fuse.Compile built at load time. Dispatch stays inside the same
// runGroup/runFlow loop all six variant policies share — only the innermost
// execution switches change:
//
//   - execWhole runs a thin register instruction through its kernel;
//   - execLaneRange routes lane ranges (including lane-parallel chunks)
//     through compiled kernels;
//   - runFlow and execNUMABunch walk fused straight-line runs.
//
// How long a run gets is the policy's business: five of the six policies
// stamp Window 1, so under them a "run" is one register instruction, retired
// by runFusedRun without the generic dispatch; runs chain — several register
// instructions back to back with no step machinery in between — only under
// the multi-instruction policy's window and inside a NUMA bunch. What the
// backend consists of on thick lanes is therefore its per-instruction
// kernels (operand shape resolved at fuse.Compile, one call into isa's bulk
// form for it); the register arithmetic itself is the same bulk forms the
// interpreter's range loop calls, and the bulk LD/ST (groupExec.bulkMemRange)
// is that loop's own.
//
// Everything the run boundary owns — shared references, fault decisions,
// refSeq accounting, discipline records, combining traffic, trace slices —
// executes on exactly the interpreter's code paths, which is what makes the
// two backends bit-identical (internal/chaos's lattice holds both to one
// oracle).

// fusedLaneRange executes lanes [first, first+n) of the compiled instruction
// at f.PC through its kernel, returning false when it has none: memory and
// combining instructions, and every instruction of the interpreter's table,
// take the range loop both backends share (execLaneRangeInterp).
func (x *groupExec) fusedLaneRange(f *tcf.Flow, fi *fuse.Instr, first, n int) bool {
	if fi.Class != fuse.ClassReg || fi.Kern == nil {
		return false
	}
	fi.Kern(x.fenv, f, first, first+n)
	return true
}

// runFusedRun executes the fused straight-line run starting at f.PC: up to
// maxInstrs register instructions (one, under a Window-1 policy) back to back
// via their compiled kernels, with per-instruction fetch, trace and budget
// accounting identical to the generic loop. It returns the number of window slots consumed; 0 means the
// caller must take the generic path (not a register run, a fragment — whose
// safety check lives there — or a lane range wide enough to fan out to the
// chunk pool).
func (x *groupExec) runFusedRun(f *tcf.Flow, slot int, plan *StepPlan, budget *int, maxInstrs int) int {
	code := x.m.code
	if uint(f.PC) >= uint(len(code)) || f.IsFragment {
		return 0
	}
	fi := &code[f.PC]
	if fi.Kern == nil {
		return 0
	}
	// Lane ranges at or above the chunking threshold take the generic path,
	// where execLanes fans them out to the worker pool exactly as the
	// interpreter would.
	chunky := x.m.cfg.Parallel && !x.immediate && x.m.cfg.LaneParallelThreshold > 0
	th := x.m.cfg.LaneParallelThreshold
	numa := f.Mode == tcf.NUMA
	trace := x.m.cfg.TraceEnabled
	consumed := 0
	for {
		w := 1
		if fi.Thick {
			w = f.Lanes()
		}
		if fi.Thick && chunky && w >= th {
			break
		}
		x.fetches++
		f.InstrFetches++
		if plan.PerThreadFetch {
			if extra := int64(w - 1); extra > 0 {
				x.fetches += extra
				f.InstrFetches += extra
			}
		}
		if trace {
			x.slices = append(x.slices, SliceExec{
				Group: x.g.Index, Slot: slot, Flow: f.ID, PC: f.PC, Op: fi.In.Op,
				FirstLane: 0, Lanes: w, NUMA: numa,
			})
		}
		fi.Kern(x.fenv, f, 0, w)
		x.kern.BulkLanes += int64(w)
		x.kern.RunInstrs++
		if fi.Thick {
			x.ops += int64(w)
		} else {
			x.scalarOps++
		}
		if plan.Budget > 0 {
			*budget -= w
		}
		f.PC++
		consumed++
		if consumed >= maxInstrs || fi.Run <= 1 {
			break
		}
		fi = &code[f.PC]
		if fi.Kern == nil {
			break
		}
	}
	return consumed
}
