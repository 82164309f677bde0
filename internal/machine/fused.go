package machine

import "tcfpram/internal/tcf"

// Fused register runs. The machine executes the per-PC table fuse.CompileTo
// builds at load: every register instruction carries a kernel with its
// operand shape resolved once, and a straight-line stretch of them is a run
// (fuse.Instr.Run). Dispatch stays inside the same runGroup/runFlow loop all
// six variant policies share; the kernels enter it at three places:
//
//   - runFusedRun retires register runs without the generic dispatch;
//   - execWhole and execLaneRange run a register instruction's lanes through
//     its kernel;
//   - numaBunch walks runs inside a NUMA bunch.
//
// How long a run gets is the policy's business: five of the six policies
// stamp Window 1, so under them a "run" is one register instruction; runs
// chain — several register instructions back to back with no step machinery
// in between — only under the multi-instruction policy's window and inside a
// NUMA bunch.
//
// Everything the run boundary owns — shared references, fault decisions,
// refSeq accounting, discipline records, combining traffic, trace slices —
// executes outside the kernels, on the paths a reference machine
// (NewReference) takes for every instruction. Its table is fuse.Decode's,
// without kernels, so there each of the places above falls through to
// execLane: isa.Eval lane by lane, the oracle internal/chaos holds this
// machine to.

// runFusedRun executes the fused straight-line run starting at f.PC: up to
// maxInstrs register instructions (one, under a Window-1 policy) back to back
// via their compiled kernels, with per-instruction fetch, trace and budget
// accounting identical to the generic loop. It returns the number of window
// slots consumed; 0 means the caller must take the generic path (not a
// register run, a reference machine, a fragment — whose safety check lives
// there).
func (x *groupExec) runFusedRun(f *tcf.Flow, slot int, plan *StepPlan, budget *int, maxInstrs int) int {
	code := x.m.code
	if uint(f.PC) >= uint(len(code)) || f.IsFragment {
		return 0
	}
	fi := &code[f.PC]
	if fi.Kern == nil {
		return 0
	}
	numa := f.Mode == tcf.NUMA
	trace := x.m.cfg.TraceEnabled
	consumed := 0
	for {
		w := 1
		if fi.Thick {
			w = f.Lanes()
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
		fi.Kern(x.fenv, &fi.In, f, 0, w)
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
