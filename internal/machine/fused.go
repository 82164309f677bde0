package machine

import (
	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// Fused backend (Config.Backend == BackendFused): the step engine runs the
// program fuse.Compile built at load time. Dispatch stays inside the same
// runGroup/runFlow loop all six variant policies share — only the innermost
// execution switches change:
//
//   - execWhole runs a thin register instruction through its kernel;
//   - execLaneRange routes lane ranges (including lane-parallel chunks)
//     through compiled kernels and bulk memory kernels;
//   - runFlow and execNUMABunch walk fused straight-line runs.
//
// How long a run gets is the policy's business: five of the six policies
// stamp Window 1, so under them a "run" is one register instruction, retired
// by runFusedRun without the generic dispatch; runs chain — several register
// instructions back to back with no step machinery in between — only under
// the multi-instruction policy's window and inside a NUMA bunch. What the
// backend consists of on thick lanes is therefore its per-instruction
// kernels (operand shape resolved at fuse.Compile, one call into isa's bulk
// form for it) and the bulk LD/ST below; the register arithmetic itself is
// the same bulk forms the interpreter's range loop calls.
//
// Everything the run boundary owns — shared references, fault decisions,
// refSeq accounting, discipline records, combining traffic, trace slices —
// executes on exactly the interpreter's code paths, which is what makes the
// two backends bit-identical (the corpus and chaos differentials prove it).

// fusedLaneRange executes lanes [first, first+n) of the compiled instruction
// at f.PC, returning false when the caller must fall back to the
// interpreter's per-lane reference path (the oracle for refSeq accounting,
// discipline records, forwarding and NUMA stalls).
func (x *groupExec) fusedLaneRange(f *tcf.Flow, fi *fuse.Instr, first, n int) bool {
	if fi.Class == fuse.ClassReg {
		if fi.Kern == nil {
			return false
		}
		fi.Kern(x.fenv, f, first, first+n)
		return true
	}
	// Bulk shared-memory kernels engage only on the uniform fast path:
	// fault-free, no discipline recording, lockstep (buffered) semantics,
	// PRAM mode, no store-to-load forwarding. Per-reference bookkeeping is
	// then loop-invariant — refSeq never advances without a fault plan — so
	// hoisting it out of the lane loop is observationally identical. Under
	// the dataflow scheduler loads take the reference path too: loadShared
	// is where the per-page frontier gate lives (the bulk ST kernel below
	// stays engaged — buffered stores need no gating).
	if n <= 0 || x.m.cfg.FaultPlan != nil || x.disc || x.immediate || x.fwdOn || f.Mode == tcf.NUMA {
		return false
	}
	if x.df != nil && fi.In.Op == isa.LD {
		return false
	}
	in := &fi.In
	end := first + n
	sh := x.m.shared
	// maxDist only grows toward the group's row maximum; once it saturates
	// the per-lane module lookup is dead work, so the loops below drop it.
	rowMax := x.rowMax
	switch in.Op {
	case isa.LD:
		if !in.Rd.IsVector() {
			return false
		}
		row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
		dst := f.Vector(in.Rd)
		maxDist := x.maxDist
		if in.Ra.IsVector() {
			av := f.Vector(in.Ra)
			imm := in.Imm
			i := first
			// Addresses that ascend by one from the first lane on and stay in
			// range — a[tid+c], whatever instruction computed them — are read
			// page-wise. The first break sends the remaining lanes through the
			// cursor below.
			if base, k := av[first]+imm, consecutive(av[first:end]); sh.InRange(base) && sh.InRange(base+int64(k-1)) {
				maxDist = sh.MaxOverRun(row, maxDist, base, k)
				sh.PeekRun(dst[first:first+k], base)
				i += k
			}
			rd := sh.Reader()
			for ; i < end && maxDist < rowMax; i++ {
				addr := av[i] + imm
				if d := row[sh.ModuleOf(addr)]; d > maxDist {
					maxDist = d
				}
				dst[i] = rd.Peek(addr)
			}
			for ; i < end; i++ {
				dst[i] = rd.Peek(av[i] + imm)
			}
		} else {
			// Flow-common broadcast: one word, fetched once per lane in the
			// reference path; the module distance is the same every time.
			base := in.Imm
			if in.Ra != isa.RegNone {
				base += f.Scalar(in.Ra)
			}
			if d := row[sh.ModuleOf(base)]; d > maxDist {
				maxDist = d
			}
			v := sh.Peek(base)
			for i := first; i < end; i++ {
				dst[i] = v
			}
		}
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedReads += int64(n)
		return true

	case isa.ST:
		row := x.m.dist[x.g.Index*x.m.nmods:][:x.m.nmods]
		av, bv, base, bs := storeOperands(f, in)
		// One run, two column fills.
		addrs, vals := x.writes.Open(f.ID, 0, first, n)
		fillColumn(addrs, av, first, base)
		fillColumn(vals, bv, first, bs)
		maxDist := x.maxDist
		for i := 0; i < n && maxDist < rowMax; i++ {
			if d := row[sh.ModuleOf(addrs[i])]; d > maxDist {
				maxDist = d
			}
		}
		x.maxDist = maxDist
		x.anyShared = true
		x.sharedWrites += int64(n)
		return true
	}
	return false
}

// consecutive returns the length of the longest prefix of the non-empty a
// whose elements ascend by one.
func consecutive(a []int64) int {
	k := 1
	for k < len(a) && a[k] == a[k-1]+1 {
		k++
	}
	return k
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
