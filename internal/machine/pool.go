package machine

import (
	"runtime"
	"sync"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// Package-level worker pools execute group steps and lane chunks for every
// Parallel machine in the process; workers start lazily on first use and
// persist for the process lifetime, replacing the goroutine spawn per step.
// Jobs are plain structs and submit never blocks (the job runs inline when
// the queue is full), so dispatching allocates nothing.
type poolJob struct {
	grp  *groupExec // whole-group step, or
	lane *laneChunk // one lane range of a thick instruction
	wg   *sync.WaitGroup
}

func (j poolJob) run() {
	if j.grp != nil {
		j.grp.runGroup()
	} else {
		j.lane.run()
	}
	j.wg.Done()
}

type workPool struct {
	once sync.Once
	jobs chan poolJob
}

func (p *workPool) start() {
	n := runtime.GOMAXPROCS(0)
	p.jobs = make(chan poolJob, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range p.jobs {
				j.run()
			}
		}()
	}
}

// submit hands j to the pool, running it inline when the queue is full.
func (p *workPool) submit(j poolJob) {
	p.once.Do(p.start)
	select {
	case p.jobs <- j:
	default:
		j.run()
	}
}

// groupPool runs whole-group steps; lanePool runs lane chunks. The worker
// sets are separate because a group step blocks waiting for its lane chunks:
// on a single pool, every worker could be a blocked group step while the
// chunks they wait on sit queued behind further group jobs.
var groupPool, lanePool workPool

// laneChunk is one contiguous lane range of a thick instruction, executed on
// a private worker arena and merged back in lane order.
type laneChunk struct {
	w        *groupExec
	f        *tcf.Flow
	fi       *fuse.Instr
	first, n int
}

func (c *laneChunk) run() {
	c.w.execLaneRange(c.f, c.fi, c.first, c.n)
}

// laneParallelOK reports whether the lanes of in may execute concurrently.
// Local-memory accesses have immediate semantics (a lane's STL is visible to
// higher lanes' LDLs within the instruction on colliding addresses), so they
// stay serial; everything else either buffers its effects (ST, multiops) or
// writes a private lane slot.
func laneParallelOK(in *isa.Instr) bool {
	switch in.Op {
	case isa.LDL, isa.STL:
		return false
	}
	return true
}

// refsPerLane returns how many shared-memory references one lane of in
// issues — the per-chunk refSeq stride that keeps fault-plan decisions
// identical to serial execution. Every lane of a given sliceable op issues
// the same count (0 or 1), which is what makes the stride exact.
func refsPerLane(in *isa.Instr) int64 {
	if in.Op == isa.LD || in.Op == isa.ST || in.Op.IsMultiop() || in.Op.IsMultiprefix() {
		return 1
	}
	return 0
}

// touchOperands materializes every vector register the instruction's lanes
// will access, mirroring exactly which registers serial execution touches.
// Lane chunks then index the backing arrays concurrently without ever
// hitting Flow's lazy vector allocation.
func touchOperands(f *tcf.Flow, in *isa.Instr) {
	touch := func(r isa.Reg) {
		if r.IsVector() {
			f.Vector(r)
		}
	}
	switch {
	case in.Op == isa.LDI:
		touch(in.Rd)
	case in.Op == isa.MOV, in.Op == isa.NEG, in.Op == isa.NOT:
		touch(in.Rd)
		touch(in.Ra)
	case in.Op.IsBinaryALU():
		touch(in.Rd)
		touch(in.Ra)
		if !in.HasImm {
			touch(in.Rb)
		}
	case in.Op == isa.SEL:
		touch(in.Rd)
		touch(in.Ra)
		touch(in.Rb)
		touch(in.Rc)
	case in.Op == isa.LD:
		touch(in.Rd)
		touch(in.Ra)
	case in.Op == isa.ST, in.Op.IsMultiop():
		touch(in.Ra)
		touch(in.Rb)
	case in.Op.IsMultiprefix():
		touch(in.Rd)
		touch(in.Ra)
		touch(in.Rb)
	default:
		touch(in.Rd)
	}
}

// execLanes executes lanes [0,w) of a sliceable instruction, fanning out to
// the worker pool when the machine is Parallel and the lane count reaches
// the configured threshold. Results are bit-identical to the serial loop:
// chunk buffers merge in lane order, and each chunk's refSeq starts at the
// value serial execution would have reached at its first lane.
func (x *groupExec) execLanes(f *tcf.Flow, fi *fuse.Instr, w int) {
	in := &fi.In
	th := x.m.cfg.LaneParallelThreshold
	if th <= 0 || !x.m.cfg.Parallel || x.immediate || w < th || !laneParallelOK(in) {
		x.execLaneRange(f, fi, 0, w)
		return
	}

	touchOperands(f, in)
	// At least two chunks even on a single-proc runtime: enabling Parallel
	// asks for the chunked code path, and the deterministic merge must be
	// exercised (and testable) regardless of GOMAXPROCS.
	workers := max(2, runtime.GOMAXPROCS(0))
	chunks := (w + th - 1) / th
	if chunks > workers {
		chunks = workers
	}
	n := (w + chunks - 1) / chunks // lanes per chunk
	chunks = (w + n - 1) / n       // drop empty trailing chunks
	if chunks < 2 {
		x.execLaneRange(f, fi, 0, w)
		return
	}

	for len(x.lw) < chunks-1 {
		x.lw = append(x.lw, &groupExec{m: x.m, g: x.g, fenv: x.fenv, rowMax: x.rowMax})
	}
	if cap(x.chunks) < chunks-1 {
		x.chunks = make([]laneChunk, chunks-1)
	}
	x.chunks = x.chunks[:chunks-1]

	base := x.refSeq
	refs := refsPerLane(in)
	x.wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		first := c * n
		size := n
		if first+size > w {
			size = w - first
		}
		wk := x.lw[c-1]
		wk.resetLaneWorker(base+int64(first)*refs, x.step)
		x.chunks[c-1] = laneChunk{w: wk, f: f, fi: fi, first: first, n: size}
		lanePool.submit(poolJob{lane: &x.chunks[c-1], wg: &x.wg})
	}
	// Chunk 0 runs inline on this arena, so its writes land first — the
	// worker merges below then restore exact serial order.
	x.execLaneRange(f, fi, 0, n)
	x.wg.Wait()
	for c := 1; c < chunks; c++ {
		x.mergeLaneWorker(x.lw[c-1])
	}
	x.refSeq = base + int64(w)*refs
	x.laneChunks += int64(chunks)
}
