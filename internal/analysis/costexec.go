package analysis

import (
	"fmt"
	"math/bits"
	"slices"

	"tcfpram/internal/codegen"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/pipeline"
	"tcfpram/internal/variant"
)

// The abstract cost executor. It mirrors the step engine's lockstep
// single-instruction shapes (SingleInstruction, SingleOperation,
// ConfigurableSingleOperation, FixedThickness) instruction for instruction
// over the compressed value domain of costval.go, reproducing exactly the
// accounting the real engine folds into Stats: per-group operation counts,
// the pipeline-fill/latency-hiding overhead formula, NUMA stall charging,
// same-step write arbitration, combining-operation resolution, split/join
// retirement with Table 1 flow-branch rates, and storage-buffer promotion
// with task-switch rates. Because tcf-e programs are closed (no external
// input), corpus-scale programs execute fully concretely and every
// prediction is exact — equal to the measured Stats of a real run on either
// backend under either scheduler.
//
// Whenever a value the analysis *needs* (a branch condition, a shared
// address, a SETTHICK operand) degrades to unknown — or an analysis budget
// runs out — the executor aborts with costStop and the report downgrades to
// sound lower bounds: everything accounted before the stop has provably
// been spent by any real run reaching that point, because stats accumulate
// only at the fold/finish boundaries the engine itself commits at.

// costStop aborts abstract execution; run() recovers it into a Min-only
// report.
type costStop struct{ reason string }

type flowState uint8

const (
	fsReady flowState = iota
	fsBlocked
	fsWaiting
	fsDone
)

type flowMode uint8

const (
	amPRAM flowMode = iota
	amNUMA
)

// absFlow is the abstract image of one tcf.Flow: PC, scheduling state,
// mode/thickness, the 16 scalar registers as abstract values and the 32
// vector registers as full-backing compressed images.
type absFlow struct {
	id             int
	pc             int
	state          flowState
	mode           flowMode
	thickness      int64
	totalThickness int64
	bunch          int64
	tidOffset      int64
	home           int

	scalars   [isa.NumSRegs]aval
	vecs      [isa.NumVRegs]*avec
	callStack []int

	parent       *absFlow
	resumePC     int
	liveChildren int
}

func (f *absFlow) lanes() int {
	if f.mode == amNUMA {
		return 1
	}
	return int(f.thickness)
}

func (f *absFlow) scalar(r isa.Reg) aval { return f.scalars[r.Index()] }

// read returns operand r as a w-lane view: scalar registers broadcast,
// vector registers use the engine's truncate/zero-extend Vector semantics.
func (f *absFlow) read(r isa.Reg, w, cap int) *avec {
	if r.IsScalar() {
		v := f.scalars[r.Index()]
		if !v.ok {
			return unkVec(w)
		}
		return uniVec(w, v.v)
	}
	return viewVec(f.vecs[r.Index()], w, cap)
}

// writeDest stores a w-lane result: scalar destinations take lane 0 (only
// reachable with w == 1), vector destinations overwrite the low lanes of
// the backing and keep its tail, as the engine's SetLane loop does.
func (f *absFlow) writeDest(r isa.Reg, res *avec, cap int) {
	if r.IsScalar() {
		f.scalars[r.Index()] = res.lane(0)
		return
	}
	f.vecs[r.Index()] = overwriteLow(f.vecs[r.Index()], res, cap)
}

// setThickness mirrors Flow.SetThickness. The engine zero-extends every
// allocated vector backing; in the abstract domain absent tail lanes
// already read as zero, so no register mutation is needed.
func (f *absFlow) setThickness(t int64) {
	f.mode = amPRAM
	f.thickness = t
	f.totalThickness = t
}

// absMem is an abstract word store (shared or group-local). Out-of-range
// peeks read zero and pokes are dropped, exactly like mem.Shared.Peek/Poke
// and mem.Local. Once the tracking budget is exceeded or a bulk symbolic
// write lands, values degrade to unknown — cost accounting stays exact.
//
// Tracked words live in chunks of 64 found through a map; the lanes of a
// thick access walk neighbouring addresses, so the chunk of the previous
// access is tried first and the map is consulted once per chunk, not once
// per word.
type absMem struct {
	chunks  map[int64]*memChunk
	last    *memChunk
	lastIdx int64
	tracked int // words held
	size    int64
	budget  int
	lost    bool
}

// memChunk holds the words [64*idx, 64*idx+64) that have been written.
type memChunk struct {
	present uint64
	vals    [64]aval
}

func newAbsMem(size int64, budget int) absMem {
	return absMem{chunks: make(map[int64]*memChunk), lastIdx: -1, size: size, budget: budget}
}

// chunk returns the chunk of addr, nil if no word of it is tracked.
func (m *absMem) chunk(addr int64) *memChunk {
	if idx := addr >> 6; idx != m.lastIdx {
		m.last, m.lastIdx = m.chunks[idx], idx
	}
	return m.last
}

func (m *absMem) peek(addr int64) aval {
	if addr < 0 || addr >= m.size {
		return known(0)
	}
	if c := m.chunk(addr); c != nil && c.present&(1<<(addr&63)) != 0 {
		return c.vals[addr&63]
	}
	if m.lost {
		return unknown
	}
	return known(0)
}

func (m *absMem) poke(addr int64, v aval) {
	if addr < 0 || addr >= m.size {
		return
	}
	c, bit := m.chunk(addr), uint64(1)<<(addr&63)
	if c == nil || c.present&bit == 0 {
		if m.tracked >= m.budget {
			m.lost = true
			return
		}
		if c == nil {
			c = new(memChunk)
			m.chunks[addr>>6], m.last = c, c
		}
		c.present |= bit
		m.tracked++
	}
	c.vals[addr&63] = v
}

func (m *absMem) loseAll() {
	clear(m.chunks)
	m.last, m.lastIdx, m.tracked = nil, -1, 0
	m.lost = true
}

// absWrite is one buffered same-step shared write. A uniform-address thick
// store coalesces into a single record covering threads [0, count);
// arbitration still sees the lowest key of the range.
type absWrite struct {
	addr  int64
	val   aval
	key   mem.Key
	count int64
}

// absContrib is one combining-operation contribution (multiop.Contrib).
type absContrib struct {
	kind       isa.Op
	addr       int64
	val        aval
	key        mem.Key
	wantPrefix bool
	rd         isa.Reg
	rflow      *absFlow
}

type absEventKind uint8

const (
	aevSplit absEventKind = iota
	aevChildDone
)

type absArm struct {
	thick int64
	pc    int
}

type absEvent struct {
	kind absEventKind
	flow *absFlow
	arms []absArm
}

// costCounters mirrors the per-step groupCounters the backend folds.
type costCounters struct {
	ops, scalarOps, fetches                                         int64
	sharedReads, sharedWrites, localReads, localWrites, multiopRefs int64
	stall, barriers                                                 int64
	anyShared                                                       bool
	maxDist                                                         int
}

type absGroup struct {
	index             int
	resident, pending []*absFlow
	local             absMem
	readPages         bitset // shared pages the group's flows read and wrote
	writePages        bitset
	cnt               costCounters
	writes            []absWrite
	contribs          []absContrib
	events            []absEvent
	err               string
	fwd               map[int64]aval
	fwdOn             bool
}

func (g *absGroup) beginStep() {
	g.cnt = costCounters{}
	g.writes = g.writes[:0]
	g.contribs = g.contribs[:0]
	g.events = g.events[:0]
	g.err = ""
}

func (g *absGroup) fail(msg string) {
	if g.err == "" {
		g.err = msg
	}
}

// load mirrors StorageBuf.Load: live residents plus everything pending.
func (g *absGroup) load() int {
	n := len(g.pending)
	for _, f := range g.resident {
		if f.state != fsDone {
			n++
		}
	}
	return n
}

// costTotals mirrors the Stats fields the report predicts.
type costTotals struct {
	steps, cycles, ops, scalarOps, fetches                          int64
	sharedReads, sharedWrites, localReads, localWrites, multiopRefs int64
	overhead, stall, branchCycles, switchCycles, barriers           int64
	splits, joins, flowsCreated, maxLiveFlows                       int64
}

type costExec struct {
	c     *codegen.Compiled
	prog  *isa.Program
	p     CostParams
	pol   variant.Policy
	props variant.Properties

	groups []*absGroup
	flows  []*absFlow
	nextID int

	shared     absMem
	nmods      int
	dist       [][]int
	moduleRefs []int64

	st       costTotals
	maxThick int64

	pendingWrites   []absWrite
	pendingContribs []absContrib
	stepEvents      []absEvent

	conflicts     int64
	conflictsLost bool
	footLost      bool

	concCap  int
	laneLeft int64
}

func newCostExec(c *codegen.Compiled, p CostParams, pol variant.Policy, _ variant.StepShape) *costExec {
	ex := &costExec{
		c:        c,
		prog:     c.Program,
		p:        p,
		pol:      pol,
		props:    pol.Props(),
		nmods:    p.Groups,
		concCap:  p.MaxConcreteLanes,
		laneLeft: p.MaxLaneWork,
	}
	ex.shared = newAbsMem(int64(p.SharedWords), p.MaxTrackedWords)
	ex.moduleRefs = make([]int64, ex.nmods)
	ex.dist = make([][]int, p.Groups)
	for gi := range ex.dist {
		row := make([]int, ex.nmods)
		for m := range row {
			row[m] = p.Topology.Distance(gi, m)
		}
		ex.dist[gi] = row
	}
	// Page sets are bitsets over the pages of shared memory.
	pageWords := ((p.SharedWords+mem.PageWords-1)>>mem.PageShift + 63) / 64
	ex.groups = make([]*absGroup, p.Groups)
	for gi := range ex.groups {
		ex.groups[gi] = &absGroup{
			index:      gi,
			local:      newAbsMem(int64(p.LocalWords), p.MaxTrackedWords),
			readPages:  make(bitset, pageWords),
			writePages: make(bitset, pageWords),
			fwd:        make(map[int64]aval),
		}
	}
	return ex
}

// run drives the abstract machine to completion (or a budget/unknown stop)
// and fills the report.
func (ex *costExec) run(rep *CostReport) {
	defer func() {
		if r := recover(); r != nil {
			cs, ok := r.(costStop)
			if !ok {
				panic(r)
			}
			ex.fill(rep, false, cs.reason, "")
		}
	}()
	if !ex.preload(rep) {
		return
	}
	entry := ex.prog.Entry()
	for _, bf := range ex.pol.BootFlows(ex.machineShape()) {
		g := 0
		if bf.Group >= 0 && bf.Group < len(ex.groups) {
			g = bf.Group
		}
		ex.newFlow(entry, int64(bf.Thickness), ex.groups[g])
	}
	for ex.liveFlows() > 0 {
		if ex.st.steps >= ex.p.MaxSteps {
			ex.fill(rep, false, fmt.Sprintf("analysis step budget exhausted (%d abstract steps)", ex.p.MaxSteps), "")
			return
		}
		if note := ex.runStep(); note != "" {
			ex.fill(rep, true, "", "predicted runtime error: "+note)
			return
		}
	}
	ex.fill(rep, true, "", "")
}

func (ex *costExec) machineShape() variant.MachineShape {
	return variant.MachineShape{
		Groups: ex.p.Groups, ProcsPerGroup: ex.p.ProcsPerGroup,
		VectorWidth: ex.p.VectorWidth,
	}
}

// preload mirrors LoadProgram: shared data segments, plus every group's
// local memory receiving each local segment.
func (ex *costExec) preload(rep *CostReport) bool {
	for _, seg := range ex.prog.Data {
		if seg.Addr < 0 || seg.Addr+int64(len(seg.Words)) > int64(ex.p.SharedWords) {
			rep.Reason = fmt.Sprintf("data segment [%d,%d) outside shared memory (%d words)",
				seg.Addr, seg.Addr+int64(len(seg.Words)), ex.p.SharedWords)
			return false
		}
		for i, w := range seg.Words {
			ex.shared.poke(seg.Addr+int64(i), known(w))
		}
	}
	for _, g := range ex.groups {
		for _, seg := range ex.c.LocalData {
			if seg.Addr < 0 || seg.Addr+int64(len(seg.Words)) > int64(ex.p.LocalWords) {
				rep.Reason = fmt.Sprintf("local data segment [%d,%d) outside local memory (%d words)",
					seg.Addr, seg.Addr+int64(len(seg.Words)), ex.p.LocalWords)
				return false
			}
			for i, w := range seg.Words {
				g.local.poke(seg.Addr+int64(i), known(w))
			}
		}
	}
	return true
}

func (ex *costExec) newFlow(pc int, thickness int64, g *absGroup) *absFlow {
	f := &absFlow{
		id: ex.nextID, pc: pc, state: fsReady, mode: amPRAM,
		thickness: thickness, totalThickness: thickness, bunch: 1,
		resumePC: -1, home: g.index,
	}
	for i := range f.scalars {
		f.scalars[i] = known(0)
	}
	ex.nextID++
	ex.flows = append(ex.flows, f)
	if len(g.resident) < ex.p.ProcsPerGroup {
		g.resident = append(g.resident, f)
	} else {
		g.pending = append(g.pending, f)
	}
	ex.st.flowsCreated++
	if live := int64(ex.liveFlows()); live > ex.st.maxLiveFlows {
		ex.st.maxLiveFlows = live
	}
	if thickness > ex.maxThick {
		ex.maxThick = thickness
	}
	return f
}

func (ex *costExec) liveFlows() int {
	n := 0
	for _, f := range ex.flows {
		if f.state != fsDone {
			n++
		}
	}
	return n
}

func (ex *costExec) anyReady() bool {
	for _, f := range ex.flows {
		if f.state == fsReady {
			return true
		}
	}
	return false
}

func (ex *costExec) releaseBarriers() {
	for _, f := range ex.flows {
		if f.state == fsBlocked {
			f.state = fsReady
		}
	}
}

// runStep mirrors Machine.runStep: generate → merge/fold → commit → retire
// split/join events → compact storage buffers → barrier release → finish.
// A non-empty return is a predicted runtime error: the machine's merge
// aborts before commit, so earlier groups' counters are folded and the
// step never finishes — exactly what the totals now hold.
func (ex *costExec) runStep() string {
	ex.pendingWrites = ex.pendingWrites[:0]
	ex.pendingContribs = ex.pendingContribs[:0]
	ex.stepEvents = ex.stepEvents[:0]
	for _, g := range ex.groups {
		g.beginStep()
		ex.runGroup(g)
	}
	var stepCycles int64
	for _, g := range ex.groups {
		if g.err != "" {
			return g.err
		}
		ex.fold(g, &stepCycles)
	}
	ex.commit()
	b0 := ex.st.branchCycles
	ex.retireEvents()
	stepCycles += ex.st.branchCycles - b0
	s0 := ex.st.switchCycles
	ex.compact()
	stepCycles += ex.st.switchCycles - s0
	if !ex.anyReady() {
		ex.releaseBarriers()
	}
	if stepCycles == 0 {
		stepCycles = 1
	}
	ex.st.cycles += stepCycles
	ex.st.steps++
	if ex.liveFlows() > 0 && !ex.anyReady() {
		return "deadlock: no flow is runnable"
	}
	return ""
}

func (ex *costExec) runGroup(g *absGroup) {
	n := len(g.resident)
	for k := 0; k < n; k++ {
		if g.err != "" {
			break
		}
		f := g.resident[k]
		if f.state != fsReady {
			continue
		}
		ex.runFlow(g, f)
	}
}

func (ex *costExec) runFlow(g *absGroup, f *absFlow) {
	if f.state != fsReady || g.err != "" {
		return
	}
	if f.mode == amNUMA {
		ex.execBunch(g, f)
		return
	}
	if f.pc < 0 || f.pc >= ex.prog.Len() {
		ex.halt(g, f)
		return
	}
	g.cnt.fetches++
	ex.chargeLaneWork(1)
	ex.execWhole(g, f, ex.prog.At(f.pc))
}

func (ex *costExec) halt(g *absGroup, f *absFlow) {
	if f.state == fsDone {
		return
	}
	f.state = fsDone
	if f.parent != nil {
		g.events = append(g.events, absEvent{kind: aevChildDone, flow: f})
	}
}

func (ex *costExec) chargeLaneWork(n int64) {
	ex.laneLeft -= n
	if ex.laneLeft < 0 {
		panic(costStop{"analysis lane-work budget exhausted"})
	}
}

func (ex *costExec) execWhole(g *absGroup, f *absFlow, in isa.Instr) {
	if in.Op.Info().Control {
		g.cnt.scalarOps++
		ex.applyControl(g, f, in)
		return
	}
	w := 1
	if in.Thick() {
		w = f.lanes()
	}
	ex.chargeLaneWork(int64(w))
	if !in.Sliceable() {
		ex.execAtomic(g, f, in)
		if w <= 1 {
			g.cnt.scalarOps++
		} else {
			g.cnt.ops += int64(w)
		}
		f.pc++
		return
	}
	ex.execLanes(g, f, in, w, 0)
	g.cnt.ops += int64(w)
	f.pc++
}

// execBunch mirrors execNUMABunch for lockstep plans: up to Bunch
// consecutive instructions with store-to-load forwarding, mode changes and
// combining operations ending the bunch.
func (ex *costExec) execBunch(g *absGroup, f *absFlow) {
	clear(g.fwd)
	g.fwdOn = true
	defer func() { g.fwdOn = false }()
	for k := int64(0); k < f.bunch; k++ {
		if f.state != fsReady || g.err != "" {
			break
		}
		if f.pc < 0 || f.pc >= ex.prog.Len() {
			ex.halt(g, f)
			break
		}
		g.cnt.fetches++
		ex.chargeLaneWork(1)
		in := ex.prog.At(f.pc)
		if in.Op.Info().Control {
			g.cnt.scalarOps++
			ex.applyControl(g, f, in)
			switch in.Op {
			case isa.SETTHICK, isa.NUMA, isa.PRAM, isa.SPLIT, isa.BAR, isa.JOIN, isa.HALT:
				return
			}
			continue
		}
		if !in.Sliceable() {
			ex.execAtomic(g, f, in)
			g.cnt.scalarOps++
		} else {
			ex.execLanes(g, f, in, 1, int(k))
			g.cnt.ops++
		}
		f.pc++
		if in.Op.IsMultiop() || in.Op.IsMultiprefix() {
			return
		}
	}
}

// execAtomic mirrors the engine's non-sliceable path: reductions fold the
// Lanes()-truncated source vector; PRINT/PRINTS/NOP cost nothing beyond
// the caller's op accounting; everything else is single-lane semantics.
func (ex *costExec) execAtomic(g *absGroup, f *absFlow, in isa.Instr) {
	switch {
	case in.Op.IsReduction():
		v := f.read(in.Ra, f.lanes(), ex.concCap)
		f.scalars[in.Rd.Index()] = reduceVec(in.Op.CombineKind(), v, ex.concCap)
	case in.Op == isa.PRINT, in.Op == isa.PRINTS, in.Op == isa.NOP:
		// Program output does not feed back into cost.
	default:
		ex.execLanes(g, f, in, 1, 0)
	}
}

func (ex *costExec) execLanes(g *absGroup, f *absFlow, in isa.Instr, w, seq int) {
	if w == 0 {
		return
	}
	cap := ex.concCap
	op := in.Op
	switch {
	case op == isa.LDI:
		f.writeDest(in.Rd, uniVec(w, in.Imm), cap)
	case op == isa.MOV, op == isa.NEG, op == isa.NOT:
		f.writeDest(in.Rd, unaryVec(op, f.read(in.Ra, w, cap), cap), cap)
	case op.IsBinaryALU():
		a := f.read(in.Ra, w, cap)
		var b *avec
		if in.HasImm {
			b = uniVec(w, in.Imm)
		} else {
			b = f.read(in.Rb, w, cap)
		}
		f.writeDest(in.Rd, aluVec(op, a, b, cap), cap)
	case op == isa.SEL:
		f.writeDest(in.Rd, selVec(f.read(in.Ra, w, cap), f.read(in.Rb, w, cap), f.read(in.Rc, w, cap), cap), cap)
	case op == isa.TID:
		if f.mode == amNUMA {
			f.writeDest(in.Rd, uniVec(w, 0), cap)
		} else {
			f.writeDest(in.Rd, affVec(w, f.tidOffset, 1), cap)
		}
	case op == isa.FID:
		f.writeDest(in.Rd, uniVec(w, int64(f.id)), cap)
	case op == isa.THICK:
		f.writeDest(in.Rd, uniVec(w, f.totalThickness), cap)
	case op == isa.GID:
		f.writeDest(in.Rd, uniVec(w, int64(g.index)), cap)
	case op == isa.PID:
		f.writeDest(in.Rd, uniVec(w, int64(f.home)), cap)
	case op == isa.NPROC:
		f.writeDest(in.Rd, uniVec(w, int64(ex.p.Groups*ex.p.ProcsPerGroup)), cap)
	case op == isa.NGRP:
		f.writeDest(in.Rd, uniVec(w, int64(ex.p.Groups)), cap)
	case op == isa.LD:
		f.writeDest(in.Rd, ex.doLoad(g, f, ex.addrVec(f, in, w), w), cap)
	case op == isa.ST:
		ex.doStore(g, f, ex.addrVec(f, in, w), f.read(in.Rb, w, cap), w, seq)
	case op == isa.LDL:
		f.writeDest(in.Rd, ex.doLocalLoad(g, ex.addrVec(f, in, w), w), cap)
	case op == isa.STL:
		ex.doLocalStore(g, ex.addrVec(f, in, w), f.read(in.Rb, w, cap), w)
	case op.IsMultiop(), op.IsMultiprefix():
		ex.doCombine(g, f, in, w, seq)
	default:
		panic(costStop{fmt.Sprintf("opcode %s has no abstract lane semantics", op)})
	}
}

// addrVec is effAddr over all w lanes: Imm alone, or base register plus Imm.
func (ex *costExec) addrVec(f *absFlow, in isa.Instr, w int) *avec {
	if in.Ra == isa.RegNone {
		return uniVec(w, in.Imm)
	}
	return aluVec(isa.ADD, f.read(in.Ra, w, ex.concCap), uniVec(w, in.Imm), ex.concCap)
}

// noteSharedN charges n same-address shared references: NUMA mode stalls
// inline per reference, PRAM mode feeds the latency-hiding overhead term.
func (ex *costExec) noteSharedN(g *absGroup, addr, n int64, numa bool) {
	mod := mem.HomeModule(addr, ex.nmods)
	ex.moduleRefs[mod] += n
	d := ex.dist[g.index][mod]
	if numa {
		g.cnt.stall += n * int64(ex.p.MemLatencyBase+d)
	} else {
		g.cnt.anyShared = true
		if d > g.cnt.maxDist {
			g.cnt.maxDist = d
		}
	}
}

// noteSharedBulk charges the w references of a non-wrapping affine address
// sequence by walking the module residue cycle once (period ≤ nmods).
func (ex *costExec) noteSharedBulk(g *absGroup, base, stride int64, w int, numa bool) {
	m := ex.nmods
	r := mem.HomeModule(base, ex.nmods)
	s := mem.HomeModule(stride, ex.nmods)
	period := 1
	for cur := (r + s) % m; cur != r; cur = (cur + s) % m {
		period++
	}
	full, rem := int64(w/period), w%period
	cur := r
	for k := 0; k < period; k++ {
		cnt := full
		if k < rem {
			cnt++
		}
		if cnt > 0 {
			d := ex.dist[g.index][cur]
			ex.moduleRefs[cur] += cnt
			if numa {
				g.cnt.stall += cnt * int64(ex.p.MemLatencyBase+d)
			} else {
				g.cnt.anyShared = true
				if d > g.cnt.maxDist {
					g.cnt.maxDist = d
				}
			}
		}
		cur = (cur + s) % m
	}
}

func (ex *costExec) notePage(g *absGroup, addr int64, write bool) {
	if addr < 0 || addr >= int64(ex.p.SharedWords) {
		return
	}
	pg := int32(addr >> mem.PageShift)
	if write {
		g.writePages.add(pg)
	} else {
		g.readPages.add(pg)
	}
}

// notePageBulk records the page span of a non-wrapping affine sequence.
// Strides wider than a page (or absurd spans) give up on footprint
// exactness rather than enumerating.
func (ex *costExec) notePageBulk(g *absGroup, base, stride int64, w int, write bool) {
	span, ok := mulNoWrap(stride, int64(w-1))
	if !ok {
		ex.footLost = true
		return
	}
	last, ok := addNoWrap(base, span)
	if !ok {
		ex.footLost = true
		return
	}
	lo, hi := base, last
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi < 0 || lo >= int64(ex.p.SharedWords) {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if max := int64(ex.p.SharedWords) - 1; hi > max {
		hi = max
	}
	abss := stride
	if abss < 0 {
		abss = -abss
	}
	if abss <= 0 || abss > mem.PageWords {
		ex.footLost = true
		return
	}
	loPg, hiPg := lo>>mem.PageShift, hi>>mem.PageShift
	if hiPg-loPg+1 > 1<<16 {
		ex.footLost = true
		return
	}
	for pg := int32(loPg); pg <= int32(hiPg); pg++ {
		if write {
			g.writePages.add(pg)
		} else {
			g.readPages.add(pg)
		}
	}
}

// affNoWrap verifies the lane addresses base + i*stride stay inside the
// 64-bit space for i in [0, w).
func affNoWrap(base, stride int64, w int) bool {
	span, ok := mulNoWrap(stride, int64(w-1))
	if !ok {
		return false
	}
	_, ok = addNoWrap(base, span)
	return ok
}

func avalVec(w int, v aval) *avec {
	if v.ok {
		return uniVec(w, v.v)
	}
	return unkVec(w)
}

func (ex *costExec) doLoad(g *absGroup, f *absFlow, av *avec, w int) *avec {
	numa := f.mode == amNUMA
	switch av.kind {
	case cvUni:
		addr := av.base
		g.cnt.sharedReads += int64(w)
		ex.noteSharedN(g, addr, int64(w), numa)
		ex.notePage(g, addr, false)
		if g.fwdOn {
			if fv, ok := g.fwd[addr]; ok {
				return avalVec(w, fv)
			}
		}
		return avalVec(w, ex.shared.peek(addr))
	case cvAff, cvConc:
		if w <= ex.concCap {
			addrs := av.materialize(ex.concCap)
			vals := make([]int64, w)
			allKnown := true
			for i := 0; i < w; i++ {
				a := addrs[i]
				g.cnt.sharedReads++
				ex.noteSharedN(g, a, 1, numa)
				ex.notePage(g, a, false)
				pv := ex.shared.peek(a)
				if g.fwdOn {
					if fv, ok := g.fwd[a]; ok {
						pv = fv
					}
				}
				if !pv.ok {
					allKnown = false
				} else {
					vals[i] = pv.v
				}
			}
			if allKnown {
				return concVec(vals)
			}
			return unkVec(w)
		}
		if av.kind == cvAff {
			if !affNoWrap(av.base, av.stride, w) {
				panic(costStop{"shared address sequence wraps the 64-bit space"})
			}
			g.cnt.sharedReads += int64(w)
			ex.noteSharedBulk(g, av.base, av.stride, w, numa)
			ex.notePageBulk(g, av.base, av.stride, w, false)
			return unkVec(w)
		}
	}
	panic(costStop{fmt.Sprintf("unresolved shared-memory load address (pc %d)", f.pc)})
}

func (ex *costExec) doStore(g *absGroup, f *absFlow, av, bv *avec, w, seq int) {
	numa := f.mode == amNUMA
	inRange := func(a int64) bool { return a >= 0 && a < int64(ex.p.SharedWords) }
	switch av.kind {
	case cvUni:
		addr := av.base
		g.cnt.sharedWrites += int64(w)
		ex.noteSharedN(g, addr, int64(w), numa)
		ex.notePage(g, addr, true)
		if inRange(addr) {
			g.writes = append(g.writes, absWrite{
				addr: addr, val: bv.lane(0), key: mem.Key{Flow: f.id, Seq: seq}, count: int64(w),
			})
		}
		if g.fwdOn {
			g.fwd[addr] = bv.lane(w - 1)
		}
		return
	case cvAff, cvConc:
		if w <= ex.concCap {
			addrs := av.materialize(ex.concCap)
			for i := 0; i < w; i++ {
				a := addrs[i]
				g.cnt.sharedWrites++
				ex.noteSharedN(g, a, 1, numa)
				ex.notePage(g, a, true)
				if inRange(a) {
					g.writes = append(g.writes, absWrite{
						addr: a, val: bv.lane(i), key: mem.Key{Flow: f.id, Thread: i, Seq: seq}, count: 1,
					})
				}
				if g.fwdOn {
					g.fwd[a] = bv.lane(i)
				}
			}
			return
		}
		if av.kind == cvAff {
			if !affNoWrap(av.base, av.stride, w) {
				panic(costStop{"shared address sequence wraps the 64-bit space"})
			}
			g.cnt.sharedWrites += int64(w)
			ex.noteSharedBulk(g, av.base, av.stride, w, numa)
			ex.notePageBulk(g, av.base, av.stride, w, true)
			// The written range is too wide to track word by word: values
			// degrade across the whole image, and same-step collisions with
			// these writes can no longer be counted.
			ex.shared.loseAll()
			ex.conflictsLost = true
			return
		}
	}
	panic(costStop{fmt.Sprintf("unresolved shared-memory store address (pc %d)", f.pc)})
}

func (ex *costExec) doLocalLoad(g *absGroup, av *avec, w int) *avec {
	g.cnt.localReads += int64(w)
	switch av.kind {
	case cvUni:
		return avalVec(w, g.local.peek(av.base))
	case cvAff, cvConc:
		if w <= ex.concCap {
			addrs := av.materialize(ex.concCap)
			vals := make([]int64, w)
			for i := 0; i < w; i++ {
				pv := g.local.peek(addrs[i])
				if !pv.ok {
					return unkVec(w)
				}
				vals[i] = pv.v
			}
			return concVec(vals)
		}
	}
	// Local reads carry no distance cost, so an untracked address only
	// degrades the value, never the accounting.
	return unkVec(w)
}

func (ex *costExec) doLocalStore(g *absGroup, av, bv *avec, w int) {
	g.cnt.localWrites += int64(w)
	switch av.kind {
	case cvUni:
		// Lane order applies immediately: the last lane's value sticks.
		g.local.poke(av.base, bv.lane(w-1))
		return
	case cvAff, cvConc:
		if w <= ex.concCap {
			addrs := av.materialize(ex.concCap)
			for i := 0; i < w; i++ {
				g.local.poke(addrs[i], bv.lane(i))
			}
			return
		}
	}
	g.local.loseAll()
}

func (ex *costExec) doCombine(g *absGroup, f *absFlow, in isa.Instr, w, seq int) {
	if w > ex.concCap {
		panic(costStop{"combining traffic exceeds the analysis lane budget"})
	}
	av := ex.addrVec(f, in, w)
	addrs := av.materialize(ex.concCap)
	if addrs == nil {
		panic(costStop{fmt.Sprintf("unresolved combining address (pc %d)", f.pc)})
	}
	numa := f.mode == amNUMA
	bv := f.read(in.Rb, w, ex.concCap)
	kind := in.Op.CombineKind()
	want := in.Op.IsMultiprefix()
	for i := 0; i < w; i++ {
		a := addrs[i]
		g.cnt.multiopRefs++
		ex.noteSharedN(g, a, 1, numa)
		ex.notePage(g, a, false)
		ex.notePage(g, a, true)
		c := absContrib{kind: kind, addr: a, val: bv.lane(i), key: mem.Key{Flow: f.id, Thread: i, Seq: seq}}
		if want {
			c.wantPrefix, c.rd, c.rflow = true, in.Rd, f
		}
		g.contribs = append(g.contribs, c)
	}
}

func (ex *costExec) applyControl(g *absGroup, f *absFlow, in isa.Instr) {
	switch in.Op {
	case isa.JMP:
		f.pc = in.Target
	case isa.BEQZ, isa.BNEZ:
		c := f.scalar(in.Ra)
		if !c.ok {
			panic(costStop{fmt.Sprintf("unresolved branch condition (pc %d)", f.pc)})
		}
		if (c.v == 0) == (in.Op == isa.BEQZ) {
			f.pc = in.Target
		} else {
			f.pc++
		}
	case isa.CALL:
		f.callStack = append(f.callStack, f.pc+1)
		f.pc = in.Target
	case isa.RET:
		if n := len(f.callStack); n > 0 {
			f.pc = f.callStack[n-1]
			f.callStack = f.callStack[:n-1]
		} else {
			ex.halt(g, f)
		}
	case isa.SETTHICK:
		if !ex.props.VariableThickness {
			g.fail(fmt.Sprintf("SETTHICK: variant %s has fixed thickness", ex.pol.Kind()))
			return
		}
		t := known(in.Imm)
		if !in.HasImm {
			t = f.scalar(in.Ra)
		}
		if !t.ok {
			panic(costStop{fmt.Sprintf("unresolved SETTHICK thickness (pc %d)", f.pc)})
		}
		if t.v < 0 {
			g.fail(fmt.Sprintf("SETTHICK: negative thickness %d", t.v))
			return
		}
		if ex.p.MaxThickness > 0 && t.v > int64(ex.p.MaxThickness) {
			g.fail(fmt.Sprintf("thickness %d exceeds limit %d", t.v, ex.p.MaxThickness))
			return
		}
		f.setThickness(t.v)
		if t.v > ex.maxThick {
			ex.maxThick = t.v
		}
		f.pc++
	case isa.NUMA:
		if !ex.props.NUMAOperation {
			g.fail(fmt.Sprintf("NUMA: variant %s has no NUMA mode", ex.pol.Kind()))
			return
		}
		b := known(in.Imm)
		if !in.HasImm {
			b = f.scalar(in.Ra)
		}
		if !b.ok {
			panic(costStop{fmt.Sprintf("unresolved NUMA bunch (pc %d)", f.pc)})
		}
		if b.v < 1 {
			g.fail(fmt.Sprintf("NUMA: bunch %d must be >= 1", b.v))
			return
		}
		f.mode = amNUMA
		f.bunch = b.v
		f.pc++
	case isa.PRAM:
		if !ex.props.NUMAOperation {
			g.fail(fmt.Sprintf("PRAM: variant %s has no NUMA mode", ex.pol.Kind()))
			return
		}
		f.mode = amPRAM
		f.thickness, f.totalThickness = 1, 1
		f.pc++
	case isa.SPLIT:
		if !ex.props.ControlParallel {
			g.fail(fmt.Sprintf("SPLIT: variant %s has no control parallelism", ex.pol.Kind()))
			return
		}
		arms := make([]absArm, 0, len(in.Arms))
		for _, a := range in.Arms {
			t := known(a.ThickImm)
			if a.Thick != isa.RegNone {
				t = f.scalar(a.Thick)
			}
			if !t.ok {
				panic(costStop{fmt.Sprintf("unresolved split-arm thickness (pc %d)", f.pc)})
			}
			if t.v < 0 {
				g.fail(fmt.Sprintf("SPLIT: negative arm thickness %d", t.v))
				return
			}
			if ex.p.MaxThickness > 0 && t.v > int64(ex.p.MaxThickness) {
				g.fail(fmt.Sprintf("thickness %d exceeds limit %d", t.v, ex.p.MaxThickness))
				return
			}
			arms = append(arms, absArm{thick: t.v, pc: a.Target})
		}
		f.state = fsWaiting
		f.resumePC = f.pc + 1
		f.liveChildren = len(arms)
		g.events = append(g.events, absEvent{kind: aevSplit, flow: f, arms: arms})
	case isa.BAR:
		f.state = fsBlocked
		f.pc++
		g.cnt.barriers++
	case isa.JOIN, isa.HALT:
		ex.halt(g, f)
	}
}

// fold accumulates one group's step: its cycles under the step cost law
// (the step takes the maximum over groups) and its counters into the totals.
func (ex *costExec) fold(g *absGroup, stepCycles *int64) {
	c := &g.cnt
	cost := pipeline.StepCost(
		pipeline.Config{Depth: ex.p.PipelineDepth, MemLatency: ex.p.MemLatencyBase},
		pipeline.Step{Ops: c.ops, ScalarOps: c.scalarOps, Fetches: c.fetches,
			AnyShared: c.anyShared, MaxDist: c.maxDist, Stall: c.stall})
	if cost.Cycles > *stepCycles {
		*stepCycles = cost.Cycles
	}
	t := &ex.st
	t.ops += c.ops
	t.scalarOps += c.scalarOps
	t.fetches += c.fetches
	t.sharedReads += c.sharedReads
	t.sharedWrites += c.sharedWrites
	t.localReads += c.localReads
	t.localWrites += c.localWrites
	t.multiopRefs += c.multiopRefs
	t.overhead += cost.Overhead
	t.stall += c.stall
	t.barriers += c.barriers
	ex.pendingWrites = append(ex.pendingWrites, g.writes...)
	ex.pendingContribs = append(ex.pendingContribs, g.contribs...)
	ex.stepEvents = append(ex.stepEvents, g.events...)
}

func applyAval(kind isa.Op, a, b aval) aval {
	if !a.ok || !b.ok {
		return unknown
	}
	return known(multiop.Apply(kind, a.v, b.v))
}

// commit mirrors the end-of-step memory resolution: buffered writes
// arbitrate lowest-key-first per address, then combining contributions
// resolve kind by kind in the engine's fixed order, routing prefix values
// back into participant registers.
func (ex *costExec) commit() {
	ws := ex.pendingWrites
	slices.SortFunc(ws, func(a, b absWrite) int {
		return mem.CompareRefs(a.addr, a.key, b.addr, b.key)
	})
	for i := 0; i < len(ws); {
		j := i + 1
		weight := ws[i].count
		for j < len(ws) && ws[j].addr == ws[i].addr {
			weight += ws[j].count
			j++
		}
		ex.shared.poke(ws[i].addr, ws[i].val)
		ex.conflicts += weight - 1
		i = j
	}
	for _, kind := range multiop.Kinds {
		var cs []absContrib
		for _, c := range ex.pendingContribs {
			if c.kind == kind {
				cs = append(cs, c)
			}
		}
		if len(cs) == 0 {
			continue
		}
		slices.SortFunc(cs, func(a, b absContrib) int {
			return mem.CompareRefs(a.addr, a.key, b.addr, b.key)
		})
		for i := 0; i < len(cs); {
			addr := cs[i].addr
			acc := ex.shared.peek(addr)
			j := i
			for ; j < len(cs) && cs[j].addr == addr; j++ {
				c := cs[j]
				if c.wantPrefix {
					idx := c.rd.Index()
					c.rflow.vecs[idx] = setLaneVec(c.rflow.vecs[idx], c.key.Thread, c.rflow.lanes(), ex.concCap, acc)
				}
				acc = applyAval(kind, acc, c.val)
			}
			ex.shared.poke(addr, acc)
			i = j
		}
	}
}

// retireEvents mirrors the frontend: join bookkeeping cascades parent
// completion; splits place children least-loaded-first and charge the
// Table 1 flow-branch rate per child.
func (ex *costExec) retireEvents() {
	for i := 0; i < len(ex.stepEvents); i++ {
		ev := ex.stepEvents[i]
		switch ev.kind {
		case aevChildDone:
			parent := ev.flow.parent
			parent.liveChildren--
			ex.st.joins++
			if parent.liveChildren == 0 && parent.state == fsWaiting {
				if parent.resumePC < 0 {
					parent.state = fsDone
					if parent.parent != nil {
						ex.stepEvents = append(ex.stepEvents, absEvent{kind: aevChildDone, flow: parent})
					}
				} else {
					parent.state = fsReady
					parent.pc = parent.resumePC
				}
			}
		case aevSplit:
			ex.st.splits++
			for _, arm := range ev.arms {
				g := ex.leastLoaded()
				child := ex.newFlow(arm.pc, arm.thick, g)
				child.parent = ev.flow
				child.scalars = ev.flow.scalars
				ex.st.branchCycles += ex.pol.FlowBranchCycles(isa.NumSRegs)
			}
		}
	}
}

func (ex *costExec) leastLoaded() *absGroup {
	best := ex.groups[0]
	bestLoad := best.load()
	for _, g := range ex.groups[1:] {
		if l := g.load(); l < bestLoad {
			best, bestLoad = g, l
		}
	}
	return best
}

// compact mirrors compactGroup: drop Done residents, promote pending flows
// into free slots, then displace Blocked/Waiting residents while runnable
// flows wait — each movement charging the variant's task-switch rate.
func (ex *costExec) compact() {
	for _, g := range ex.groups {
		kept := g.resident[:0]
		for _, f := range g.resident {
			if f.state != fsDone {
				kept = append(kept, f)
			}
		}
		g.resident = kept
		for len(g.resident) < ex.p.ProcsPerGroup && len(g.pending) > 0 {
			g.resident = append(g.resident, g.pending[0])
			g.pending = g.pending[1:]
			ex.st.switchCycles += ex.pol.TaskSwitchCycles(ex.p.ProcsPerGroup)
		}
		for ex.pendingReady(g) {
			idx := -1
			for i, f := range g.resident {
				if f.state == fsBlocked || f.state == fsWaiting {
					idx = i
					break
				}
			}
			if idx < 0 {
				break
			}
			displaced := g.resident[idx]
			g.resident[idx] = g.pending[0]
			g.pending = append(g.pending[1:], displaced)
			ex.st.switchCycles += ex.pol.TaskSwitchCycles(ex.p.ProcsPerGroup)
		}
	}
}

func (ex *costExec) pendingReady(g *absGroup) bool {
	for _, f := range g.pending {
		if f.state == fsReady {
			return true
		}
	}
	return false
}

// fill converts the accumulated totals into a report. Resolved runs pin
// every bound; stopped runs report sound lower bounds only.
func (ex *costExec) fill(rep *CostReport, resolved bool, reason, note string) {
	rep.Resolved = resolved
	rep.Reason = reason
	rep.Note = note
	mk := exactBound
	if !resolved {
		mk = minOnly
	}
	t := &ex.st
	rep.Steps = mk(t.steps)
	rep.Cycles = mk(t.cycles)
	rep.Ops = mk(t.ops)
	rep.ScalarOps = mk(t.scalarOps)
	rep.InstrFetches = mk(t.fetches)
	rep.SharedReads = mk(t.sharedReads)
	rep.SharedWrites = mk(t.sharedWrites)
	rep.LocalReads = mk(t.localReads)
	rep.LocalWrites = mk(t.localWrites)
	rep.MultiopRefs = mk(t.multiopRefs)
	rep.OverheadCycles = mk(t.overhead)
	rep.StallCycles = mk(t.stall)
	rep.FlowBranchCycles = mk(t.branchCycles)
	rep.TaskSwitchCycles = mk(t.switchCycles)
	rep.Barriers = mk(t.barriers)
	rep.Splits = mk(t.splits)
	rep.Joins = mk(t.joins)
	rep.FlowsCreated = mk(t.flowsCreated)
	rep.MaxLiveFlows = mk(t.maxLiveFlows)
	rep.MaxThickness = mk(ex.maxThick)

	rep.WordsPerModule = append([]int64(nil), ex.moduleRefs...)
	if resolved && !ex.conflictsLost {
		rep.WriteConflicts = exactBound(ex.conflicts)
	} else {
		rep.WriteConflicts = minOnly(ex.conflicts)
	}

	n := len(ex.groups)
	rep.GroupReadPages = make([][]int64, n)
	rep.GroupWritePages = make([][]int64, n)
	touched := 0 // pages any group read or wrote
	for w := range ex.groups[0].readPages {
		var all uint64
		for _, g := range ex.groups {
			all |= g.readPages[w] | g.writePages[w]
		}
		touched += bits.OnesCount64(all)
	}
	for i, g := range ex.groups {
		rep.GroupReadPages[i] = pagesOf(g.readPages)
		rep.GroupWritePages[i] = pagesOf(g.writePages)
	}
	if resolved && !ex.footLost {
		rep.FootprintPages = exactBound(int64(touched))
		total := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				total++
				if pagesDisjoint(ex.groups[i].writePages, ex.groups[j].readPages) &&
					pagesDisjoint(ex.groups[i].writePages, ex.groups[j].writePages) &&
					pagesDisjoint(ex.groups[j].writePages, ex.groups[i].readPages) {
					rep.IndependentGroupPairs = append(rep.IndependentGroupPairs, [2]int{i, j})
				}
			}
		}
		rep.ScheduleNote = fmt.Sprintf(
			"%d/%d group pairs provably independent at page granularity: dataflow run-ahead between them never blocks on a shared-page frontier",
			len(rep.IndependentGroupPairs), total)
	} else {
		rep.FootprintPages = minOnly(int64(touched))
		rep.ScheduleNote = "footprint incomplete; no group independence proven"
	}
}

func pagesDisjoint(a, b bitset) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return false
		}
	}
	return true
}
