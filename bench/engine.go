package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"tcfpram"
	"tcfpram/bench/gen"
)

// simStats are the simulated statistics that must not move unnoticed: they
// are compared across backends, with the cost prediction, with the server's
// answer and with the golden file.
type simStats struct {
	Steps        int64    `json:"steps"`
	Cycles       int64    `json:"cycles"`
	Ops          int64    `json:"ops"`
	ScalarOps    int64    `json:"scalar_ops"`
	InstrFetches int64    `json:"instr_fetches"`
	SharedReads  int64    `json:"shared_reads"`
	SharedWrites int64    `json:"shared_writes"`
	StageCycles  [4]int64 `json:"stage_cycles"`
}

func simOf(st *tcfpram.Stats) simStats {
	s := simStats{
		Steps: st.Steps, Cycles: st.Cycles, Ops: st.Ops, ScalarOps: st.ScalarOps,
		InstrFetches: st.InstrFetches, SharedReads: st.SharedReads, SharedWrites: st.SharedWrites,
	}
	for i := range s.StageCycles {
		s.StageCycles[i] = st.Stages[i].Cycles
	}
	return s
}

// work is the simulated work host time is normalised to: operation slices
// plus flow-level scalar operations.
func (s simStats) work() int64 { return s.Ops + s.ScalarOps }

// engineConfig is the machine a program runs on outside the server: the
// default single-instruction machine, sized for the program.
func engineConfig(p *gen.Program, backend tcfpram.Backend) tcfpram.Config {
	cfg := tcfpram.DefaultConfig(tcfpram.SingleInstruction)
	cfg.Backend = backend
	if p.SharedWords > 0 {
		cfg.SharedWords = p.SharedWords
	}
	return cfg
}

// execution is one run of a program on a facade machine.
type execution struct {
	sim     simStats
	runNs   int64 // host time inside Run
	totalNs int64 // Reset, load, Run and reading the results back
	laneChk int64 // Stats.LaneChunks
}

// execute resets m, loads p (from its compiled object when obj is non-nil,
// from source otherwise), runs it and checks the results against the
// program's reference.
func execute(m *tcfpram.Machine, p *gen.Program, obj []byte) (execution, error) {
	var ex execution
	t0 := time.Now()
	m.Reset()
	if err := load(m, p, obj); err != nil {
		return ex, err
	}
	t1 := time.Now()
	st, err := m.Run()
	ex.runNs = time.Since(t1).Nanoseconds()
	if err != nil {
		return ex, fmt.Errorf("%s: run: %w", p.Name, err)
	}
	outputs := m.PrintedValues()
	memory := make([][]int64, len(p.Peek))
	for i, r := range p.Peek {
		memory[i] = m.Words(r.Addr, r.N)
	}
	ex.totalNs = time.Since(t0).Nanoseconds()
	ex.sim = simOf(st)
	ex.laneChk = st.LaneChunks
	return ex, p.Check(outputs, func(i int) []int64 { return memory[i] })
}

// load loads p onto a Reset machine: its compiled object when there is
// one, its source otherwise (an object carries no initialised local
// memory, so programs that have some are loaded from source).
func load(m *tcfpram.Machine, p *gen.Program, obj []byte) error {
	var err error
	if obj != nil {
		err = m.LoadBinary(obj)
	} else {
		err = m.LoadSource(p.Name, p.Source)
	}
	if err != nil {
		return fmt.Errorf("%s: load: %w", p.Name, err)
	}
	return nil
}

// compileObject compiles p once through the facade and returns its TCFB
// object, so measured executions load it without recompiling.
func compileObject(p *gen.Program) ([]byte, error) {
	m, err := tcfpram.NewMachine(tcfpram.DefaultConfig(tcfpram.SingleInstruction))
	if err != nil {
		return nil, err
	}
	if err := m.LoadSource(p.Name, p.Source); err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.Name, err)
	}
	return m.EncodeProgram()
}

// engineSet is a fixed list of programs with one machine per backend.
type engineSet struct {
	progs    []*gen.Program
	objs     [][]byte // nil entries load from source
	machines map[tcfpram.Backend]*tcfpram.Machine
}

// newEngineSet builds the machines (sized for the first program; a set
// shares one shape) and, when precompile is set, the programs' objects.
func newEngineSet(progs []*gen.Program, precompile bool) (*engineSet, error) {
	s := &engineSet{progs: progs, objs: make([][]byte, len(progs)), machines: map[tcfpram.Backend]*tcfpram.Machine{}}
	for _, b := range backends {
		m, err := tcfpram.NewMachine(engineConfig(progs[0], b))
		if err != nil {
			return nil, err
		}
		s.machines[b] = m
	}
	if precompile {
		for i, p := range progs {
			obj, err := compileObject(p)
			if err != nil {
				return nil, err
			}
			s.objs[i] = obj
		}
	}
	return s, nil
}

// sweepResult holds one sweep: every program on every backend.
type sweepResult struct {
	ex     map[tcfpram.Backend][]execution // by program index
	failed int64
	errs   []error
}

// sweep executes every program on both backends. want, when non-nil, is
// the simulated statistics every execution must reproduce.
func (s *engineSet) sweep(want []simStats) sweepResult {
	r := sweepResult{ex: map[tcfpram.Backend][]execution{}}
	for _, b := range backends {
		r.ex[b] = make([]execution, len(s.progs))
		for i, p := range s.progs {
			ex, err := execute(s.machines[b], p, s.objs[i])
			if err == nil && want != nil && ex.sim != want[i] {
				err = fmt.Errorf("%s on %s: simulated statistics %+v differ from the warm-up's %+v", p.Name, b, ex.sim, want[i])
			}
			if err != nil {
				r.failed++
				r.errs = append(r.errs, err)
			}
			r.ex[b][i] = ex
		}
	}
	return r
}

// baseline runs the warm-up sweep and establishes the simulated statistics
// of the set: identical on both backends and, where the cost analyzer
// resolves the program, equal to its prediction.
func (s *engineSet) baseline() ([]simStats, sweepResult) {
	r := s.sweep(nil)
	sims := make([]simStats, len(s.progs))
	for i, p := range s.progs {
		sims[i] = r.ex[tcfpram.BackendInterp][i].sim
		if f := r.ex[tcfpram.BackendFused][i].sim; f != sims[i] {
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("%s: backends disagree: interp %+v, fused %+v", p.Name, sims[i], f))
		}
		if err := checkPrediction(p, sims[i]); err != nil {
			r.failed++
			r.errs = append(r.errs, err)
		}
	}
	return sims, r
}

// baseline runs set's warm-up sweep on r's account and returns the
// statistics the later sweeps are held to.
func (r *result) baseline(set *engineSet) []simStats {
	sims, warm := set.baseline()
	r.note(warm.failed, warm.errs)
	r.attempted += int64(len(backends) * len(set.progs))
	return sims
}

// sweep runs one measured sweep on r's account and adds it to es.
func (r *result) sweep(set *engineSet, sims []simStats, es *engineSamples) {
	sw := set.sweep(sims)
	r.note(sw.failed, sw.errs)
	r.attempted += int64(len(backends) * len(set.progs))
	es.add(sw)
}

// engineSamples accumulates the per-execution measurements of the sweeps,
// as [program][sweep].
type engineSamples struct {
	nsPerOp, nsPerCycle, totalUs map[tcfpram.Backend][][]float64
}

func newEngineSamples(programs int) *engineSamples {
	es := &engineSamples{
		nsPerOp:    map[tcfpram.Backend][][]float64{},
		nsPerCycle: map[tcfpram.Backend][][]float64{},
		totalUs:    map[tcfpram.Backend][][]float64{},
	}
	for _, b := range backends {
		es.nsPerOp[b] = make([][]float64, programs)
		es.nsPerCycle[b] = make([][]float64, programs)
		es.totalUs[b] = make([][]float64, programs)
	}
	return es
}

func (es *engineSamples) add(r sweepResult) {
	for _, b := range backends {
		for i, ex := range r.ex[b] {
			if ex.sim.work() == 0 || ex.sim.Cycles == 0 {
				continue // a failed execution has no statistics
			}
			es.nsPerOp[b][i] = append(es.nsPerOp[b][i], float64(ex.runNs)/float64(ex.sim.work()))
			es.nsPerCycle[b][i] = append(es.nsPerCycle[b][i], float64(ex.runNs)/float64(ex.sim.Cycles))
			es.totalUs[b][i] = append(es.totalUs[b][i], float64(ex.totalNs)/1e3)
		}
	}
}

// fastest reduces [program][sweep] samples to each program's fastest
// sample. The box's cores are slowed from outside the process by up to 1.8x
// for milliseconds to minutes at a time; such interference only ever adds
// time to deterministic work, so the minimum over many short samples
// estimates the undisturbed time, and it repeats between runs where the
// median of the same samples does not (README.md, "Noise").
func fastest(samples [][]float64) []float64 {
	best := make([]float64, len(samples))
	for i, s := range samples {
		if len(s) == 0 {
			return nil // a program that never ran correctly
		}
		best[i] = slices.Min(s)
	}
	return best
}

// sweepsOf turns [program][sweep] samples into [sweep][program], dropping
// sweeps that lack a program.
func sweepsOf(samples [][]float64) [][]float64 {
	n := math.MaxInt
	for _, s := range samples {
		n = min(n, len(s))
	}
	sweeps := make([][]float64, n)
	for k := range sweeps {
		for _, s := range samples {
			sweeps[k] = append(sweeps[k], s[k])
		}
	}
	return sweeps
}

// setSim records the normalised engine metrics: per backend, the geometric
// mean over programs of the program's fastest run, and with it the
// geometric mean of every sweep.
func (es *engineSamples) setSim(res *result) {
	for name, samples := range map[string]map[tcfpram.Backend][][]float64{"sim_ns_per_op.": es.nsPerOp, "sim_ns_per_cycle.": es.nsPerCycle} {
		for _, b := range backends {
			var perSweep []float64
			for _, sw := range sweepsOf(samples[b]) {
				perSweep = append(perSweep, geomean(sw))
			}
			res.setSampled(name+b.String(), geomean(fastest(samples[b])), perSweep)
		}
	}
}

// mix reduces one execution time (µs) per kind of operation to the latency
// metrics of the operation mix.
func mix(us []float64) (p50, p95, rps float64) {
	if len(us) == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, v := range us {
		sum += v
	}
	s := sorted(us)
	return median(s), percentile(s, 95), float64(len(s)) / (sum / 1e6)
}

// runEngine measures an engine workload: a discarded warm-up sweep that
// also establishes the statistics to hold, then sweeps for the run's
// duration.
func runEngine(o options) (*result, error) {
	res := newResult(o)
	var set *engineSet
	setup, err := timeSetup(func() (func(), error) {
		var err error
		// Input generation is part of set-up, so the kernels are built
		// again each time.
		set, err = newEngineSet(workloadPrograms(o), true)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	res.setSampled("setup_s", median(setup), setup)

	sims := res.baseline(set)
	res.recordSims(set.progs, sims)

	es := newEngineSamples(len(set.progs))
	deadline := time.Now().Add(o.duration())
	for sweeps := 0; sweeps < minSweeps || time.Now().Before(deadline); sweeps++ {
		res.sweep(set, sims, es)
	}

	es.setSim(res)
	// One operation is one execution of one kernel on one backend: Reset,
	// load, Run, read the results back. The work is deterministic, so an
	// execution has no latency distribution of its own; the latency metrics
	// describe the operation mix — the ten kinds, each at its fastest — and
	// rest on the same executions as the normalised ones.
	var kinds [][]float64
	for _, b := range backends {
		kinds = append(kinds, es.totalUs[b]...)
	}
	var perSweep struct{ p50, p95, rps []float64 }
	for _, sw := range sweepsOf(kinds) {
		p50, p95, rps := mix(sw)
		perSweep.p50, perSweep.p95, perSweep.rps = append(perSweep.p50, p50), append(perSweep.p95, p95), append(perSweep.rps, rps)
	}
	p50, p95, rps := mix(fastest(kinds))
	res.setSampled("run_p50_us", p50, perSweep.p50)
	res.setSampled("run_p95_us", p95, perSweep.p95)
	res.setSampled("run_rps", rps, perSweep.rps)
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// minSweeps is the fewest measured sweeps an engine run takes, however
// short its duration.
const minSweeps = 5
