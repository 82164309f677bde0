package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tcfpram"
	"tcfpram/bench/gen"
	"tcfpram/internal/codegen"
	"tcfpram/internal/fuse"
	"tcfpram/internal/lang"
	"tcfpram/internal/machine"
	"tcfpram/internal/serve"
)

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Stamp    stamp  `json:"stamp"`
	// LayerShare is each layer's self time as a share of the replayed
	// operations' own time (their root spans), in the fastest traced pass.
	LayerShare map[string]float64 `json:"layer_share"`
	// SpanShare is the same by span name.
	SpanShare map[string]float64 `json:"span_share"`
	Spans     []span             `json:"spans"`
}

// tracer carries the state of one traced run.
type tracer struct {
	o     options
	res   *result
	progs []*gen.Program // the workload's fixed programs
	sims  []simStats
	set   *engineSet
}

// layerOf maps a span name to its layer (package) name.
func layerOf(span string) string {
	layer, _, _ := strings.Cut(span, ".")
	return layer
}

// runTraced takes the per-layer metrics of a workload: it replays the
// workload's operations through the public calls of each layer with a span
// around each, checks that the layers' self times add up to the whole, and
// adds the fixed probes.
func runTraced(o options, fixed *fixedProbes) (*result, error) {
	t := &tracer{o: o, res: newResult(o), progs: workloadPrograms(o)}
	var err error
	if t.set, err = newEngineSet(t.progs, o.workload != "serve-hot"); err != nil {
		return nil, err
	}
	t.sims = t.res.baseline(t.set)
	t.res.recordSims(t.progs, t.sims)

	if err := t.compileProbes(); err != nil {
		return nil, err
	}
	spans, err := t.replay()
	if err != nil {
		return nil, err
	}
	if err := t.serveProbes(); err != nil {
		return nil, err
	}
	if err := t.machineProbes(); err != nil {
		return nil, err
	}
	if err := fixed.addTo(t.res, o); err != nil {
		return nil, err
	}
	return t.res, writeJSON(filepath.Join("out", "trace-"+o.workload+".json"), spans)
}

// compileProbes times each frontend layer's public functions on the
// workload's programs and takes the counts at the same boundaries.
func (t *tracer) compileProbes() error {
	reps := 1 + 64/len(t.progs)
	rec := newRecorder(true)
	var tokens, srcBytes, instrs, resolved, analysed, cycleErr int64
	var lexNs, fuseNs int64
	var regShare, runLen []float64
	for i, p := range t.progs {
		cfg := engineConfig(p, tcfpram.BackendInterp)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			toks, err := lang.Lex(p.Source)
			lexNs += time.Since(t0).Nanoseconds()
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			root := rec.begin("compile")
			c, cost, err := frontend(rec, p, cfg)
			rec.end(root)
			if err != nil {
				return err
			}
			t0 = time.Now()
			fp := fuse.Compile(c.Program)
			fuseNs += time.Since(t0).Nanoseconds()
			if r > 0 {
				continue
			}
			tokens += int64(len(toks))
			srcBytes += int64(len(p.Source))
			instrs += int64(c.Program.Len())
			rs, rl := fuseShape(fp)
			regShare, runLen = append(regShare, rs), append(runLen, rl)
			analysed++
			if cost.Resolved && cost.Note == "" {
				resolved++
				d := cost.Cycles.Min - t.sims[i].Cycles
				cycleErr += max(d, -d)
				if err := predictionError(p, cost, t.sims[i]); err != nil {
					t.res.note(1, []error{err})
				}
			}
		}
	}
	n := float64(len(t.progs))
	calls := n * float64(reps)
	tot := totals(rec.spans)
	t.res.set("lang.lex_us", float64(lexNs)/calls/1e3)
	t.res.set("lang.parse_us", tot.meanUs("lang.parse"))
	t.res.set("lang.tokens", float64(tokens)/n)
	t.res.set("lang.src_bytes", float64(srcBytes)/n)
	t.res.set("sema.check_us", tot.meanUs("sema.check"))
	t.res.set("analysis.vet_us", tot.meanUs("analysis.vet"))
	t.res.set("analysis.cost_us", tot.meanUs("analysis.cost"))
	t.res.set("analysis.cost_resolved_share", float64(resolved)/float64(analysed))
	t.res.set("analysis.cost_cycle_err", float64(cycleErr))
	t.res.set("codegen.compile_us", tot.meanUs("codegen.compile"))
	t.res.set("codegen.instrs", float64(instrs)/n)
	t.res.set("fuse.compile_us", float64(fuseNs)/calls/1e3)
	t.res.set("fuse.reg_instr_share", mean(regShare))
	t.res.set("fuse.mean_run_len", mean(runLen))
	return nil
}

// replayPrograms are the operations the replay goes through: the fixed
// programs for three workloads, a larger seeded sample of distinct
// programs for serve-cold (each is requested once, so each is a miss).
func (t *tracer) replayPrograms() []*gen.Program {
	if t.o.workload != "serve-cold" {
		return t.progs
	}
	n := 64
	if t.o.small {
		n = 8
	}
	g := gen.NewGenerator(t.o.seed, "trace")
	progs := make([]*gen.Program, n)
	for i := range progs {
		progs[i] = g.Next()
	}
	return progs
}

// replay runs the workload's operations three ways — through the whole
// (handler or facade call), through the layer calls untraced, and through
// them traced — and derives the trace metrics. It returns the trace file.
func (t *tracer) replay() (*traceFile, error) {
	o := t.o
	progs := t.replayPrograms()
	serveLoad := strings.HasPrefix(o.workload, "serve-")
	hit := o.workload == "serve-hot"
	backend := tcfpram.BackendInterp
	backendName := ""
	if o.workload == "serve-cold" {
		backend, backendName = tcfpram.BackendFused, "fused"
	}
	// A pass goes reps times over the operations; reps is set below, from
	// the warm-up pass, so that a pass outlasts the box's short stalls.
	reps := 1
	const rounds, minPass = 3, 100 * time.Millisecond

	sopts := serveOptions(o)
	rp := &replayer{lim: sopts.DefaultLimits, set: t.set}
	bodies := make([][]byte, len(progs))
	if serveLoad {
		rp.pool = serve.NewMachinePool(1)
		defer rp.pool.Close()
		rp.cache = serve.NewProgramCache(0)
		rp.compiled = map[string]*codegen.Compiled{}
		for i, p := range progs {
			bodies[i] = requestBody(p, backendName)
			if hit {
				c, _, err := frontend(newRecorder(false), p, serverConfig(p, backend, rp.lim))
				if err != nil {
					return nil, err
				}
				rp.compiled[p.Name] = c
			}
		}
	}

	// pass replays every operation once through the layer calls and
	// returns the wall time of all of them.
	pass := func(rec *recorder) (int64, error) {
		rp.rec = rec
		var ns int64
		for k := 0; k < reps*len(progs); k++ {
			i := k % len(progs)
			p := progs[i]
			t0 := time.Now()
			if serveLoad {
				body, err := rp.serveRequest(p, bodies[i], backend, hit)
				ns += time.Since(t0).Nanoseconds()
				if err == nil {
					err = checkResponse(p, 200, body, nil)
				}
				if err != nil {
					return 0, err
				}
				continue
			}
			for _, b := range backends {
				t0 = time.Now()
				ex, err := rp.facadeRun(i, b)
				ns += time.Since(t0).Nanoseconds()
				if err == nil && ex.sim != t.sims[i] {
					err = fmt.Errorf("%s on %s: statistics moved during the replay", p.Name, b)
				}
				if err != nil {
					return 0, err
				}
			}
		}
		return ns, nil
	}

	// whole is the same operations through the handler (serve) or through
	// execute (engine): what the layers' self times must add up to.
	whole := func() (int64, error) {
		var ns int64
		if !serveLoad {
			for r := 0; r < reps; r++ {
				res := t.set.sweep(t.sims)
				if res.failed > 0 {
					return 0, res.errs[0]
				}
				for _, b := range backends {
					for _, ex := range res.ex[b] {
						ns += ex.totalNs
					}
				}
			}
			return ns, nil
		}
		// A fresh server: its compile cache has seen none of the
		// programs, so for serve-cold every request is a miss; serve-hot
		// primes it first.
		srv := serve.New(sopts)
		defer srv.Drain(time.Second)
		h := srv.Handler()
		if hit {
			for i := range progs {
				handle(h, bodies[i])
			}
		} else {
			// One request of another program builds the pooled machine.
			handle(h, requestBody(gen.NewGenerator(o.seed, "pool").Next(), backendName))
		}
		for k := 0; k < reps*len(progs); k++ {
			i := k % len(progs)
			status, body, d := handle(h, bodies[i])
			ns += d.Nanoseconds()
			if err := checkResponse(progs[i], status, body, nil); err != nil {
				return 0, err
			}
		}
		return ns, nil
	}

	warmNs, err := pass(newRecorder(false))
	if err != nil {
		return nil, err
	}
	if o.workload != "serve-cold" { // whose programs are misses only once
		reps = int(min(256, 1+minPass.Nanoseconds()/warmNs))
	}
	// Several rounds of the three passes; each kind keeps its fastest (see
	// fastest), and the trace file holds the spans of the fastest traced
	// pass.
	wholeNs, untracedNs, tracedNs := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
	var spans []span
	for r := 0; r < rounds; r++ {
		ns, err := whole()
		if err != nil {
			return nil, err
		}
		wholeNs = min(wholeNs, ns)
		if ns, err = pass(newRecorder(false)); err != nil {
			return nil, err
		}
		untracedNs = min(untracedNs, ns)
		rec := newRecorder(true)
		if ns, err = pass(rec); err != nil {
			return nil, err
		}
		if ns < tracedNs {
			tracedNs, spans = ns, rec.spans
		}
	}
	// A warm-up and three passes a round over every operation, on both
	// backends where the operation is a facade run.
	perPass := reps * len(progs)
	if !serveLoad {
		perPass *= len(backends)
	}
	t.res.attempted += int64(3*rounds*perPass + len(progs))

	tot := totals(spans)
	tf := &traceFile{Workload: o.workload, Stamp: t.res.Stamp, LayerShare: map[string]float64{}, SpanShare: map[string]float64{}, Spans: spans}
	var layerSelf, rootSelf, rootTotal int64
	for name, self := range tot.self {
		if name == "request" || name == "run" {
			rootSelf += self
			rootTotal += tot.total[name]
			continue
		}
		layerSelf += self
	}
	for name, self := range tot.self {
		if name != "request" && name != "run" {
			tf.LayerShare[layerOf(name)] += float64(self) / float64(rootTotal)
			tf.SpanShare[name] = float64(self) / float64(rootTotal)
		}
	}
	t.res.set("trace.sum_vs_whole", float64(layerSelf)/float64(wholeNs))
	t.res.set("trace.unattributed_share", float64(rootSelf)/float64(rootTotal))
	t.res.set("trace.overhead_share", float64(tracedNs-untracedNs)/float64(untracedNs))
	t.res.set("machine.reset_us", tot.meanUs("machine.reset"))
	t.res.set("machine.load_us", tot.meanUs("machine.load"))
	if serveLoad {
		t.res.set("serve.json_us", tot.meanUs("json.decode")+tot.meanUs("json.encode"))
	} else if err := jsonProbe(t.res, progs); err != nil {
		return nil, err
	}
	return tf, nil
}

// serveProbes sends the workload's programs to the server three ways:
// straight to the handler, to the handler of a journaling server, and over
// HTTP in a short closed loop.
func (t *tracer) serveProbes() error {
	o := t.o
	progs := t.replayPrograms()
	backendName := ""
	if o.workload == "serve-cold" {
		backendName = "fused"
	}
	sopts := serveOptions(o)
	clients := runtime.NumCPU()

	// pass returns the per-request handler times (µs, ascending) and the
	// KB allocated per request.
	pass := func(srv *serve.Server, reps int) ([]float64, float64, error) {
		h := srv.Handler()
		if o.workload == "serve-cold" {
			handle(h, requestBody(gen.NewGenerator(o.seed, "pool").Next(), backendName))
		} else {
			for _, p := range progs {
				handle(h, requestBody(p, backendName))
			}
		}
		var us []float64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var firstErr error
		for r := 0; r < reps; r++ {
			for _, p := range progs {
				status, body, d := handle(h, requestBody(p, backendName))
				us = append(us, float64(d.Nanoseconds())/1e3)
				if err := checkResponse(p, status, body, nil); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		runtime.ReadMemStats(&after)
		sort.Float64s(us)
		t.res.attempted += int64(len(us))
		return us, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(us)) / 1024, firstErr
	}

	plain := serve.New(sopts)
	us, allocKB, err := pass(plain, o.reps(o.workload, len(progs), 4))
	plain.Drain(time.Second)
	if err != nil {
		return err
	}
	handlerP50 := percentile(us, 50)
	t.res.set("serve.handler_us", handlerP50)
	t.res.set("serve.alloc_kb_per_req", allocKB)

	dir := filepath.Join("out", "journal-"+o.workload)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jopts := sopts
	jopts.RecoverDir = dir
	journaling, err := serve.NewRecovered(jopts)
	if err != nil {
		return err
	}
	jus, _, err := pass(journaling, 1)
	journaling.Drain(time.Second)
	if err != nil {
		return err
	}
	t.res.set("serve.journal_us_per_req", percentile(jus, 50)-handlerP50)

	// Closed loop over HTTP, as the untraced run drives it.
	env, err := startServer(serve.New(sopts), clients)
	if err != nil {
		return err
	}
	defer env.stop()
	var sources []source
	if o.workload == "serve-cold" {
		in := coldInputs(o, clients)
		if _, failed, errs := env.prime(in, primePrograms, nil); failed > 0 {
			return errs[0]
		}
		sources = in.sources(t.sims)
	} else {
		in := &serveInputs{backend: backendName, sample: t.progs}
		if _, failed, errs := env.prime(in, len(in.sample), t.sims); failed > 0 {
			return errs[0]
		}
		bodies := make([][]byte, len(t.progs))
		for i, p := range t.progs {
			bodies[i] = requestBody(p, backendName)
		}
		for c := 0; c < clients; c++ {
			k := c
			sources = append(sources, func() (*gen.Program, []byte, *simStats) {
				i := k % len(t.progs)
				k++
				return t.progs[i], bodies[i], &t.sims[i]
			})
		}
	}
	before := env.srv.Metrics()
	seg := env.closedLoop(o.duration()/segments, sources)
	after := env.srv.Metrics()
	t.res.attempted += seg.attempted
	t.res.note(seg.failed, seg.errs)
	if len(seg.answers) == 0 {
		return fmt.Errorf("%s: the closed loop got no correct answer", o.workload)
	}
	loop := windowOf(seg.answers)
	t.res.set("serve.run_p99_us", loop.p99)
	t.res.set("serve.http_overhead_us", loop.p50-handlerP50)
	share := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	t.res.set("serve.cache_hit_share", share(after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses))
	t.res.set("serve.pool_hit_share", share(after.Pool.Hits-before.Pool.Hits, after.Pool.Misses-before.Pool.Misses))

	return serveMicroProbes(t.res, t.progs, serverConfig(t.progs[0], tcfpram.BackendInterp, sopts.DefaultLimits))
}

// cell measures a set of programs under one cell on r's account.
func (r *result) cell(progs []*gen.Program, objs [][]byte, c cell, reps int, want []simStats) (cellMeasure, error) {
	cm, err := measureCell(progs, objs, c, reps, want)
	if err != nil {
		return cm, err
	}
	r.note(cm.failed, cm.errs)
	r.attempted += int64(reps * len(progs))
	return cm, nil
}

// reps is how often the traced pass repeats a set of programs: light times
// as a rule, once where one pass is already long — the full-size thick
// kernels, or a set of many programs.
func (o options) reps(workload string, programs, light int) int {
	if (workload == "engine-thick" && !o.small) || programs >= 32 {
		return 1
	}
	return light
}

// machineProbes takes the machine layer's metrics on the workload's own
// programs: construction, allocation in the step loop, the exact simulated
// counts, and the backend × scheduler × parallel matrix.
func (t *tracer) machineProbes() error {
	cfg := engineConfig(t.progs[0], tcfpram.BackendInterp)
	t.res.set("machine.new_us", timeLoop(probeBudget/3, 3, func() {
		if _, err := machine.New(cfg); err != nil {
			panic(err) // the configuration built machines before
		}
	})/1e3)

	var allocs float64
	for _, b := range backends {
		for i, p := range t.progs {
			a, err := allocsPerStep(t.set.machines[b], p, t.set.objs[i])
			if err != nil {
				return err
			}
			allocs = max(allocs, a)
		}
	}
	t.res.set("machine.allocs_per_step", allocs)

	var steps, cycles, ops int64
	var stages [4]int64
	for _, s := range t.sims {
		steps, cycles, ops = steps+s.Steps, cycles+s.Cycles, ops+s.work()
		for i, c := range s.StageCycles {
			stages[i] += c
		}
	}
	t.res.set("machine.sim_steps", float64(steps))
	t.res.set("machine.sim_cycles", float64(cycles))
	t.res.set("machine.sim_ops", float64(ops))
	for s := tcfpram.Stage(0); s <= tcfpram.StageCommit; s++ {
		t.res.set("machine.stage_cycles."+s.String(), float64(stages[s]))
	}

	var laneChunks int64
	for _, b := range backends {
		for _, s := range scheds {
			for _, par := range []bool{false, true} {
				c := cell{tcfpram.SingleInstruction, b, s, par}
				cm, err := t.res.cell(t.progs, t.set.objs, c, t.o.reps(t.o.workload, len(t.progs), 2), t.sims)
				if err != nil {
					return err
				}
				t.res.set("machine.ns_per_op."+c.String(), cm.nsPerOp())
				laneChunks += cm.laneChunks
			}
		}
	}
	t.res.set("machine.lane_chunks", float64(laneChunks))
	return nil
}

// fixedProbes are the probes whose input is named in the metric and so does
// not depend on the workload: the ten kernels' rows, the six variants on the
// engine-flows kernels, and the mem, multiop and checkpoint micro-probes.
// Every traced result carries them, but a process measures them once.
type fixedProbes struct{ res *result }

// addTo copies the fixed probes into res, measuring them first if this is
// the process's first traced run.
func (f *fixedProbes) addTo(res *result, o options) error {
	if f.res == nil {
		fr, err := measureFixed(o)
		if err != nil {
			return err
		}
		f.res = fr
	}
	for name, m := range f.res.Metrics {
		res.Metrics[name] = m
	}
	res.attempted += f.res.attempted
	res.failed += f.res.failed
	res.Errors = append(res.Errors, f.res.Errors...)
	return nil
}

func measureFixed(o options) (*result, error) {
	res := newResult(o)
	var saxpy *gen.Program
	var saxpyObj []byte
	for _, ks := range []struct {
		workload, stepMetric string
		progs                []*gen.Program
	}{
		{"engine-thick", "machine.ns_per_step.thick", gen.ThickKernels(o.seed, o.thickShape())},
		{"engine-flows", "machine.ns_per_step.thin", gen.FlowKernels(o.seed, o.flowShape())},
	} {
		set, err := newEngineSet(ks.progs, true)
		if err != nil {
			return nil, err
		}
		progs, objs, sims := ks.progs, set.objs, res.baseline(set)
		reps := o.reps(ks.workload, len(progs), 3)
		for _, b := range backends {
			cm, err := res.cell(progs, objs, cell{tcfpram.SingleInstruction, b, tcfpram.SchedLockstep, false}, reps, sims)
			if err != nil {
				return nil, err
			}
			for i, p := range progs {
				res.set(fmt.Sprintf("machine.ns_per_op.%s.%s", p.Name, b), float64(cm.runNs[i])/float64(max(cm.work[i], 1)))
			}
			if b == tcfpram.BackendInterp {
				res.set(ks.stepMetric, cm.nsPerStep())
			}
		}
		if ks.workload == "engine-thick" {
			saxpy, saxpyObj = progs[0], objs[0]
			continue
		}
		// The variant probe: the kernels each kind accepts, plus the
		// scalar loop every kind accepts.
		progs = append(append([]*gen.Program(nil), progs...), gen.ScalarLoop(o.seed, o.flowShape().LoopIters))
		objs = append(append([][]byte(nil), objs...), nil)
		for _, v := range tcfpram.Variants() {
			cm, err := res.cell(progs, objs, cell{v, tcfpram.BackendInterp, tcfpram.SchedLockstep, false}, reps, nil)
			if err != nil {
				return nil, err
			}
			res.set("variant.ns_per_op."+v.String(), cm.nsPerOp())
		}
	}
	if err := memProbes(res, o.thickShape()); err != nil {
		return nil, err
	}
	multiopProbes(res, o.thickShape())
	return res, checkpointProbes(res, saxpy, saxpyObj)
}
