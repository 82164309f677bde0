package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"tcfpram"
	"tcfpram/bench/gen"
	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/fuse"
	"tcfpram/internal/lang"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/serve"
	"tcfpram/internal/variant"
)

// The server's admission-time budgets for the cost analysis (unexported
// constants of internal/serve, repeated here so analysis.Cost is timed and
// checked under the parameters a request pays for).
const (
	admitMaxSteps    = 1 << 14
	admitMaxLaneWork = 1 << 22
)

// Per-run bounds the server stamps on a pooled machine for a tenant on the
// default quotas: MaxSteps, and the watchdog window derived from it.
const (
	serveMaxSteps = 1 << 20
	serveWatchdog = 1 << 14
)

// serverConfig is the machine configuration the server builds for a
// request for p: engineConfig plus the per-tenant run bounds.
func serverConfig(p *gen.Program, backend tcfpram.Backend, lim serve.Limits) machine.Config {
	cfg := engineConfig(p, backend)
	if p.Discipline != "" {
		// A request that names a discipline gets it checked at run time too.
		cfg.MemDiscipline = vetDiscipline(p)
	}
	cfg.WatchdogSteps = serveWatchdog
	cfg.MaxSteps = serveMaxSteps
	cfg.MaxThickness = 1 << 16
	if lim.MaxThickness > 0 {
		cfg.MaxThickness = lim.MaxThickness
	}
	return cfg
}

// admissionParams mirrors the server's derivation of cost-analysis
// parameters from a machine configuration.
func admissionParams(cfg machine.Config) analysis.CostParams {
	return analysis.CostParams{
		Variant:        cfg.Variant,
		Groups:         cfg.Groups,
		ProcsPerGroup:  cfg.ProcsPerGroup,
		SharedWords:    cfg.SharedWords,
		LocalWords:     cfg.LocalWords,
		PipelineDepth:  cfg.PipelineDepth,
		MemLatencyBase: cfg.MemLatencyBase,
		VectorWidth:    cfg.VectorWidth,
		MaxSteps:       admitMaxSteps,
		MaxLaneWork:    admitMaxLaneWork,
	}
}

// vetDiscipline is the memory model the vet gate checks p under: the
// program's own, or the server's CREW default.
func vetDiscipline(p *gen.Program) mem.Discipline {
	if p.Discipline == "" {
		return mem.DisciplineCREW
	}
	d, err := mem.ParseDiscipline(p.Discipline)
	if err != nil {
		panic(err) // the generator writes only valid names
	}
	return d
}

// frontend takes p through the calls the server's vet gate and admission
// make on a compile-cache miss, in their order, one span per call. rec may
// be off.
func frontend(rec *recorder, p *gen.Program, cfg machine.Config) (*codegen.Compiled, *analysis.CostReport, error) {
	id := rec.begin("lang.parse")
	prog, err := lang.Parse(p.Source)
	rec.end(id)
	rec.count(id, "src_bytes", int64(len(p.Source)))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = rec.begin("sema.check")
	info, err := sema.Check(prog)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = rec.begin("analysis.vet")
	diags := analysis.Analyze(prog, info, analysis.Options{File: p.Name, Discipline: vetDiscipline(p), Variant: cfg.Variant})
	rec.end(id)
	if tcfpram.DiagnosticsHaveErrors(diags) {
		return nil, nil, fmt.Errorf("%s: rejected by the vet gate: %s", p.Name, tcfpram.RenderDiagnostics(diags))
	}
	id = rec.begin("codegen.compile")
	c, err := codegen.CompileChecked(info)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	c.Program.Name = p.Name
	rec.count(id, "instrs", int64(c.Program.Len()))
	id = rec.begin("analysis.cost")
	rep := analysis.Cost(c, admissionParams(cfg))
	rec.end(id)
	return c, rep, nil
}

// checkPrediction holds the analyzer to its word: when it resolves p, its
// prediction must equal the measured statistics exactly.
func checkPrediction(p *gen.Program, sim simStats) error {
	_, rep, err := frontend(newRecorder(false), p, engineConfig(p, tcfpram.BackendInterp))
	if err != nil {
		return err
	}
	return predictionError(p, rep, sim)
}

func predictionError(p *gen.Program, rep *analysis.CostReport, sim simStats) error {
	if !rep.Resolved || rep.Note != "" {
		return nil
	}
	pred := simStats{
		Steps: rep.Steps.Min, Cycles: rep.Cycles.Min, Ops: rep.Ops.Min, ScalarOps: rep.ScalarOps.Min,
		InstrFetches: rep.InstrFetches.Min, SharedReads: rep.SharedReads.Min, SharedWrites: rep.SharedWrites.Min,
		StageCycles: sim.StageCycles, // the report attributes cycles differently
	}
	if pred != sim {
		return fmt.Errorf("%s: resolved cost prediction %+v differs from the run's %+v", p.Name, pred, sim)
	}
	return nil
}

// replayer replays operations through the public calls the request handler
// and the facade make, recording one span per call.
type replayer struct {
	rec   *recorder
	lim   serve.Limits
	pool  *serve.MachinePool
	cache *serve.ProgramCache
	// compiled holds the programs the compile cache would hold on the hit
	// path (the cache's own entries are not readable from outside).
	compiled map[string]*codegen.Compiled
	set      *engineSet // facade path
	buf      bytes.Buffer
}

// serveRequest replays one POST /run for p: the miss path compiles, the
// hit path asks the (primed) compile cache and uses the program compiled
// at set-up. It returns the response body it encoded.
func (r *replayer) serveRequest(p *gen.Program, body []byte, backend tcfpram.Backend, hit bool) ([]byte, error) {
	rec := r.rec
	root := rec.begin("request")
	defer rec.end(root)

	id := rec.begin("json.decode")
	var req runRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	rec.end(id)
	rec.count(id, "bytes", int64(len(body)))
	if err != nil {
		return nil, err
	}

	cfg := serverConfig(p, backend, r.lim)
	var c *codegen.Compiled
	if hit {
		id = rec.begin("serve.cache_get")
		r.cache.Get(req.Source, variant.SingleInstruction, vetDiscipline(p))
		rec.end(id)
		c = r.compiled[p.Name]
	} else if c, _, err = frontend(rec, p, cfg); err != nil {
		return nil, err
	}

	id = rec.begin("serve.pool_get")
	lease, err := r.pool.Get(cfg)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	m := lease.M
	if backend == tcfpram.BackendFused {
		// LoadProgram compiles through fuse.Cached; calling it first
		// gives the compilation its own span and leaves LoadProgram the
		// load alone.
		id = rec.begin("fuse.compile")
		fuse.Cached(c.Program)
		rec.end(id)
	}
	id = rec.begin("machine.load")
	err = m.SetLimits(cfg.MaxSteps, cfg.MaxThickness)
	if err == nil {
		err = m.LoadProgram(c.Program)
	}
	for _, seg := range c.LocalData {
		for g := 0; g < cfg.Groups && err == nil; g++ {
			err = m.LocalMem(g).Load(seg.Addr, seg.Words)
		}
	}
	rec.end(id)
	if err != nil {
		lease.Discard()
		return nil, fmt.Errorf("%s: load: %w", p.Name, err)
	}

	id = rec.begin("machine.run")
	stats, err := m.RunContext(context.Background())
	rec.end(id)
	if err != nil {
		lease.Release()
		return nil, fmt.Errorf("%s: run: %w", p.Name, err)
	}
	rec.count(id, "steps", stats.Steps)
	rec.count(id, "ops", stats.Ops+stats.ScalarOps)

	id = rec.begin("json.encode")
	resp := runResponse{
		Outcome: "ok", Steps: stats.Steps, Cycles: stats.Cycles, CachedProg: true, PooledMach: lease.Pooled,
		SharedReads: stats.SharedReads, SharedWrites: stats.SharedWrites,
		StageCycles: make(map[string]int64, machine.NumStages),
	}
	for i := range stats.Stages {
		resp.StageCycles[machine.Stage(i).String()] = stats.Stages[i].Cycles
	}
	for _, o := range m.Outputs() {
		resp.Outputs = append(resp.Outputs, outputJSON{Flow: o.Flow, Step: o.Step, Values: append([]int64(nil), o.Values...), Text: o.Text})
	}
	for _, pk := range req.Peek {
		resp.Memory = append(resp.Memory, peekResult{Addr: pk.Addr, Values: m.Shared().Snapshot(pk.Addr, pk.N)})
	}
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetEscapeHTML(false)
	err = enc.Encode(&resp)
	rec.end(id)
	rec.count(id, "bytes", int64(r.buf.Len()))

	id = rec.begin("machine.reset")
	lease.Release()
	rec.end(id)
	return r.buf.Bytes(), err
}

// facadeRun replays one execution of program i of the engine set on one
// backend: the calls execute makes, one span each.
func (r *replayer) facadeRun(i int, backend tcfpram.Backend) (execution, error) {
	rec, m, p := r.rec, r.set.machines[backend], r.set.progs[i]
	var ex execution
	root := rec.begin("run")
	defer rec.end(root)
	t0 := time.Now()

	id := rec.begin("machine.reset")
	m.Reset()
	rec.end(id)
	id = rec.begin("machine.load")
	err := m.LoadBinary(r.set.objs[i])
	rec.end(id)
	if err != nil {
		return ex, fmt.Errorf("%s: load: %w", p.Name, err)
	}
	id = rec.begin("machine.run")
	t1 := time.Now()
	st, err := m.Run()
	ex.runNs = time.Since(t1).Nanoseconds()
	rec.end(id)
	if err != nil {
		return ex, fmt.Errorf("%s: run: %w", p.Name, err)
	}
	rec.count(id, "steps", st.Steps)
	rec.count(id, "ops", st.Ops+st.ScalarOps)
	id = rec.begin("facade.read")
	outputs := m.PrintedValues()
	memory := make([][]int64, len(p.Peek))
	for k, pk := range p.Peek {
		memory[k] = m.Words(pk.Addr, pk.N)
	}
	rec.end(id)
	ex.totalNs = time.Since(t0).Nanoseconds()
	ex.sim = simOf(st)
	return ex, p.Check(outputs, func(k int) []int64 { return memory[k] })
}

// handle sends one request straight to the handler, with a recorder in
// place of a socket.
func handle(h http.Handler, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	return w.Code, w.Body.Bytes(), d
}

// fuseShape reads the fused program's shape from its public Code: the
// share of instructions that run inside register kernels and the mean
// length of the fused runs.
func fuseShape(fp *fuse.Program) (regShare, meanRun float64) {
	var reg, runs, runLen int
	for pc := 0; pc < len(fp.Code); {
		in := fp.Code[pc]
		if in.Class != fuse.ClassReg {
			pc++
			continue
		}
		reg += in.Run
		runs++
		runLen += in.Run
		pc += in.Run
	}
	if len(fp.Code) > 0 {
		regShare = float64(reg) / float64(len(fp.Code))
	}
	if runs > 0 {
		meanRun = float64(runLen) / float64(runs)
	}
	return regShare, meanRun
}
