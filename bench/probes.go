package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tcfpram"
	"tcfpram/bench/gen"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/multiop"
	"tcfpram/internal/serve"
	"tcfpram/internal/variant"
)

// cell is one engine configuration of the matrix.
type cell struct {
	variant  tcfpram.Variant
	backend  tcfpram.Backend
	sched    tcfpram.Sched
	parallel bool
}

func (c cell) String() string {
	return fmt.Sprintf("%s-%s-%s", c.backend, c.sched, parName(c.parallel))
}

// cellMeasure is what running a set of programs under one cell measured.
type cellMeasure struct {
	runNs, work, steps []int64 // by program; 0 work marks a program the cell refused
	laneChunks         int64
	failed             int64
	errs               []error
}

// nsPer is the cell's host time per unit of per (work or steps), over the
// programs the cell ran.
func (c cellMeasure) nsPer(per []int64) float64 {
	var ns, n int64
	for i := range c.runNs {
		ns += c.runNs[i]
		n += per[i]
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func (c cellMeasure) nsPerOp() float64   { return c.nsPer(c.work) }
func (c cellMeasure) nsPerStep() float64 { return c.nsPer(c.steps) }

// measureCell runs every program reps times under one cell and keeps each
// program's fastest run. want, when non-nil, holds the statistics each run
// must reproduce: every cell of the matrix is bit-identical to the serial
// interpreter under lockstep. A nil want belongs to the variant probe,
// where a kind may refuse a program; that is then not a failure.
func measureCell(progs []*gen.Program, objs [][]byte, c cell, reps int, want []simStats) (cellMeasure, error) {
	cm := cellMeasure{runNs: make([]int64, len(progs)), work: make([]int64, len(progs)), steps: make([]int64, len(progs))}
	cfg := tcfpram.DefaultConfig(c.variant)
	cfg.Backend, cfg.Sched, cfg.Parallel = c.backend, c.sched, c.parallel
	if progs[0].SharedWords > 0 {
		cfg.SharedWords = progs[0].SharedWords
	}
	m, err := tcfpram.NewMachine(cfg)
	if err != nil {
		return cm, err
	}
	for i, p := range progs {
		for r := 0; r < reps; r++ {
			ex, err := execute(m, p, objs[i])
			if err == nil && want != nil && ex.sim != want[i] {
				err = fmt.Errorf("%s under %s: statistics %+v differ from the reference %+v", p.Name, c, ex.sim, want[i])
			}
			if err != nil {
				if want != nil {
					cm.failed++
					cm.errs = append(cm.errs, err)
				}
				cm.runNs[i], cm.work[i], cm.steps[i] = 0, 0, 0
				break
			}
			if cm.runNs[i] == 0 || ex.runNs < cm.runNs[i] {
				cm.runNs[i] = ex.runNs
			}
			cm.work[i], cm.steps[i] = ex.sim.work(), ex.sim.Steps
			cm.laneChunks += ex.laneChk
		}
	}
	return cm, nil
}

// allocsPerStep runs p on m once to warm its arenas, then steps it by hand
// and counts the heap allocations of the step loop.
func allocsPerStep(m *tcfpram.Machine, p *gen.Program, obj []byte) (float64, error) {
	if _, err := execute(m, p, obj); err != nil {
		return 0, err
	}
	m.Reset()
	if err := load(m, p, obj); err != nil {
		return 0, err
	}
	if err := m.Boot(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps := 0
	for !m.Done() {
		if err := m.Step(); err != nil {
			return 0, err
		}
		steps++
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(steps), nil
}

// timeLoop calls f until minTime has passed (at least minCalls times) and
// returns the mean nanoseconds per call.
func timeLoop(minTime time.Duration, minCalls int, f func()) float64 {
	calls := 0
	start := time.Now()
	for calls < minCalls || time.Since(start) < minTime {
		f()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// probeBudget is how long each fixed micro-probe loops.
const probeBudget = 150 * time.Millisecond

// memProbes times mem.Shared on write sets shaped like saxpy-loop's
// (disjoint) and scatter-crcw's (about eight writers per address), and its
// bulk load and single-word read.
func memProbes(res *result, sh gen.ThickShape) error {
	s, err := mem.NewShared(sh.SharedWords, 4, mem.Arbitrary)
	if err != nil {
		return err
	}
	T := sh.Thickness
	disjoint := make([]mem.Write, T)
	conflict := make([]mem.Write, T)
	for t := 0; t < T; t++ {
		key := mem.Key{Thread: t}
		disjoint[t] = mem.Write{Addr: int64(16384 + t), Val: int64(t), Key: key}
		conflict[t] = mem.Write{Addr: int64(16384 + ((t*40503)^(t>>4))&(T/8-1)), Val: int64(3 * t), Key: key}
	}
	for _, w := range []struct {
		name string
		ws   []mem.Write
	}{{"disjoint", disjoint}, {"conflict", conflict}} {
		ns := timeLoop(probeBudget, 3, func() {
			s.BufferWrites(w.ws)
			s.ApplyStep()
		})
		res.set("mem.applystep_ns_per_write."+w.name, ns/float64(T))
	}
	words := make([]int64, T)
	for i := range words {
		words[i] = int64(i)
	}
	ns := timeLoop(probeBudget, 3, func() {
		if err := s.Load(16384, words); err != nil {
			panic(err) // in range by construction
		}
	})
	res.set("mem.load_ns_per_word", ns/float64(T))
	var sink int64
	ns = timeLoop(probeBudget, 3, func() {
		r := s.Reader()
		for t := 0; t < T; t++ {
			sink += r.Peek(int64(16384 + t))
		}
	})
	res.set("mem.peek_ns", ns/float64(T))
	_ = sink
	return nil
}

// multiopProbes times multiop.Combiner on the reference patterns of
// histogram (256 addresses) and scan (one address, prefixes wanted).
func multiopProbes(res *result, sh gen.ThickShape) {
	T := sh.Thickness
	c := multiop.NewCombiner(isa.ADD)
	read := func(int64) int64 { return 0 }
	few := timeLoop(probeBudget, 3, func() {
		for t := 0; t < T; t++ {
			c.Add(multiop.Contribution{Addr: int64((t * 40503) & 255), Val: 1, Key: multiop.Key{Thread: t}})
		}
		c.Resolve(read)
	})
	res.set("multiop.resolve_ns_per_ref.few_addr", few/float64(T))
	one := timeLoop(probeBudget, 3, func() {
		for t := 0; t < T; t++ {
			c.Add(multiop.Contribution{Addr: 7, Val: int64(t & 1023), Key: multiop.Key{Thread: t}, WantPrefix: true, Dest: t})
		}
		c.Resolve(read)
	})
	res.set("multiop.resolve_ns_per_ref.one_addr", one/float64(T))
}

// checkpointProbes snapshots a machine half way through saxpy-loop into a
// buffer, restores it, and checks that the restored machine finishes with
// the reference results.
func checkpointProbes(res *result, saxpy *gen.Program, obj []byte) error {
	cfg := engineConfig(saxpy, tcfpram.BackendInterp)
	m, err := tcfpram.NewMachine(cfg)
	if err != nil {
		return err
	}
	ex, err := execute(m, saxpy, obj)
	if err != nil {
		return err
	}
	m.Reset()
	if err := m.LoadBinary(obj); err != nil {
		return err
	}
	if err := m.Boot(); err != nil {
		return err
	}
	for s := int64(0); s < ex.sim.Steps/2; s++ {
		if err := m.Step(); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	snapNs := timeLoop(probeBudget, 2, func() {
		buf.Reset()
		if err := m.Snapshot(&buf); err != nil {
			panic(err) // a healthy machine at a step boundary
		}
	})
	res.set("checkpoint.snapshot_ms", snapNs/1e6)
	res.set("checkpoint.snapshot_kb", float64(buf.Len())/1024)
	var restored *machine.Machine
	restoreNs := timeLoop(probeBudget, 2, func() {
		restored, err = machine.Restore(bytes.NewReader(buf.Bytes()), cfg)
	})
	if err != nil {
		return fmt.Errorf("checkpoint probe: restore: %w", err)
	}
	res.set("checkpoint.restore_ms", restoreNs/1e6)
	st, err := restored.Run()
	if err != nil {
		return fmt.Errorf("checkpoint probe: resumed run: %w", err)
	}
	if got := simOf(st); got != ex.sim {
		return fmt.Errorf("checkpoint probe: resumed run's statistics %+v differ from the uninterrupted run's %+v", got, ex.sim)
	}
	var outputs []int64
	for _, o := range restored.Outputs() {
		outputs = append(outputs, o.Values...)
	}
	return saxpy.Check(outputs, func(i int) []int64 {
		return restored.Shared().Snapshot(saxpy.Peek[i].Addr, saxpy.Peek[i].N)
	})
}

// jsonProbe times the JSON work of a request for each of progs: decoding
// its body and encoding the answer its reference prescribes. It serves the
// engine workloads, whose replay has no request and so no JSON spans.
func jsonProbe(res *result, progs []*gen.Program) error {
	var jsonErr error
	var buf bytes.Buffer
	bodies := make([][]byte, len(progs))
	for i, p := range progs {
		bodies[i] = requestBody(p, "")
	}
	jsonNs := timeLoop(probeBudget, 1, func() {
		for i, p := range progs {
			var req runRequest
			if err := json.Unmarshal(bodies[i], &req); err != nil {
				jsonErr = err
			}
			resp := runResponse{Outcome: "ok", CachedProg: true, PooledMach: true, Outputs: []outputJSON{{Values: p.WantOutputs}}}
			for i, r := range p.Peek {
				resp.Memory = append(resp.Memory, peekResult{Addr: r.Addr, Values: p.WantMemory[i]})
			}
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
				jsonErr = err
			}
		}
	})
	res.set("serve.json_us", jsonNs/float64(len(progs))/1e3)
	return jsonErr
}

// serveMicroProbes times, on their own instances, the compile cache on a
// hit and a pool lease cycle.
func serveMicroProbes(res *result, progs []*gen.Program, cfg machine.Config) error {
	p := progs[0]
	cache := serve.NewProgramCache(0)
	cache.Get(p.Source, variant.SingleInstruction, vetDiscipline(p))
	res.set("serve.cache_get_hit_ns", timeLoop(probeBudget, 10, func() {
		cache.Get(p.Source, variant.SingleInstruction, vetDiscipline(p))
	}))
	pool := serve.NewMachinePool(1)
	var err error
	res.set("serve.pool_cycle_ns", timeLoop(probeBudget, 10, func() {
		lease, e := pool.Get(cfg)
		if e != nil {
			err = e
			return
		}
		lease.Release()
	}))
	pool.Close()
	return err
}
