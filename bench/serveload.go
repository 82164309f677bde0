package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"tcfpram"
	"tcfpram/bench/gen"
	"tcfpram/internal/serve"
)

// runRequest and runResponse mirror the JSON of POST /run (the server's own
// types are unexported).
type runRequest struct {
	Name        string      `json:"name"`
	Source      string      `json:"source"`
	Discipline  string      `json:"discipline,omitempty"`
	Backend     string      `json:"backend,omitempty"`
	SharedWords int         `json:"shared_words,omitempty"`
	Peek        []peekRange `json:"peek,omitempty"`
}

type peekRange struct {
	Addr int64 `json:"addr"`
	N    int   `json:"n"`
}

type runResponse struct {
	Outcome      string           `json:"outcome"`
	Error        string           `json:"error,omitempty"`
	Diagnostics  string           `json:"diagnostics,omitempty"`
	Steps        int64            `json:"steps,omitempty"`
	Cycles       int64            `json:"cycles,omitempty"`
	StageCycles  map[string]int64 `json:"stage_cycles,omitempty"`
	Outputs      []outputJSON     `json:"outputs,omitempty"`
	Memory       []peekResult     `json:"memory,omitempty"`
	CachedProg   bool             `json:"cached_program"`
	PooledMach   bool             `json:"pooled_machine"`
	WallClock    string           `json:"wall_clock,omitempty"`
	SharedReads  int64            `json:"shared_reads,omitempty"`
	SharedWrites int64            `json:"shared_writes,omitempty"`
}

type outputJSON struct {
	Flow   int     `json:"flow"`
	Step   int64   `json:"step"`
	Values []int64 `json:"values,omitempty"`
	Text   string  `json:"text,omitempty"`
}

type peekResult struct {
	Addr   int64   `json:"addr"`
	Values []int64 `json:"values"`
}

// requestBody renders the POST /run body for p.
func requestBody(p *gen.Program, backend string) []byte {
	req := runRequest{Name: p.Name, Source: p.Source, Discipline: p.Discipline, Backend: backend, SharedWords: p.SharedWords}
	for _, r := range p.Peek {
		req.Peek = append(req.Peek, peekRange{Addr: r.Addr, N: r.N})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain strings and integers always marshal
	}
	return body
}

// checkResponse verifies one /run answer against the program's reference
// and, when want is non-nil, against the simulated statistics the engine
// produced for the same program.
func checkResponse(p *gen.Program, status int, body []byte, want *simStats) error {
	var resp runResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: undecodable answer (HTTP %d): %w", p.Name, status, err)
	}
	if status != http.StatusOK || resp.Outcome != "ok" {
		return fmt.Errorf("%s: HTTP %d, outcome %q: %s %s", p.Name, status, resp.Outcome, resp.Error, resp.Diagnostics)
	}
	var outputs []int64
	for _, o := range resp.Outputs {
		outputs = append(outputs, o.Values...)
	}
	if len(resp.Memory) != len(p.Peek) {
		return fmt.Errorf("%s: answer has %d memory ranges, want %d", p.Name, len(resp.Memory), len(p.Peek))
	}
	if err := p.Check(outputs, func(i int) []int64 { return resp.Memory[i].Values }); err != nil {
		return err
	}
	if want != nil {
		got := simStats{Steps: resp.Steps, Cycles: resp.Cycles, SharedReads: resp.SharedReads, SharedWrites: resp.SharedWrites}
		for s := tcfpram.Stage(0); s <= tcfpram.StageCommit; s++ {
			got.StageCycles[s] = resp.StageCycles[s.String()]
		}
		// The answer carries no operation or fetch counts.
		w := *want
		w.Ops, w.ScalarOps, w.InstrFetches = 0, 0, 0
		if got != w {
			return fmt.Errorf("%s: server statistics %+v differ from the engine's %+v", p.Name, got, w)
		}
	}
	return nil
}

// serveOptions configures the in-process server for a workload: one run
// slot per core, quotas wide enough for the workload's programs.
func serveOptions(o options) serve.Options {
	opts := serve.Options{MaxConcurrent: runtime.NumCPU()}
	switch o.workload {
	case "engine-thick":
		sh := o.thickShape()
		opts.DefaultLimits = serve.Limits{MaxThickness: sh.Thickness, MaxSharedWords: sh.SharedWords, MaxWallClock: 30 * time.Second}
	case "engine-flows":
		// splitjoin-tree's generated source is about 135 KB.
		opts.DefaultLimits = serve.Limits{MaxSourceBytes: 256 << 10}
	}
	return opts
}

// serveEnv is an in-process tcfserve on a loopback listener with one
// keep-alive client connection per closed-loop client.
type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	clients []*http.Client
	served  chan struct{}
}

func startServer(srv *serve.Server, clients int) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/run",
		served: make(chan struct{}),
	}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed at stop
	}()
	for i := 0; i < clients; i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return e, nil
}

// stop closes the listener and connections and waits for the server
// goroutine and all in-flight runs to end.
func (e *serveEnv) stop() {
	for _, c := range e.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
	_ = e.hs.Close()
	<-e.served
	e.srv.Drain(5 * time.Second)
}

// post sends one request and returns the status, the body and the
// client-side latency.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	return resp.StatusCode, buf.Bytes(), lat, err
}

// source yields a client's next request: the program, its body and, when
// known, the statistics its answer must carry.
type source func() (p *gen.Program, body []byte, want *simStats)

// answer is one verified-correct request: which program it ran, when its
// answer had been read, since the segment started, how long the client had
// waited for it, and how long the client's whole turn took — from its
// previous answer (or the segment's start) to this one, verification
// included.
type answer struct {
	kind    string
	doneNs  int64
	latUs   float64
	cycleUs float64
}

// segment is what one closed-loop stretch measured.
type segment struct {
	answers   []answer // verified-correct requests only, in completion order
	attempted int64
	failed    int64
	errs      []error // the first few of each client
}

// closedLoop drives the server with one goroutine per client connection
// for d: each sends its next request only when the previous answer has
// arrived and been read.
func (e *serveEnv) closedLoop(d time.Duration, sources []source) segment {
	results := make([]segment, len(e.clients)) // one per client
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			var buf bytes.Buffer
			var prev int64 // when the client's previous turn ended
			for time.Now().Before(deadline) {
				p, body, want := sources[i]()
				status, data, lat, err := post(c, e.url, body, &buf)
				done := time.Since(start).Nanoseconds()
				cycle := done - prev
				prev = done
				if err == nil {
					err = checkResponse(p, status, data, want)
				}
				r.attempted++
				if err != nil {
					r.failed++
					if len(r.errs) < maxErrors {
						r.errs = append(r.errs, err)
					}
					continue
				}
				r.answers = append(r.answers, answer{kind: p.Name, doneNs: done, latUs: float64(lat.Nanoseconds()) / 1e3, cycleUs: float64(cycle) / 1e3})
			}
		}()
	}
	wg.Wait()
	var seg segment
	for _, r := range results {
		seg.answers = append(seg.answers, r.answers...)
		seg.attempted += r.attempted
		seg.failed += r.failed
		seg.errs = append(seg.errs, r.errs...)
	}
	sort.Slice(seg.answers, func(i, j int) bool { return seg.answers[i].doneNs < seg.answers[j].doneNs })
	return seg
}

// window is the latency and throughput of a set of answers.
type window struct{ p50, p95, p99, rps float64 }

// windowOf reduces a segment's answers, in completion order, to a window.
func windowOf(as []answer) window {
	lat := make([]float64, len(as))
	for i, a := range as {
		lat[i] = a.latUs
	}
	sort.Float64s(lat)
	return window{
		p50: percentile(lat, 50),
		p95: percentile(lat, 95),
		p99: percentile(lat, 99),
		rps: float64(len(as)) / (float64(as[len(as)-1].doneNs) / 1e9),
	}
}

// quietPercentile is the share of a program's answers that count as having
// met no interference: the quiet time of a program is that percentile of
// its latencies (of its turns) over the run. A run has some 10 000 answers
// per serve-hot program and some 200 per serve-cold program.
const quietPercentile = 1

// kindTimes are the latencies and turn times of one program's answers.
type kindTimes struct{ lat, cycle []float64 }

// addTo files a segment's answers under their programs.
func (seg segment) addTo(kinds map[string]*kindTimes) {
	for _, a := range seg.answers {
		k := kinds[a.kind]
		if k == nil {
			k = &kindTimes{}
			kinds[a.kind] = k
		}
		k.lat, k.cycle = append(k.lat, a.latUs), append(k.cycle, a.cycleUs)
	}
}

// quietMix reduces a run's answers, filed under the programs, which were
// requested equally often, to the latency metrics of that mix with every
// program at its quiet time (see fastest for why): the median and p95 over
// the programs of their quiet latencies, and the answers per second the
// closed-loop clients get when every turn takes its quiet time.
func quietMix(kinds map[string]*kindTimes, clients int) window {
	var lat, cycle []float64
	for _, k := range kinds {
		lat = append(lat, percentile(sorted(k.lat), quietPercentile))
		cycle = append(cycle, percentile(sorted(k.cycle), quietPercentile))
	}
	p50, p95, _ := mix(lat)
	_, _, rps := mix(cycle)
	return window{p50: p50, p95: p95, rps: float64(clients) * rps}
}

// serveInputs are a serve workload's requests: the programs, whose
// statistics the engine pass establishes, and one source per client that
// requests them round-robin, so that each program's answers are a sample
// of their own.
type serveInputs struct {
	backend string // what requests ask for: "" (server default) or "fused"
	sample  []*gen.Program
	sources func(sims []simStats) []source
}

// roundRobin sets the sources: each client goes through the sample over
// and over in its own seeded order. body renders the
// k-th request of client c for program i.
func (in *serveInputs) roundRobin(o options, clients int, body func(c, k, i int) []byte) {
	in.sources = func(sims []simStats) []source {
		var out []source
		for c := 0; c < clients; c++ {
			order := gen.Order(o.seed, fmt.Sprintf("%s/c%d", o.workload, c), len(in.sample))
			k := 0
			out = append(out, func() (*gen.Program, []byte, *simStats) {
				i := order[k%len(order)]
				k++
				return in.sample[i], body(c, k, i), &sims[i]
			})
		}
		return out
	}
}

func hotInputs(o options, clients int) (*serveInputs, error) {
	corpus, err := gen.Corpus()
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(corpus))
	for i, p := range corpus {
		bodies[i] = requestBody(p, "")
	}
	in := &serveInputs{sample: corpus}
	in.roundRobin(o, clients, func(_, _, i int) []byte { return bodies[i] })
	return in, nil
}

// coldInputs draws coldSample programs from the seeded generator. Every
// request is one of them under a first line no request has had before, so
// the server, whose cache goes by the source text, has never seen it and
// compiles it from scratch, and yet the same compilation comes round often
// enough to have a quiet time.
func coldInputs(o options, clients int) *serveInputs {
	g := gen.NewGenerator(o.seed, "sample")
	in := &serveInputs{backend: "fused", sample: make([]*gen.Program, coldSample)}
	for i := range in.sample {
		in.sample[i] = g.Next()
	}
	in.roundRobin(o, clients, func(c, k, i int) []byte {
		p := *in.sample[i]
		p.Source = fmt.Sprintf("// client %d, request %d\n%s", c, k, p.Source)
		return requestBody(&p, in.backend)
	})
	return in
}

// coldSample is how many generated programs make up serve-cold. Its metrics
// are medians and means over them, so the sample must be large enough that
// another seed's draw reads the same, and small enough that a run requests
// each program some 200 times.
const coldSample = 48

// primePrograms is how many of the sample programs a set-up sends ahead.
const primePrograms = 16

// prime sends the first n sample programs once over every client
// connection, so the measured requests find open connections, pooled
// machines and — for the 16-program corpus — a full compile cache. It
// checks each answer, against the engine's statistics too when sims is
// non-nil.
func (e *serveEnv) prime(in *serveInputs, n int, sims []simStats) (attempted, failed int64, errs []error) {
	var buf bytes.Buffer
	for _, c := range e.clients {
		for i, p := range in.sample[:n] {
			status, data, _, err := post(c, e.url, requestBody(p, in.backend), &buf)
			if err == nil {
				var want *simStats
				if sims != nil {
					want = &sims[i]
				}
				err = checkResponse(p, status, data, want)
			}
			attempted++
			if err != nil {
				failed++
				errs = append(errs, err)
			}
		}
	}
	return attempted, failed, errs
}

// runServe measures a serve workload: set-up, a discarded warm-up
// segment, then ten measured segments, each followed by a pass of the
// sample through the engine on both backends for the normalised metrics.
func runServe(o options) (*result, error) {
	res := newResult(o)
	clients := runtime.NumCPU()
	var (
		in  *serveInputs
		env *serveEnv
		set *engineSet
	)
	setup, err := timeSetup(func() (func(), error) {
		var err error
		if o.workload == "serve-hot" {
			in, err = hotInputs(o, clients)
			if err != nil {
				return nil, err
			}
		} else {
			in = coldInputs(o, clients)
		}
		// The generated programs have no initialised local memory, so the
		// engine pass can load them as objects; the corpus has.
		if set, err = newEngineSet(in.sample, o.workload == "serve-cold"); err != nil {
			return nil, err
		}
		if env, err = startServer(serve.New(serveOptions(o)), clients); err != nil {
			return nil, err
		}
		_, failed, errs := env.prime(in, primePrograms, nil)
		if failed > 0 {
			env.stop()
			return nil, fmt.Errorf("priming the server: %w", errs[0])
		}
		return env.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.stop()
	res.setSampled("setup_s", median(setup), setup)

	// Warm-up: the engine baseline, a second priming pass that now also
	// holds the server's statistics to the engine's, and one discarded
	// segment.
	sims := res.baseline(set)
	res.recordSims(set.progs, sims)
	a, f, errs := env.prime(in, len(in.sample), sims)
	res.attempted += a
	res.note(f, errs)
	sources := in.sources(sims)
	segLen := o.duration() / segments
	env.closedLoop(segLen, sources)
	before := env.srv.Metrics()

	// The metrics of a serve run are those of its programs' quiet times,
	// for the reason given at fastest; whole keeps what every segment saw
	// over all its answers, for the typical values.
	kinds := map[string]*kindTimes{}
	var whole struct{ p50, p95, rps []float64 }
	es := newEngineSamples(len(set.progs))
	for s := 0; s < segments; s++ {
		seg := env.closedLoop(segLen, sources)
		res.attempted += seg.attempted
		res.note(seg.failed, seg.errs)
		if len(seg.answers) == 0 {
			return nil, fmt.Errorf("%s: a segment of %s got no correct answer", o.workload, segLen)
		}
		seg.addTo(kinds)
		w := windowOf(seg.answers)
		whole.p50, whole.p95, whole.rps = append(whole.p50, w.p50), append(whole.p95, w.p95), append(whole.rps, w.rps)
		for pass := 0; pass < enginePasses; pass++ {
			res.sweep(set, sims, es)
		}
	}
	quiet := quietMix(kinds, clients)
	res.setSampled("run_p50_us", quiet.p50, whole.p50)
	res.setSampled("run_p95_us", quiet.p95, whole.p95)
	res.setSampled("run_rps", quiet.rps, whole.rps)
	es.setSim(res)

	// What the server itself counted over the measured segments: nothing
	// but ok outcomes, and every exact cost prediction equal to the run.
	after := env.srv.Metrics()
	for outcome, n := range after.Outcomes {
		if outcome != "ok" && n != before.Outcomes[outcome] {
			res.note(n-before.Outcomes[outcome], []error{fmt.Errorf("server counted %d %q outcomes", n-before.Outcomes[outcome], outcome)})
		}
	}
	if d := after.Prediction.CycleErrorSum - before.Prediction.CycleErrorSum; d != 0 {
		res.note(1, []error{fmt.Errorf("server's exact cost predictions were off by %d cycles in total", d)})
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// enginePasses is how many times the sample runs through the engine after
// each measured segment; each pass contributes one sample per program.
const enginePasses = 3
