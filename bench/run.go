package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tcfpram/bench/gen"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// small shrinks the engine kernels and the sample sizes so the smoke
	// test finishes in seconds. Only the test sets it: it changes what is
	// measured, so such a run is never compared with the golden files.
	small        bool
	updateGolden bool
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func (o options) thickShape() gen.ThickShape {
	if o.small {
		return gen.ThickShape{Thickness: 256, SharedWords: 1 << 16}
	}
	return gen.DefaultThick
}

func (o options) flowShape() gen.FlowShape {
	if o.small {
		return gen.FlowShape{Tasks: 64, TreeDepth: 3, RingRounds: 5, ChainIters: 100, LoopIters: 100}
	}
	return gen.DefaultFlows
}

// workloadPrograms returns the fixed programs that stand for a workload:
// all of its traffic for three of them, a seeded sample of the endless
// stream for serve-cold.
func workloadPrograms(o options) []*gen.Program {
	switch o.workload {
	case "serve-hot":
		corpus, err := gen.Corpus()
		if err != nil {
			panic(err) // the corpus is embedded; the smoke test parses it
		}
		return corpus
	case "serve-cold":
		return coldInputs(o, 0).sample
	case "engine-thick":
		return gen.ThickKernels(o.seed, o.thickShape())
	default:
		return gen.FlowKernels(o.seed, o.flowShape())
	}
}

// measured is one metric of one run. Where the run took the metric once per
// segment (per sweep, per set-up), Typical is the median of those values,
// Spread their quartile distance as a share of it and Samples their number;
// all three are 0 for single measurements.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Typical float64 `json:"typical,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// stamp is the configuration that produced a result. Two results compare
// only when their stamps agree, the commit aside.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// The measured path of every workload: serve-hot on the server's
	// defaults, serve-cold asking for the fused backend, the engine
	// workloads on both backends.
	Backend  string `json:"backend"`
	Sched    string `json:"sched"`
	Parallel bool   `json:"parallel"`
	Clients  int    `json:"clients"`
	Segments int    `json:"segments"`
	SegmentS string `json:"segment_length"`
}

func newStamp(o options) stamp {
	return stamp{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Backend:    "serve-hot=interp serve-cold=fused engine-*=interp+fused",
		Sched:      "lockstep",
		Parallel:   false,
		Clients:    runtime.NumCPU(),
		Segments:   segments,
		SegmentS:   (o.duration() / segments).String(),
	}
}

// commit reads the checked-out commit from ../.git without starting a
// process; a checkout that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join("..", ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join("..", ".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// result is what one run of one workload produced.
type result struct {
	Workload  string              `json:"workload"`
	Trace     bool                `json:"trace"`
	Stamp     stamp               `json:"stamp"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	FailShare float64             `json:"fail_share"`
	Errors    []string            `json:"errors,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	// Sims are the exact simulated statistics of the workload's fixed
	// programs, by program name.
	Sims map[string]simStats `json:"sim_stats,omitempty"`

	attempted, failed int64
	units             map[string]metricSpec
}

func newResult(o options) *result {
	specs := endToEnd
	if o.trace {
		specs = perLayer()
	}
	return &result{
		Workload: o.workload, Trace: o.trace, Stamp: newStamp(o),
		Metrics: map[string]measured{}, Sims: map[string]simStats{},
		units: specByName(specs),
	}
}

func (r *result) set(name string, v float64) { r.setSampled(name, v, nil) }

// setSampled records v together with the per-segment values behind it.
func (r *result) setSampled(name string, v float64, samples []float64) {
	spec, ok := r.units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the specification")
	}
	r.Metrics[name] = measured{Value: v, Unit: spec.Unit, Typical: median(samples), Spread: spread(samples), Samples: len(samples)}
}

// maxErrors bounds the error messages a result keeps.
const maxErrors = 8

// note counts failed operations and keeps the first few messages.
func (r *result) note(failed int64, errs []error) {
	r.failed += failed
	for _, err := range errs {
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

func (r *result) recordSims(progs []*gen.Program, sims []simStats) {
	for i, p := range progs {
		r.Sims[p.Name] = sims[i]
	}
}

// finish closes the books: every metric of the specification must be
// present, and the run is correct only if no operation failed.
func (r *result) finish() error {
	for name := range r.units {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("bench: run of %s did not measure %s", r.Workload, name)
		}
	}
	r.Attempted, r.Failed = r.attempted, r.failed
	if r.Attempted < 1 {
		return fmt.Errorf("bench: run of %s attempted nothing", r.Workload)
	}
	r.FailShare = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
	return nil
}

// contractLine is the run's last line of standard output.
func (r *result) contractLine() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = metric{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	return string(line)
}

// A run sets up at least setupMinReps times, and goes on (up to
// setupMaxReps) until setupBudget has been spent, so that a set-up of a few
// milliseconds is sampled often enough for a steady median.
const (
	setupMinReps = 5
	setupMaxReps = 100
	setupBudget  = time.Second
)

// timeSetup sets up repeatedly and returns every set-up's time in seconds.
// Every instance but the last is torn down again; the last stays for the
// measurement.
func timeSetup(setup func() (teardown func(), err error)) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for {
		t0 := time.Now()
		teardown, err := setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		if n := len(secs); n >= setupMaxReps || (n >= setupMinReps && time.Since(start) >= setupBudget) {
			return secs, nil
		}
		teardown()
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkload runs one workload once, untraced or traced. A traced run
// takes the fixed probes from fixed, measuring them if no earlier run has.
func runWorkload(o options, fixed *fixedProbes) (*result, error) {
	var (
		res *result
		err error
	)
	switch {
	case o.trace:
		res, err = runTraced(o, fixed)
	case strings.HasPrefix(o.workload, "serve-"):
		res, err = runServe(o)
	default:
		res, err = runEngine(o)
	}
	if err != nil {
		return nil, err
	}
	if !o.small && o.seed == goldenSeed {
		if err := res.checkGolden(o.updateGolden); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
