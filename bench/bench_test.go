package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"tcfpram"
	"tcfpram/bench/gen"
)

// The smoke test of the benchmark itself: it checks the inputs and the
// arithmetic the numbers rest on, and drives each kind of run once at a
// size that takes about a second.

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, other := gen.NewGenerator(7, "c0"), gen.NewGenerator(7, "c0"), gen.NewGenerator(8, "c0")
	differs := false
	for i := 0; i < 20; i++ {
		pa, pb, po := a.Next(), b.Next(), other.Next()
		if pa.Source != pb.Source {
			t.Fatalf("program %d differs between two generators of one seed", i)
		}
		differs = differs || pa.Source != po.Source
		if n := bytes.Count([]byte(pa.Source), []byte("\n")); n < 150 || n > 300 {
			t.Errorf("%s has %d lines, want 150-300", pa.Name, n)
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generate the same programs")
	}
	small := gen.ThickShape{Thickness: 256, SharedWords: 1 << 16}
	for i, p := range gen.ThickKernels(3, small) {
		if q := gen.ThickKernels(3, small)[i]; p.Source != q.Source {
			t.Errorf("kernel %s differs between two calls with one seed", p.Name)
		}
		if p.Name != gen.ThickKernelNames[i] {
			t.Errorf("thick kernel %d is %s, the name list says %s", i, p.Name, gen.ThickKernelNames[i])
		}
	}
	for i, p := range gen.FlowKernels(3, gen.DefaultFlows) {
		if p.Name != gen.FlowKernelNames[i] {
			t.Errorf("flow kernel %d is %s, the name list says %s", i, p.Name, gen.FlowKernelNames[i])
		}
	}
}

// Every kind of input agrees with its Go reference on both backends, passes
// the server's vet gate, and a corrupted reference value is caught.
func TestReferencesAgree(t *testing.T) {
	var progs []*gen.Program
	g := gen.NewGenerator(5, "test")
	for i := 0; i < 6; i++ {
		progs = append(progs, g.Next())
	}
	corpus, err := gen.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 16 {
		t.Fatalf("corpus has %d programs, want 16", len(corpus))
	}
	progs = append(progs, corpus...)
	o := options{small: true, seed: 5}
	progs = append(progs, gen.ThickKernels(5, o.thickShape())...)
	progs = append(progs, gen.FlowKernels(5, o.flowShape())...)
	for _, p := range progs {
		if _, _, err := frontend(newRecorder(false), p, engineConfig(p, tcfpram.BackendInterp)); err != nil {
			t.Errorf("vet gate or compiler: %v", err)
			continue
		}
		var sims []simStats
		for _, b := range backends {
			m, err := tcfpram.NewMachine(engineConfig(p, b))
			if err != nil {
				t.Fatal(err)
			}
			ex, err := execute(m, p, nil)
			if err != nil {
				t.Errorf("%s on %s: %v", p.Name, b, err)
			}
			sims = append(sims, ex.sim)
		}
		if sims[0] != sims[1] {
			t.Errorf("%s: backends disagree: %+v, %+v", p.Name, sims[0], sims[1])
		}
		if err := checkPrediction(p, sims[0]); err != nil {
			t.Error(err)
		}
	}

	p := progs[0]
	p.WantOutputs[0]++
	m, err := tcfpram.NewMachine(engineConfig(p, tcfpram.BackendInterp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(m, p, nil); err == nil {
		t.Error("a corrupted reference output went unnoticed")
	}
	p.WantOutputs[0]--
	p.WantMemory[2][5]++
	if _, err := execute(m, p, nil); err == nil {
		t.Error("a corrupted reference memory word went unnoticed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// request [0,100] { parse [10,40] { lex [15,25] }, run [50,90] }
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "lang.parse", Start: 10, End: 40, Parent: 0, Op: 1},
		{Name: "lang.lex", Start: 15, End: 25, Parent: 1, Op: 1},
		{Name: "machine.run", Start: 50, End: 90, Parent: 0, Op: 1},
	}
	tot := totals(spans)
	for name, want := range map[string]int64{"request": 30, "lang.parse": 20, "lang.lex": 10, "machine.run": 40} {
		if got := tot.self[name]; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	var sum int64
	for _, s := range tot.self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the root's 100", sum)
	}

	rec := newRecorder(true)
	root := rec.begin("request")
	child := rec.begin("lang.parse")
	rec.count(child, "tokens", 7)
	rec.end(child)
	rec.end(root)
	next := rec.begin("request")
	rec.end(next)
	if s := rec.spans; len(s) != 3 || s[1].Parent != 0 || s[0].Parent != -1 || s[1].Op != s[0].Op || s[2].Op == s[0].Op || s[1].Counts["tokens"] != 7 {
		t.Errorf("recorder linked spans wrongly: %+v", s)
	}
	off := newRecorder(false)
	off.end(off.begin("x"))
	if len(off.spans) != 0 {
		t.Error("a recorder that is off recorded a span")
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(vs))
	}
	if got := spread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(sorted, 50) != 5 || percentile(sorted, 95) != 10 || percentile(sorted, 10) != 1 {
		t.Error("nearest-rank percentiles are off")
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
}

// Two programs of 1000 answers each, one ten times slower than the other:
// the quiet times are the tenth-fastest answers, whatever the slow ones did.
func TestQuietMix(t *testing.T) {
	var seg segment
	for i := 1; i <= 1000; i++ {
		slow := float64(i * i) // interference: unbounded above
		seg.answers = append(seg.answers,
			answer{kind: "a", latUs: 100 + slow, cycleUs: 200 + slow},
			answer{kind: "b", latUs: 1000 + slow, cycleUs: 1800 + slow})
	}
	kinds := map[string]*kindTimes{}
	seg.addTo(kinds)
	w := quietMix(kinds, 2)
	// Nearest-rank: the 1st percentile of 1000 is the 10th value, i = 10.
	if w.p50 != (200+1100)/2 || w.p95 != 1100 || math.Abs(w.rps-2*2e6/(300+1900)) > 1e-9 {
		t.Errorf("quietMix = %+v, want p50 650, p95 1100, rps %v", w, 2*2e6/(300+1900.0))
	}
}

// A second run that is better than the first by more than a bound passes
// as a change and fails as a repetition; a worse one fails as both.
func TestCompareResults(t *testing.T) {
	mk := func(p50 float64) *results {
		r := &results{EndToEnd: map[string]*result{}}
		for _, w := range workloadSpecs {
			res := &result{Metrics: map[string]measured{}}
			for _, m := range endToEnd {
				res.Metrics[m.Name] = measured{Value: 100, Unit: m.Unit}
			}
			res.Metrics["run_p50_us"] = measured{Value: p50, Unit: "us"}
			r.EndToEnd[w.Name] = res
		}
		return r
	}
	for _, c := range []struct {
		first, second      float64
		asChange, asRepeat bool // whether the comparison passes
	}{{100, 110, true, true}, {100, 60, true, false}, {100, 140, false, false}} {
		if err := compareResults(mk(c.first), mk(c.second), false); (err == nil) != c.asChange {
			t.Errorf("%v -> %v as a change: %v", c.first, c.second, err)
		}
		if err := compareResults(mk(c.first), mk(c.second), true); (err == nil) != c.asRepeat {
			t.Errorf("%v -> %v as a repetition: %v", c.first, c.second, err)
		}
	}
}

// The specification stays inside the limits of the benchmark contract and
// BENCHMARK.json is what spec.go generates.
func TestSpecification(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	layers := perLayer()
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(layers); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the form [A-Za-z0-9_.-]+ (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters, want at most 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), layers...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, the limit is 64 KiB", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from the specification in spec.go; regenerate it with -write-spec")
	}
}

// One run of each kind at smoke size: every metric of the specification is
// measured, nothing fails, and a result holds exactly the specified names.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for a few seconds")
	}
	for _, o := range []options{
		{workload: "engine-flows", seed: 2, seconds: 1, small: true},
		{workload: "serve-cold", seed: 2, seconds: 1, small: true},
		{workload: "serve-hot", seed: 2, seconds: 1, small: true, trace: true},
	} {
		res, err := runWorkload(o, &fixedProbes{})
		if err != nil {
			t.Fatalf("%s: %v", o.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", o.workload, res.Attempted, res.Failed, res.Errors)
		}
		want := endToEnd
		if o.trace {
			want = perLayer()
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, the specification has %d", o.workload, len(res.Metrics), len(want))
		}
		for _, m := range endToEnd {
			if !o.trace && !(res.Metrics[m.Name].Value > 0) {
				t.Errorf("%s: %s = %v, want a positive number", o.workload, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
}
