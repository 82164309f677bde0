package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcfpram"
	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// TestPredictiveAdmissionBeforePooling is the admission-soundness gate: a
// job whose predicted cost provably exceeds the tenant quota must bounce
// with 412, on both quota dimensions, and the outcome must be counted under
// its own metric. The first request makes the prediction on the one machine
// it leases, runs it for at most the admission fuel and returns it Reset to
// the pool; the repeat answers from the memoized prediction and leases
// nothing.
func TestPredictiveAdmissionBeforePooling(t *testing.T) {
	for _, src := range []string{thickSrc, spinSrc} {
		s, ts := newTestServer(t, Options{
			Tenants: map[string]Limits{"caged": cagedLimits()},
		})
		var ran []int64
		s.pool.hookRelease = func(m *machine.Machine) { ran = append(ran, m.TailStats().Steps) }

		for i := 0; i < 2; i++ {
			status, _, resp := post(t, ts, "caged", runRequest{Source: src})
			if status != 412 || resp.Outcome != outcomePredictedQuota {
				t.Fatalf("request %d: status %d outcome %q (%s), want 412 %q",
					i, status, resp.Outcome, resp.Error, outcomePredictedQuota)
			}
		}
		m := s.Metrics()
		if m.Pool.Hits+m.Pool.Misses != 1 || m.Pool.Idle != 1 || m.Pool.Discards != 0 {
			t.Fatalf("want one lease, returned to the pool: %+v", m.Pool)
		}
		if len(ran) != 1 || ran[0] > admitMaxSteps {
			t.Fatalf("steps run on released leases %v, want one lease of at most %d", ran, admitMaxSteps)
		}
		if m.Outcomes[outcomePredictedQuota] != 2 || m.Prediction.RejectedOverQuota != 2 {
			t.Fatalf("rejections not counted: %+v / %+v", m.Outcomes, m.Prediction)
		}
	}
}

// TestPredictiveAdmissionReasons checks each quota dimension rejects with a
// reason naming it, and that within-quota versions of the same programs are
// admitted.
func TestPredictiveAdmissionReasons(t *testing.T) {
	lim := Limits{MaxSteps: 300, MaxThickness: 8, MaxSharedWords: 1 << 20, MaxWallClock: 5 * time.Second}
	rejects := []struct {
		name string
		lim  Limits
		src  string
		want string
	}{
		{"steps", lim, spinSrc, "predicted steps"},
		{"thickness", lim, thickSrc, "predicted flow thickness"},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Tenants: map[string]Limits{"caged": tc.lim}})
			status, _, resp := post(t, ts, "caged", runRequest{Source: tc.src})
			if status != 412 || resp.Outcome != outcomePredictedQuota {
				t.Fatalf("status %d outcome %q (%s)", status, resp.Outcome, resp.Error)
			}
			if !strings.Contains(resp.Error, tc.want) {
				t.Fatalf("reason %q does not name the quota dimension %q", resp.Error, tc.want)
			}
		})
	}

	// The same tenant envelope admits programs that fit it — including one
	// that references its 64 shared words more often (1280 times) than the
	// shared-memory quota has words.
	rereadSrc := `shared int src[64] @ 100;
func main() { #64; int i = 0; thick int acc = 0; while (i < 20) { acc = acc + src[tid]; i = i + 1; } print(radd(acc)); }`
	admits := []struct {
		name string
		lim  Limits
		req  runRequest
	}{
		{"fits", lim, runRequest{Source: validSrc}},
		{"rereads", Limits{MaxSteps: 1 << 16, MaxThickness: 128, MaxSharedWords: 1024},
			runRequest{Source: rereadSrc, SharedWords: 1024}},
	}
	for _, tc := range admits {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Tenants: map[string]Limits{"caged": tc.lim}})
			status, _, resp := post(t, ts, "caged", tc.req)
			if status != 200 || resp.Outcome != outcomeOK {
				t.Fatalf("within-quota program rejected: %d %q (%s)", status, resp.Outcome, resp.Error)
			}
		})
	}
}

// TestPredictionMetricsTrackRuns: clean runs with an exact prediction feed
// the predicted-vs-actual accounting, and — the prediction and the run being
// two runs of one deterministic machine — the error must be zero.
func TestPredictionMetricsTrackRuns(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		status, _, resp := post(t, ts, "", runRequest{Source: validSrc})
		if status != 200 {
			t.Fatalf("run %d: %d %q", i, status, resp.Outcome)
		}
	}
	p := s.Metrics().Prediction
	if p.PredictedRuns != 3 || p.ExactRuns != 3 {
		t.Fatalf("predicted/exact runs %d/%d, want 3/3", p.PredictedRuns, p.ExactRuns)
	}
	if p.CycleErrorSum != 0 || p.MeasuredCycleSum <= 0 {
		t.Fatalf("cycle error %d over %d measured cycles, want 0 over >0",
			p.CycleErrorSum, p.MeasuredCycleSum)
	}
}

// TestUnresolvedPredictionAdmits: a program the analyzer cannot bound (its
// thickness demand comes after the admission fuel is spent) must be admitted
// and governed by the runtime quotas exactly as before.
func TestUnresolvedPredictionAdmits(t *testing.T) {
	s, ts := newTestServer(t, Options{Tenants: map[string]Limits{"deep": deepLimits()}})
	status, _, resp := post(t, ts, "deep", runRequest{Source: lateThickSrc})
	if status != 403 || resp.Outcome != outcomeQuota {
		t.Fatalf("status %d outcome %q (%s), want runtime 403 %q",
			status, resp.Outcome, resp.Error, outcomeQuota)
	}
	// The run carried no exact prediction, so it must not pollute the
	// predicted-vs-actual accounting.
	if p := s.Metrics().Prediction; p.PredictedRuns != 0 {
		t.Fatalf("unresolved prediction counted as predicted run: %+v", p)
	}
}

// longSrc runs past the admission fuel (admitMaxSteps) before it writes
// memory, so the answer to a miss comes from the fuel's continuation.
const longSrc = `
shared int a[64] @ 100;
func main() {
	int i = 0;
	while (i < 6000) { i += 1; }
	#64;
	a[tid] = tid + i;
}
`

// facadeAnswer is the /run answer a run of src through the tcfpram facade
// gives on cfg: the reference a served run must equal.
func facadeAnswer(t *testing.T, cfg machine.Config, name, src string, peek []peekRange) runResponse {
	t.Helper()
	m, err := tcfpram.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadSource(name, src); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		return runResponse{Error: err.Error()}
	}
	resp := runResponse{
		Outcome: outcomeOK, Tenant: "anon", Steps: st.Steps, Cycles: st.Cycles, StageCycles: map[string]int64{},
		CachedProg: true, PooledMach: true, SharedReads: st.SharedReads, SharedWrites: st.SharedWrites,
	}
	for i := range st.Stages {
		resp.StageCycles[machine.Stage(i).String()] = st.Stages[i].Cycles
	}
	for _, o := range m.Outputs() {
		resp.Outputs = append(resp.Outputs, outputJSON{Flow: o.Flow, Step: o.Step, Values: o.Values, Text: o.Text})
	}
	for _, p := range peek {
		resp.Memory = append(resp.Memory, peekResult{Addr: p.Addr, Values: m.Words(p.Addr, p.N)})
	}
	return resp
}

// TestMissRunsOnce: a cost-memo miss runs its program once — the admission
// fuel and its continuation on the one machine it leases — and answers byte
// for byte what the memo hit after it and a run through the facade answer.
// The 16-program corpus runs on every variant, and longSrc, longer than the
// fuel, on the tcf variant. Every memoized prediction is analysis.Cost's.
func TestMissRunsOnce(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "codegen", "testdata", "*.te"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	type prog struct{ name, src string }
	var corpus []prog
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, prog{filepath.Base(f), string(src)})
	}
	long := append(corpus, prog{"long.te", longSrc})

	peek := []peekRange{{Addr: 0, N: 1024}}
	s, ts := newTestServer(t, Options{})
	lim := s.limitsFor("anon")
	var ran []int64
	s.pool.hookRelease = func(m *machine.Machine) { ran = append(ran, m.TailStats().Steps) }
	// answer posts req, a repeat when hit is set, and checks that it ran the
	// program once on one lease.
	answer := func(req runRequest, hit bool) (runResponse, []byte) {
		t.Helper()
		ran = nil
		before := s.Metrics().Pool
		status, _, resp := post(t, ts, "", req)
		resp.WallClock = ""
		js, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outcome == outcomeVetRejected {
			return resp, js
		}
		after := s.Metrics().Pool
		if leases := after.Hits + after.Misses - before.Hits - before.Misses; leases != 1 {
			t.Fatalf("%s hit=%v: %d leases, want 1", req.Name, hit, leases)
		}
		if status == http.StatusOK && (len(ran) != 1 || ran[0] != resp.Steps) {
			t.Fatalf("%s hit=%v: the lease ran %v steps, the answer says %d", req.Name, hit, ran, resp.Steps)
		}
		return resp, js
	}
	for _, vk := range variant.Kinds() {
		req := runRequest{Variant: vk.String(), Peek: peek}
		// Both answers below come off a pooled machine.
		post(t, ts, "", runRequest{Source: validSrc, Variant: req.Variant})
		cfg, errResp, _ := s.buildConfig(&req, vk, mem.DisciplineOff, lim)
		if errResp != nil {
			t.Fatal(errResp.Error)
		}
		params := costParamsFor(cfg)
		progs := corpus
		if vk == variant.SingleInstruction {
			progs = long
		}
		for _, p := range progs {
			name, src := p.name, p.src
			req.Name, req.Source = name, src
			miss, missJS := answer(req, false)
			_, hitJS := answer(req, true)
			if !bytes.Equal(missJS, hitJS) {
				t.Fatalf("%s on %v: the miss answered\n%s\nthe hit\n%s", name, vk, missJS, hitJS)
			}
			if miss.Outcome == outcomeVetRejected {
				continue
			}
			if name == "long.te" && miss.Steps <= admitMaxSteps {
				t.Fatalf("long.te: %d steps, not past the admission fuel", miss.Steps)
			}
			want := facadeAnswer(t, cfg, name, src, peek)
			if want.Error != "" {
				if miss.Error != want.Error {
					t.Fatalf("%s on %v: served error %q, facade error %q", name, vk, miss.Error, want.Error)
				}
			} else if wantJS, _ := json.Marshal(want); !bytes.Equal(missJS, wantJS) {
				t.Fatalf("%s on %v: served\n%s\nfacade\n%s", name, vk, missJS, wantJS)
			}
			entry := s.cache.Get(src, vk, mem.DisciplineCREW)
			if got, want := entry.cost(params), analysis.Cost(entry.compiled, params); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %v: memoized prediction\n%+v\nanalysis.Cost\n%+v", name, vk, got, want)
			}
		}
	}
}

// TestUnresolvedPredictionCeiling: a program that sets its thickness only
// after the admission fuel is spent gets an unresolved prediction bounded by
// the static thickness ceiling. The cache entry holds no checked program; its
// memoized report, MaxThickness.Max included, is what analysis.Cost reports
// for the same program compiled with its checked program.
func TestUnresolvedPredictionCeiling(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if status, _, resp := post(t, ts, "", runRequest{Source: longSrc}); status != http.StatusOK {
		t.Fatalf("status %d outcome %q (%s)", status, resp.Outcome, resp.Error)
	}
	cfg, errResp, _ := s.buildConfig(&runRequest{}, variant.SingleInstruction, mem.DisciplineOff, s.limitsFor("anon"))
	if errResp != nil {
		t.Fatal(errResp.Error)
	}
	params := costParamsFor(cfg)
	entry := s.cache.Get(longSrc, variant.SingleInstruction, mem.DisciplineCREW)
	got := entry.cost(params)
	if got == nil || got.Resolved || got.MaxThickness.Max != 64 {
		t.Fatalf("memoized prediction %+v, want unresolved with max thickness at most 64", got)
	}
	c, err := codegen.CompileSource(entry.compiled.Program.Name, longSrc)
	if err != nil || c.Info == nil || entry.compiled.Info != nil {
		t.Fatalf("compile: %v; checked program with it: %v, in the cache: %v", err, c.Info != nil, entry.compiled.Info != nil)
	}
	if want := analysis.Cost(c, params); !reflect.DeepEqual(got, want) {
		t.Fatalf("memoized prediction\n%+v\nanalysis.Cost\n%+v", got, want)
	}
}

// TestWideQuotaPrediction: under a thickness quota above the analysis's
// default lane cap (2^16) the admission fuel materialises the flows the
// quota admits, on the lease and in the memoized prediction alike, which
// stays analysis.Cost's.
func TestWideQuotaPrediction(t *testing.T) {
	s, ts := newTestServer(t, Options{Tenants: map[string]Limits{"wide": {MaxThickness: 1 << 17}}})
	src := `func main() { #100000; thick int v = tid; print(radd(v)); }`
	if status, _, resp := post(t, ts, "wide", runRequest{Source: src}); status != http.StatusOK {
		t.Fatalf("status %d outcome %q (%s)", status, resp.Outcome, resp.Error)
	}
	cfg, errResp, _ := s.buildConfig(&runRequest{}, variant.SingleInstruction, mem.DisciplineOff, s.limitsFor("wide"))
	if errResp != nil {
		t.Fatal(errResp.Error)
	}
	params := costParamsFor(cfg)
	entry := s.cache.Get(src, variant.SingleInstruction, mem.DisciplineCREW)
	if got, want := entry.cost(params), analysis.Cost(entry.compiled, params); !reflect.DeepEqual(got, want) || !got.Resolved {
		t.Fatalf("memoized prediction\n%+v\nanalysis.Cost\n%+v", got, want)
	}
}
