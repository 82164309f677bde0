package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Test program sources covering every outcome class.
const (
	// validSrc runs clean and prints 42.
	validSrc = `func main() { print(42); }`

	// spinSrc loops forever while committing a shared write every
	// iteration, so it makes observable progress (no watchdog) until a
	// step quota or wall-clock deadline stops it.
	spinSrc = `
shared int beat[1] @ 900;
func main() {
	int n = 0;
	while (1) {
		n += 1;
		beat[0] = n;
	}
}
`
	// faultSrc writes through a data-dependent index with duplicate
	// values: clean under static CREW analysis (the values are unknowable
	// statically), but the runtime discipline cross-checker catches the
	// write-write conflict — a program fault, not a quota or a deadline.
	faultSrc = `
shared int d[4] @ 100 = {0, 0, 1, 1};
shared int out[4] @ 200;
func main() {
	#4;
	out[d[tid]] = tid;
}
`

	// vetBadSrc is a CREW discipline violation (a comparison index takes
	// two values over eight threads, so threads collide on a write).
	vetBadSrc = `
shared int a[2] @ 100;
func main() {
	#8;
	a[tid == 3] = tid;
}
`
	// parseBadSrc does not parse.
	parseBadSrc = `func main( {`

	// thickSrc needs thickness 64 — over the caged tenant's quota of 8.
	thickSrc = `
shared int a[64] @ 100;
func main() {
	#64;
	a[tid] = tid;
}
`

	// lateThickSrc asks for the same thickness only after more steps than
	// the admission-time prediction has fuel for (admitMaxSteps).
	lateThickSrc = `
shared int a[64] @ 100;
func main() {
	int i = 0;
	while (i < 6000) { i += 1; }
	#64;
	a[tid] = tid;
}
`
)

// cagedLimits is a tight tenant envelope used to provoke quota outcomes.
func cagedLimits() Limits {
	return Limits{MaxSteps: 300, MaxThickness: 8, MaxWallClock: 5 * time.Second}
}

// deepLimits is the caged thickness quota under a step quota beyond the
// admission-time prediction's fuel, as the production default is: a long
// program's prediction runs dry, the program is admitted, and the runtime
// quotas govern it.
func deepLimits() Limits {
	return Limits{MaxSteps: 2 * admitMaxSteps, MaxThickness: 8, MaxWallClock: 5 * time.Second}
}

// slowLimits allows a huge step budget but a tiny wall clock, so spinSrc
// reliably hits the deadline before the step quota.
func slowLimits() Limits {
	return Limits{MaxSteps: 1 << 40, MaxWallClock: 100 * time.Millisecond}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one /run request and decodes the response envelope.
func post(t *testing.T, ts *httptest.Server, tenant string, req runRequest) (int, http.Header, runResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, tenant, body)
}

func postRaw(t *testing.T, ts *httptest.Server, tenant string, body []byte) (int, http.Header, runResponse) {
	t.Helper()
	hreq, err := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	hres, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var resp runResponse
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return hres.StatusCode, hres.Header, resp
}

// settleGoroutines polls until the process is back to at most want
// goroutines, dumping stacks on timeout. Callers capture want after a
// warm-up run, because the machine's worker pools live for the process.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: want <= %d, have %d\n%s", want, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRunValidProgram(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, resp := post(t, ts, "", runRequest{Name: "ok", Source: validSrc})
	if status != http.StatusOK || resp.Outcome != outcomeOK {
		t.Fatalf("status %d outcome %q (%s)", status, resp.Outcome, resp.Error)
	}
	if len(resp.Outputs) != 1 || len(resp.Outputs[0].Values) != 1 || resp.Outputs[0].Values[0] != 42 {
		t.Fatalf("outputs = %+v, want one [42]", resp.Outputs)
	}
	if resp.Steps <= 0 || resp.Cycles <= 0 {
		t.Fatalf("missing statistics: %+v", resp)
	}
	if len(resp.StageCycles) == 0 {
		t.Fatal("missing per-stage cycle attribution")
	}
}

func TestRunPeekMemory(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, resp := post(t, ts, "", runRequest{
		Source: `shared int a[4] @ 300; func main() { #4; a[tid] = tid * 7; }`,
		Peek:   []peekRange{{Addr: 300, N: 4}},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, resp.Error)
	}
	if len(resp.Memory) != 1 || fmt.Sprint(resp.Memory[0].Values) != "[0 7 14 21]" {
		t.Fatalf("memory = %+v", resp.Memory)
	}
}

// TestOutcomeStatusMapping drives one request per outcome class and checks
// the HTTP status and outcome string of each.
func TestOutcomeStatusMapping(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Tenants: map[string]Limits{"caged": cagedLimits(), "deep": deepLimits(), "slow": slowLimits()},
	})
	s.hookLoaded = func(tenant, name string) {
		if name == "bomb" {
			panic("injected test panic")
		}
	}

	cases := []struct {
		name    string
		tenant  string
		req     runRequest
		raw     []byte // overrides req when set
		status  int
		outcome string
	}{
		{name: "ok", req: runRequest{Source: validSrc}, status: 200, outcome: outcomeOK},
		{name: "bad-json", raw: []byte(`{"source": 12`), status: 400, outcome: outcomeBadRequest},
		{name: "empty-source", req: runRequest{}, status: 400, outcome: outcomeBadRequest},
		{name: "parse-error", req: runRequest{Source: parseBadSrc}, status: 400, outcome: outcomeCompileError},
		{name: "vet-rejected", req: runRequest{Source: vetBadSrc}, status: 422, outcome: outcomeVetRejected},
		{name: "bad-variant", req: runRequest{Source: validSrc, Variant: "nope"}, status: 400, outcome: outcomeBadRequest},
		{name: "bad-discipline", req: runRequest{Source: validSrc, Discipline: "nope"}, status: 400, outcome: outcomeBadRequest},
		{name: "shape-cap", req: runRequest{Source: validSrc, Groups: 4096}, status: 400, outcome: outcomeBadRequest},
		{name: "peek-range", req: runRequest{Source: validSrc, Peek: []peekRange{{Addr: -1, N: 4}}}, status: 400, outcome: outcomeBadRequest},
		{name: "peek-overflow", req: runRequest{Source: validSrc, Peek: []peekRange{{Addr: 1<<63 - 1, N: 4}}}, status: 400, outcome: outcomeBadRequest},
		// Within its fuel the cost analyzer proves the quota violation at
		// admission (412: the fuel runs on one leased machine, released to the
		// pool) — on every variant; where the violation lies beyond the fuel
		// the program is admitted and dies on the runtime quota (403).
		{name: "steps-quota-predicted", tenant: "caged", req: runRequest{Source: spinSrc}, status: 412, outcome: outcomePredictedQuota},
		{name: "steps-quota-predicted-balanced", tenant: "caged", req: runRequest{Source: spinSrc, Variant: "balanced"}, status: 412, outcome: outcomePredictedQuota},
		{name: "steps-quota-runtime", tenant: "deep", req: runRequest{Source: spinSrc}, status: 403, outcome: outcomeQuota},
		{name: "thickness-quota-predicted", tenant: "caged", req: runRequest{Source: thickSrc}, status: 412, outcome: outcomePredictedQuota},
		{name: "thickness-quota-runtime", tenant: "deep", req: runRequest{Source: lateThickSrc}, status: 403, outcome: outcomeQuota},
		{name: "memory-quota", tenant: "caged", req: runRequest{Source: validSrc, SharedWords: 1 << 21}, status: 403, outcome: outcomeQuota},
		{name: "deadline", tenant: "slow", req: runRequest{Source: spinSrc}, status: 408, outcome: outcomeDeadline},
		{name: "runtime-discipline-fault", req: runRequest{Source: faultSrc, Discipline: "crew"}, status: 409, outcome: outcomeRuntimeFault},
		{name: "panic", req: runRequest{Name: "bomb", Source: validSrc}, status: 500, outcome: outcomePanic},
		{name: "after-panic", req: runRequest{Source: validSrc}, status: 200, outcome: outcomeOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var resp runResponse
			if tc.raw != nil {
				status, _, resp = postRaw(t, ts, tc.tenant, tc.raw)
			} else {
				status, _, resp = post(t, ts, tc.tenant, tc.req)
			}
			if status != tc.status || resp.Outcome != tc.outcome {
				t.Fatalf("status %d outcome %q (%s), want %d %q",
					status, resp.Outcome, resp.Error, tc.status, tc.outcome)
			}
			if tc.outcome == outcomeVetRejected && !strings.Contains(resp.Diagnostics, "concurrent-write") {
				t.Fatalf("vet rejection carries no diagnostics: %+v", resp)
			}
		})
	}

	// The panic was isolated: its machine was discarded, not pooled.
	if m := s.Metrics(); m.Pool.Discards == 0 {
		t.Fatalf("panic did not discard the poisoned machine: %+v", m.Pool)
	}
}

// TestSourceSizeCap: oversized programs bounce with 413 both via the JSON
// field check and via the raw body reader cap.
func TestSourceSizeCap(t *testing.T) {
	_, ts := newTestServer(t, Options{
		DefaultLimits: Limits{MaxSourceBytes: 256},
	})
	big := `func main() { print(42); } // ` + strings.Repeat("x", 512)
	status, _, resp := post(t, ts, "", runRequest{Source: big})
	if status != http.StatusRequestEntityTooLarge || resp.Outcome != outcomeTooLarge {
		t.Fatalf("status %d outcome %q", status, resp.Outcome)
	}
	raw := append([]byte(`{"junk":"`), bytes.Repeat([]byte("y"), 8192)...)
	raw = append(raw, []byte(`","source":"func main() {}"}`)...)
	status, _, resp = postRaw(t, ts, "", raw)
	if status != http.StatusRequestEntityTooLarge || resp.Outcome != outcomeTooLarge {
		t.Fatalf("raw body: status %d outcome %q", status, resp.Outcome)
	}
}

// TestTenantConcurrencyCap: a tenant at its in-flight cap gets 429 while
// other tenants keep running.
func TestTenantConcurrencyCap(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 4,
		Tenants:       map[string]Limits{"t1": {MaxInFlight: 1}},
	})
	s.hookLoaded = func(tenant, name string) {
		if name == "block" {
			<-release
		}
	}

	done := make(chan runResponse, 1)
	go func() {
		_, _, resp := post(t, ts, "t1", runRequest{Name: "block", Source: validSrc})
		done <- resp
	}()
	waitFor(t, func() bool { return s.running.Load() == 1 })

	status, hdr, resp := post(t, ts, "t1", runRequest{Source: validSrc})
	if status != http.StatusTooManyRequests || resp.Outcome != outcomeTenantBusy {
		t.Fatalf("status %d outcome %q", status, resp.Outcome)
	}
	if _, ok := RetryAfter(hdr); !ok {
		t.Fatal("tenant-busy response has no Retry-After")
	}
	if status, _, resp := post(t, ts, "t2", runRequest{Source: validSrc}); status != 200 {
		t.Fatalf("other tenant blocked: %d %q", status, resp.Outcome)
	}
	close(release)
	if resp := <-done; resp.Outcome != outcomeOK {
		t.Fatalf("blocked run finished %q", resp.Outcome)
	}
}

// TestLoadShedding saturates a one-slot server: the queue admits exactly
// MaxQueue waiters; everyone else is shed immediately with 429+Retry-After,
// and queued waiters are shed after QueueWait.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     200 * time.Millisecond,
	})
	s.hookLoaded = func(tenant, name string) {
		if name == "block" {
			<-release
		}
	}

	blocked := make(chan runResponse, 1)
	go func() {
		_, _, resp := post(t, ts, "a", runRequest{Name: "block", Source: validSrc})
		blocked <- resp
	}()
	waitFor(t, func() bool { return s.running.Load() == 1 })

	queued := make(chan runResponse, 1)
	go func() {
		_, _, resp := post(t, ts, "b", runRequest{Source: validSrc})
		queued <- resp
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	// The queue is full: an immediate shed.
	status, hdr, resp := post(t, ts, "c", runRequest{Source: validSrc})
	if status != http.StatusTooManyRequests || resp.Outcome != outcomeShed {
		t.Fatalf("status %d outcome %q", status, resp.Outcome)
	}
	if _, ok := RetryAfter(hdr); !ok {
		t.Fatal("shed response has no Retry-After")
	}

	// The queued waiter gives up after QueueWait and is shed too.
	if resp := <-queued; resp.Outcome != outcomeShed {
		t.Fatalf("queued waiter finished %q, want shed", resp.Outcome)
	}
	close(release)
	if resp := <-blocked; resp.Outcome != outcomeOK {
		t.Fatalf("blocked run finished %q", resp.Outcome)
	}
	m := s.Metrics()
	if m.Outcomes[outcomeShed] != 2 || m.Outcomes[outcomeOK] != 1 {
		t.Fatalf("outcomes: %+v", m.Outcomes)
	}
}

// TestDrain: draining stops admission with 503, cancels in-flight runs past
// the drain deadline (also 503), flips /healthz, and leaks nothing.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Tenants: map[string]Limits{"slow": {MaxSteps: 1 << 40, MaxWallClock: 30 * time.Second}},
	})

	// Warm-up: populate the machine worker pools, then fix the goroutine
	// baseline the drained server must return to.
	if status, _, resp := post(t, ts, "", runRequest{Source: validSrc}); status != 200 {
		t.Fatalf("warm-up: %d %q", status, resp.Outcome)
	}
	baseline := runtime.NumGoroutine()

	inflight := make(chan runResponse, 1)
	go func() {
		_, _, resp := post(t, ts, "slow", runRequest{Source: spinSrc})
		inflight <- resp
	}()
	waitFor(t, func() bool { return s.running.Load() == 1 })

	drained := make(chan struct{})
	go func() {
		s.Drain(100 * time.Millisecond)
		close(drained)
	}()
	waitFor(t, s.Draining)

	status, _, resp := post(t, ts, "", runRequest{Source: validSrc})
	if status != http.StatusServiceUnavailable || resp.Outcome != outcomeDraining {
		t.Fatalf("admission during drain: %d %q", status, resp.Outcome)
	}

	// The in-flight run is canceled at the drain deadline and reported as
	// a drain casualty, not a client timeout.
	if resp := <-inflight; resp.Outcome != outcomeDraining {
		t.Fatalf("in-flight run finished %q, want draining", resp.Outcome)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return")
	}
	s.Drain(time.Second) // idempotent

	hres, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d", hres.StatusCode)
	}

	ts.Close()
	settleGoroutines(t, baseline)
}

// TestAdversarialLoad is the acceptance scenario: concurrent clients mixing
// valid, quota-exceeding, vet-rejected, deadline-bound and panic-inducing
// programs against a small server. Every response must map to that program
// class's status (or an admission 429 under load), the metrics must account
// for every request, and the drained server must leak nothing.
func TestAdversarialLoad(t *testing.T) {
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 2,
		MaxQueue:      4,
		QueueWait:     5 * time.Second,
		Tenants:       map[string]Limits{"caged": cagedLimits(), "deep": deepLimits(), "slow": slowLimits()},
	})
	s.hookLoaded = func(tenant, name string) {
		if name == "bomb" {
			panic("injected test panic")
		}
	}

	if status, _, resp := post(t, ts, "", runRequest{Source: validSrc}); status != 200 {
		t.Fatalf("warm-up: %d %q", status, resp.Outcome)
	}
	baseline := runtime.NumGoroutine()

	// Per program class: the status and outcome it must produce when it
	// gets a slot. A 429 is additionally legal for every class that
	// reaches admission (global shed or the tenant's in-flight cap —
	// queued requests count against it).
	type kind struct {
		tenant  string
		req     runRequest
		raw     []byte
		status  int
		outcome string
	}
	kinds := []kind{
		{req: runRequest{Source: validSrc}, status: 200, outcome: outcomeOK},
		{req: runRequest{Source: `func main() { print(7 * 6); }`}, status: 200, outcome: outcomeOK},
		{tenant: "caged", req: runRequest{Source: spinSrc}, status: 412, outcome: outcomePredictedQuota},
		{tenant: "deep", req: runRequest{Source: lateThickSrc}, status: 403, outcome: outcomeQuota},
		{tenant: "slow", req: runRequest{Source: spinSrc}, status: 408, outcome: outcomeDeadline},
		{req: runRequest{Source: vetBadSrc}, status: 422, outcome: outcomeVetRejected},
		{req: runRequest{Source: parseBadSrc}, status: 400, outcome: outcomeCompileError},
		{raw: []byte(`{"source": 12`), status: 400, outcome: outcomeBadRequest},
		{req: runRequest{Name: "bomb", Source: validSrc}, status: 500, outcome: outcomePanic},
	}

	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := kinds[(c*perClient+i)%len(kinds)]
				var status int
				var resp runResponse
				if k.raw != nil {
					status, _, resp = postRaw(t, ts, k.tenant, k.raw)
				} else {
					status, _, resp = post(t, ts, k.tenant, k.req)
				}
				switch {
				case status == k.status && resp.Outcome == k.outcome:
				case status == 429 && k.raw == nil &&
					(resp.Outcome == outcomeShed || resp.Outcome == outcomeTenantBusy):
					// Admission pushed back under load; malformed-JSON
					// bodies bounce before admission, so 429 is not
					// legal for them.
				default:
					errs <- fmt.Errorf("client %d req %d: status %d outcome %q (%s), want %d %q",
						c, i, status, resp.Outcome, resp.Error, k.status, k.outcome)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics()
	var total int64
	for _, n := range m.Outcomes {
		total += n
	}
	if want := int64(clients*perClient + 1); total != want { // +1 warm-up
		t.Fatalf("metrics account for %d requests, want %d: %+v", total, want, m.Outcomes)
	}
	for _, must := range []string{outcomeOK, outcomeQuota, outcomePredictedQuota, outcomeVetRejected, outcomePanic, outcomeDeadline} {
		if m.Outcomes[must] == 0 {
			t.Errorf("outcome %q never observed: %+v", must, m.Outcomes)
		}
	}
	if m.Cache.Hits == 0 || m.Pool.Hits == 0 {
		t.Errorf("no reuse under load: cache %+v pool %+v", m.Cache, m.Pool)
	}
	if m.Outcomes[outcomePanic] > 0 && m.Pool.Discards == 0 {
		t.Error("panics did not discard their machines")
	}

	s.Drain(2 * time.Second)
	ts.Close()
	settleGoroutines(t, baseline)
}

// TestMetricsEndpoint: /metrics serves the JSON snapshot over HTTP.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, _, resp := post(t, ts, "", runRequest{Source: validSrc}); status != 200 {
		t.Fatalf("run: %d %q", status, resp.Outcome)
	}
	hres, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(hres.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Admitted != 1 || snap.Outcomes[outcomeOK] != 1 || snap.Steps <= 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if len(snap.StageCycles) == 0 {
		t.Fatal("snapshot has no per-stage cycle attribution")
	}
}

// TestLegacyEngineKeysIgnored: every request runs one engine configuration,
// so the "backend" and "sched" keys that older clients send and older
// journals hold are unknown keys and ignored. Bodies carrying them, even a
// backend name that never existed, answer byte for byte what the bare body
// answers, lease from the one pool key the bare body leases from, and a
// journaled accept record carrying them recovers to the same answer.
func TestLegacyEngineKeysIgnored(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const src = `shared int c[8] @ 300; func main() { #8; c[tid] = tid * 3; print(radd(c[tid])); }`
	bare := fmt.Sprintf(`{"source":%q,"peek":[{"addr":300,"n":8}]`, src)
	answer := func(t *testing.T, resp *runResponse) []byte {
		t.Helper()
		resp.WallClock = ""
		js, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	postRaw(t, ts, "", []byte(bare+"}")) // warm the compile cache and the pool
	_, _, resp := postRaw(t, ts, "", []byte(bare+"}"))
	if resp.Outcome != outcomeOK {
		t.Fatalf("bare body: %+v", resp)
	}
	want := answer(t, &resp)
	for _, tc := range []struct{ name, legacy string }{
		{"interp-dataflow", `,"backend":"interp","sched":"dataflow"}`},
		{"unknown-backend", `,"backend":"jit"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, resp := postRaw(t, ts, "", []byte(bare+tc.legacy))
			if got := answer(t, &resp); status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("body with %s: %d\n%s\nbare body\n%s", tc.legacy, status, got, want)
			}
			if idle := s.Metrics().Pool.Idle; idle != 1 {
				t.Fatalf("%d idle machines, want the one pool key's 1", idle)
			}
		})
	}

	t.Run("journal", func(t *testing.T) {
		line := fmt.Sprintf(`{"kind":"accept","id":"r1","tenant":"anon","src_hash":%q,"req":%s}`,
			hashSource(src), bare+`,"backend":"fused","sched":"dataflow"}`)
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		got, status := s.recoverRun(&rec)
		got.Tenant = rec.Tenant
		if js := answer(t, got); status != http.StatusOK || !bytes.Equal(js, want) {
			t.Fatalf("recovered: %d\n%s\nbare body\n%s", status, js, want)
		}
	})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
