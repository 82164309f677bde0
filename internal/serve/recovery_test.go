package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tcfpram/internal/machine"
)

// newRecoveredServer builds a crash-recoverable server over dir and an HTTP
// front end for it.
func newRecoveredServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewRecovered(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postID is post with an explicit X-Request-Id header.
func postID(t *testing.T, ts *httptest.Server, tenant, id string, req runRequest) (int, http.Header, runResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", id)
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

// TestRecoveryIdempotentReplay: a finished request id answers from the memo
// — same status, same body — without re-running the program.
func TestRecoveryIdempotentReplay(t *testing.T) {
	s, ts := newRecoveredServer(t, Options{RecoverDir: t.TempDir()})

	status, hdr, resp := postID(t, ts, "", "req-1", runRequest{Source: validSrc})
	if status != http.StatusOK || resp.Outcome != outcomeOK {
		t.Fatalf("first run: %d %q (%s)", status, resp.Outcome, resp.Error)
	}
	if got := hdr.Get("X-Request-Id"); got != "req-1" {
		t.Fatalf("X-Request-Id echoed %q, want req-1", got)
	}
	stepsBefore := s.Metrics().Steps

	status2, _, resp2 := postID(t, ts, "", "req-1", runRequest{Source: validSrc})
	if status2 != status || resp2.Outcome != resp.Outcome || len(resp2.Outputs) != len(resp.Outputs) {
		t.Fatalf("replay differs: %d %q vs %d %q", status2, resp2.Outcome, status, resp.Outcome)
	}
	m := s.Metrics()
	if m.Recovery.ReplayedResponses != 1 {
		t.Fatalf("replayed = %d, want 1", m.Recovery.ReplayedResponses)
	}
	if m.Steps != stepsBefore {
		t.Fatal("replay re-executed the program")
	}

	// A request without an id gets a server-generated one, echoed back.
	_, hdr3, _ := post(t, ts, "", runRequest{Source: validSrc})
	if hdr3.Get("X-Request-Id") == "" {
		t.Fatal("no server-generated X-Request-Id")
	}
}

// TestRecoveryDuplicateInFlight: the same id on two concurrent requests is
// refused with 409 + Retry-After, never run twice.
func TestRecoveryDuplicateInFlight(t *testing.T) {
	release := make(chan struct{})
	s, ts := newRecoveredServer(t, Options{RecoverDir: t.TempDir()})
	s.hookLoaded = func(tenant, name string) {
		if name == "block" {
			<-release
		}
	}

	first := make(chan runResponse, 1)
	go func() {
		_, _, resp := postID(t, ts, "", "dup-1", runRequest{Name: "block", Source: validSrc})
		first <- resp
	}()
	waitFor(t, func() bool { return s.running.Load() == 1 })

	status, hdr, resp := postID(t, ts, "", "dup-1", runRequest{Source: validSrc})
	if status != http.StatusConflict || resp.Outcome != outcomeDuplicate {
		t.Fatalf("duplicate: %d %q", status, resp.Outcome)
	}
	if _, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil {
		t.Fatal("duplicate response has no Retry-After")
	}
	close(release)
	if resp := <-first; resp.Outcome != outcomeOK {
		t.Fatalf("original run finished %q", resp.Outcome)
	}
	if got := s.Metrics().Outcomes[outcomeOK]; got != 1 {
		t.Fatalf("ok outcomes = %d, want exactly 1 execution", got)
	}
}

// TestRecoveryJournalReplay is the crash simulation at the package level: a
// server journals an accept record and dies without a done record; a second
// server over the same RecoverDir must finish the run during construction
// and answer the original id idempotently.
func TestRecoveryJournalReplay(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewRecovered(Options{RecoverDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The crash window: accept journaled, no done record. This is exactly
	// the state a SIGKILL mid-run leaves behind.
	req := &runRequest{Name: "lost", Source: validSrc}
	if err := s1.journal.append(&journalRecord{
		Kind: "accept", ID: "crashed-1", Tenant: "alice",
		SrcHash: hashSource(req.Source), Ckpt: s1.ckptPath("crashed-1"), Req: req,
	}); err != nil {
		t.Fatal(err)
	}
	s1.journal.Close() // the process dies; no drain, no done record

	s2, ts := newRecoveredServer(t, Options{RecoverDir: dir})
	m := s2.Metrics()
	if m.Recovery.RecoveredRuns != 1 {
		t.Fatalf("recovered runs = %d, want 1", m.Recovery.RecoveredRuns)
	}
	if m.Outcomes[outcomeOK] != 1 {
		t.Fatalf("recovered run outcomes: %+v", m.Outcomes)
	}

	// The original request id answers with the finished result.
	status, _, resp := postID(t, ts, "alice", "crashed-1", runRequest{Source: req.Source})
	if status != http.StatusOK || resp.Outcome != outcomeOK {
		t.Fatalf("replayed answer: %d %q (%s)", status, resp.Outcome, resp.Error)
	}
	if len(resp.Outputs) != 1 || resp.Outputs[0].Values[0] != 42 {
		t.Fatalf("recovered outputs: %+v", resp.Outputs)
	}
	if resp.Tenant != "alice" {
		t.Fatalf("recovered tenant %q", resp.Tenant)
	}
	if s2.Metrics().Recovery.ReplayedResponses != 1 {
		t.Fatal("answer was not served from the memo")
	}
}

// ckptSrc loops long enough that a mid-run checkpoint lands strictly inside
// the run, and touches memory so the result proves the resumed machine kept
// its state.
const ckptSrc = `
shared int c[8] @ 300;
func main() {
	#8;
	int i = 0;
	while (i < 6) {
		c[tid] = c[tid] + tid + i;
		i += 1;
	}
}
`

// writeMidRunCheckpoint reproduces what execute's FileSink would have left
// behind at the moment of a crash: a machine built exactly the way the
// server builds one, stepped partway, snapshotted to the run's checkpoint
// path.
func writeMidRunCheckpoint(t *testing.T, s *Server, req *runRequest, id string) {
	t.Helper()
	vk, vetDisc, runDisc, errResp, _ := parseRunOptions(req)
	if errResp != nil {
		t.Fatalf("parse options: %s", errResp.Error)
	}
	entry := s.cache.Get(req.Source, vk, vetDisc)
	if entry.rejected || entry.err != nil {
		t.Fatalf("compile: rejected=%v err=%v", entry.rejected, entry.err)
	}
	cfg, errResp, _ := s.buildConfig(req, vk, runDisc, s.limitsFor("anon"))
	if errResp != nil {
		t.Fatalf("config: %s", errResp.Error)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(entry.compiled.Program); err != nil {
		t.Fatal(err)
	}
	for _, seg := range entry.compiled.LocalData {
		for g := 0; g < cfg.Groups; g++ {
			if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && !m.Done(); i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Done() {
		t.Fatal("program finished before the mid-run checkpoint; use a longer one")
	}
	f, err := os.Create(s.ckptPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// overlapSrc is ckptSrc with a second array placed over c's last words: the
// vet gate warns (address-overlap) and admits it, so its answer carries
// diagnostics.
var overlapSrc = strings.Replace(ckptSrc, "func main()", "shared int d[4] @ 306;\nfunc main()", 1)

// TestRecoveryResumeFromCheckpoint: when the crashed run left a checkpoint,
// the restarted server restores the machine from it instead of re-running
// from scratch, and the finished answer is the one a run that was never
// interrupted gives, diagnostics included.
func TestRecoveryResumeFromCheckpoint(t *testing.T) {
	peek := []peekRange{{Addr: 300, N: 8}}
	for _, src := range []string{ckptSrc, overlapSrc} {
		// Oracle answer from an ordinary, never-crashed server.
		_, oracleTS := newTestServer(t, Options{})
		_, _, oracle := post(t, oracleTS, "", runRequest{Source: src, Peek: peek})
		if oracle.Outcome != outcomeOK {
			t.Fatalf("oracle: %q (%s)", oracle.Outcome, oracle.Error)
		}
		if warns := strings.Contains(oracle.Diagnostics, "address-overlap"); warns != (src == overlapSrc) {
			t.Fatalf("oracle diagnostics %q", oracle.Diagnostics)
		}

		// The crash window again, this time with the run's checkpoint on disk.
		dir := t.TempDir()
		s1, err := NewRecovered(Options{RecoverDir: dir, CheckpointEverySteps: 1})
		if err != nil {
			t.Fatal(err)
		}
		req := &runRequest{Name: "ckpt", Source: src, Peek: peek}
		if err := s1.journal.append(&journalRecord{
			Kind: "accept", ID: "ckpt-1", Tenant: "anon",
			SrcHash: hashSource(req.Source), Ckpt: s1.ckptPath("ckpt-1"), Req: req,
		}); err != nil {
			t.Fatal(err)
		}
		writeMidRunCheckpoint(t, s1, req, "ckpt-1")
		s1.journal.Close()

		s2, ts := newRecoveredServer(t, Options{RecoverDir: dir, CheckpointEverySteps: 1})
		m := s2.Metrics()
		if m.Recovery.Restores != 1 {
			t.Fatalf("restores = %d, want 1 (recovery did not use the checkpoint)", m.Recovery.Restores)
		}
		if m.Recovery.RecoveredRuns != 1 {
			t.Fatalf("recovered runs = %d, want 1", m.Recovery.RecoveredRuns)
		}

		status, _, resp := postID(t, ts, "", "ckpt-1", runRequest{Source: src})
		if status != http.StatusOK || resp.Outcome != outcomeOK {
			t.Fatalf("recovered answer: %d %q (%s)", status, resp.Outcome, resp.Error)
		}
		// Bit-identical to the straight-through oracle: diagnostics, outputs,
		// peeked memory, steps and cycles.
		if resp.Diagnostics != oracle.Diagnostics {
			t.Fatalf("diagnostics diverged: %q vs %q", resp.Diagnostics, oracle.Diagnostics)
		}
		if resp.Steps != oracle.Steps || resp.Cycles != oracle.Cycles {
			t.Fatalf("stats diverged: steps %d/%d cycles %d/%d", resp.Steps, oracle.Steps, resp.Cycles, oracle.Cycles)
		}
		gotMem, _ := json.Marshal(resp.Memory)
		wantMem, _ := json.Marshal(oracle.Memory)
		if !bytes.Equal(gotMem, wantMem) {
			t.Fatalf("memory diverged: %s vs %s", gotMem, wantMem)
		}
		gotOut, _ := json.Marshal(resp.Outputs)
		wantOut, _ := json.Marshal(oracle.Outputs)
		if !bytes.Equal(gotOut, wantOut) {
			t.Fatalf("outputs diverged: %s vs %s", gotOut, wantOut)
		}
		// The checkpoint file is deleted once the run is settled.
		if _, err := os.Stat(s2.ckptPath("ckpt-1")); !os.IsNotExist(err) {
			t.Fatalf("checkpoint not cleaned up: %v", err)
		}
	}
}

// TestRecoveryResumePanic: a panic in a resumed run is contained as in a live
// one. Recovery completes, and the run's id answers 500 "panic" from then on
// instead of leaving the accept pending for every restart to repeat.
func TestRecoveryResumePanic(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewRecovered(Options{RecoverDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := &runRequest{Name: "boom", Source: ckptSrc}
	if err := s1.journal.append(&journalRecord{
		Kind: "accept", ID: "boom-1", Tenant: "anon",
		SrcHash: hashSource(req.Source), Ckpt: s1.ckptPath("boom-1"), Req: req,
	}); err != nil {
		t.Fatal(err)
	}
	writeMidRunCheckpoint(t, s1, req, "boom-1")
	s1.journal.Close()

	s2 := New(Options{})
	s2.opts.RecoverDir = dir
	s2.hookLoaded = func(tenant, name string) {
		if name == "boom" {
			panic("injected")
		}
	}
	if err := s2.initRecovery(); err != nil {
		t.Fatalf("recovery failed on a panicking run: %v", err)
	}
	if got := s2.Metrics().Recovery.Restores; got != 1 {
		t.Fatalf("restores = %d, want 1 (the panic was not in a resumed run)", got)
	}
	ts := httptest.NewServer(s2.Handler())
	t.Cleanup(ts.Close)
	status, _, resp := postID(t, ts, "", "boom-1", runRequest{Source: ckptSrc})
	if status != http.StatusInternalServerError || resp.Outcome != outcomePanic {
		t.Fatalf("resumed panic answered %d %q (%s), want 500 %q", status, resp.Outcome, resp.Error, outcomePanic)
	}
}

// TestRecoveryFuelCheckpointOverQuota: a miss makes its prediction on the
// leased machine, checkpointing as it goes, so a crash can leave behind a
// checkpoint of a run that predictive admission goes on to reject. The
// restarted server must answer that run 412, exactly as the live server did,
// rather than resume it into a runtime quota error.
func TestRecoveryFuelCheckpointOverQuota(t *testing.T) {
	tenants := map[string]Limits{"caged": cagedLimits()}
	// soonThickSrc is lateThickSrc asking for its thickness within the caged
	// step quota, after the run has checkpointed.
	soonThickSrc := strings.Replace(lateThickSrc, "6000", "10", 1)
	for _, src := range []string{soonThickSrc, spinSrc} {
		live, liveTS := newRecoveredServer(t, Options{RecoverDir: t.TempDir(), CheckpointEverySteps: 1, Tenants: tenants})
		var ckpt []byte
		live.pool.hookRelease = func(*machine.Machine) {
			ckpt, _ = os.ReadFile(live.ckptPath("fuel-1"))
		}
		req := runRequest{Name: "fuel", Source: src}
		status, _, want := postID(t, liveTS, "caged", "fuel-1", req)
		if status != http.StatusPreconditionFailed || ckpt == nil {
			t.Fatalf("live run: %d %q (%s), checkpoint %d bytes", status, want.Outcome, want.Error, len(ckpt))
		}

		// The crash window: accept journaled, the fuel's checkpoint on disk.
		dir := t.TempDir()
		s1, err := NewRecovered(Options{RecoverDir: dir, Tenants: tenants})
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.journal.append(&journalRecord{
			Kind: "accept", ID: "fuel-1", Tenant: "caged",
			SrcHash: hashSource(req.Source), Ckpt: s1.ckptPath("fuel-1"), Req: &req,
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s1.ckptPath("fuel-1"), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		s1.journal.Close()

		_, ts := newRecoveredServer(t, Options{RecoverDir: dir, Tenants: tenants})
		status2, _, got := postID(t, ts, "caged", "fuel-1", req)
		gotJS, _ := json.Marshal(got)
		wantJS, _ := json.Marshal(want)
		if status2 != status || !bytes.Equal(gotJS, wantJS) {
			t.Fatalf("recovered answer %d %s, live answer %d %s", status2, gotJS, status, wantJS)
		}
	}
}

// TestRecoveryCheckpointsWritten: a live run in recovery mode writes
// periodic checkpoints and counts them in /metrics.
func TestRecoveryCheckpointsWritten(t *testing.T) {
	s, ts := newRecoveredServer(t, Options{RecoverDir: t.TempDir(), CheckpointEverySteps: 8})
	status, _, resp := post(t, ts, "", runRequest{Source: ckptSrc})
	if status != http.StatusOK {
		t.Fatalf("run: %d %q (%s)", status, resp.Outcome, resp.Error)
	}
	if got := s.Metrics().Recovery.CheckpointsWritten; got < 1 {
		t.Fatalf("checkpoints written = %d, want >= 1", got)
	}
}

// TestRecoveryTornJournalTail: a partial final line (crash mid-append) is
// truncated on open and does not poison earlier records or later appends.
func TestRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	full := `{"kind":"done","id":"a","status":200,"resp":{"outcome":"ok","cached_program":true,"pooled_machine":false}}` + "\n"
	if err := os.WriteFile(path, []byte(full+`{"kind":"acc`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newRecoveredServer(t, Options{RecoverDir: dir})
	if _, ok := s.completedResponse("a"); !ok {
		t.Fatal("complete record before the torn tail was lost")
	}
	// New runs append cleanly after the truncation.
	if status, _, resp := postID(t, ts, "", "b", runRequest{Source: validSrc}); status != http.StatusOK {
		t.Fatalf("post-truncation run: %d %q (%s)", status, resp.Outcome, resp.Error)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %d unparseable after truncation: %v\n%s", i, err, line)
		}
	}
}

// TestRetryAfterMonotonic pins the derived Retry-After hint: a deeper
// backlog never shrinks the hint, and the hint stays within [1s, 60s].
func TestRetryAfterMonotonic(t *testing.T) {
	s := New(Options{MaxConcurrent: 2})
	// Fix the measured mean run time at 1s.
	s.metrics.runNanos.Store(int64(time.Second))
	s.metrics.runsMeasured.Store(1)

	prev := 0
	for backlog := int64(0); backlog <= 400; backlog += 7 {
		s.queued.Store(backlog)
		s.running.Store(2)
		secs := s.retryAfterSecs()
		if secs < prev {
			t.Fatalf("backlog %d: hint %ds < previous %ds (not monotone)", backlog, secs, prev)
		}
		if secs < 1 || secs > 60 {
			t.Fatalf("backlog %d: hint %ds outside [1,60]", backlog, secs)
		}
		prev = secs
	}
	if prev < 60 {
		t.Fatalf("huge backlog never reached the 60s cap (got %ds)", prev)
	}

	// Before any run has finished, the conservative default mean still
	// yields a hint inside the clamp.
	s2 := New(Options{MaxConcurrent: 4})
	if secs := s2.retryAfterSecs(); secs < 1 || secs > 60 {
		t.Fatalf("cold-start hint %ds outside [1,60]", secs)
	}
}

// TestWatchdogDerivedFromQuota: with Options.WatchdogSteps unset the
// watchdog derives from the tenant's MaxSteps quota, so a silent livelock
// dies quickly with a runtime-fault instead of burning the wall clock or
// grinding through the whole step quota.
func TestWatchdogDerivedFromQuota(t *testing.T) {
	if w := watchdogFor(300); w != 256 {
		t.Fatalf("watchdogFor(300) = %d, want the 256 floor", w)
	}
	if w := watchdogFor(1 << 40); w != 1<<14 {
		t.Fatalf("watchdogFor(1<<40) = %d, want the 1<<14 cap", w)
	}
	if w := watchdogFor(1 << 16); w != 1<<13 {
		t.Fatalf("watchdogFor(1<<16) = %d, want MaxSteps/8", w)
	}

	// A silent livelock: an empty loop does no observable work, so the
	// derived watchdog (16Ki steps here) must kill it long before the 1Mi
	// step quota and the 30s wall clock.
	const quota = 1 << 20
	_, ts := newTestServer(t, Options{
		Tenants: map[string]Limits{"live": {MaxSteps: quota, MaxWallClock: 30 * time.Second}},
	})
	start := time.Now()
	status, _, resp := post(t, ts, "live", runRequest{Source: `func main() { while (1) { } }`})
	elapsed := time.Since(start)
	if status != http.StatusConflict || resp.Outcome != outcomeRuntimeFault {
		t.Fatalf("livelock: %d %q (%s)", status, resp.Outcome, resp.Error)
	}
	if !strings.Contains(resp.Error, "watchdog") {
		t.Fatalf("livelock died of %q, want the watchdog", resp.Error)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("watchdog took %s; not early", elapsed)
	}
	if resp.Steps >= quota {
		t.Fatalf("run burned the whole step quota (%d steps)", resp.Steps)
	}
}

// TestRecoveryConcurrentLoad exercises the journaled path under
// concurrency: many clients with unique ids, every run settles, and the
// journal pairs every accept with a done record.
func TestRecoveryConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	const n = 24
	// The per-tenant in-flight cap must admit the full burst: this test is
	// about journal pairing under concurrency, not admission control.
	s, ts := newRecoveredServer(t, Options{
		RecoverDir: dir, MaxConcurrent: 4, MaxQueue: 64, QueueWait: 10 * time.Second,
		DefaultLimits: Limits{MaxInFlight: n},
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, resp := postID(t, ts, "", fmt.Sprintf("load-%d", i), runRequest{Source: validSrc})
			if status != http.StatusOK {
				t.Errorf("run %d: %d %q (%s)", i, status, resp.Outcome, resp.Error)
			}
		}(i)
	}
	wg.Wait()

	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	accepts, dones := 0, 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line: %v", err)
		}
		switch rec.Kind {
		case "accept":
			accepts++
		case "done":
			dones++
		}
	}
	if accepts != n || dones != n {
		t.Fatalf("journal has %d accepts / %d dones, want %d/%d", accepts, dones, n, n)
	}
	if got := s.Metrics().Outcomes[outcomeOK]; got != n {
		t.Fatalf("ok outcomes = %d, want %d", got, n)
	}
}
