// Package serve implements the multi-tenant tcf-e execution server behind
// cmd/tcfserve: clients POST programs to /run and get back outputs,
// statistics and memory snapshots from a governed run on the extended
// PRAM-NUMA machine.
//
// Every request runs the one engine, with serial lanes, so a request chooses
// its program, variant, discipline and machine shape, never its engine. The
// request path is a fixed pipeline:
//
//	admission (bounded queue, load shedding, per-tenant concurrency)
//	→ vet gate (tcfvet static analysis, single-flight compile cache)
//	→ lease (machine pool: Reset-reuse keyed by config shape)
//	→ fuelled run (the cost prediction on the lease, unless memoized)
//	→ quota check (predictive admission)
//	→ continue (MaxSteps, MaxThickness, wall-clock deadline, watchdog)
//	→ metrics (per-outcome counts, Figure 13 per-stage cycle attribution)
//
// Every failure mode maps to a distinct HTTP status so clients can react
// mechanically: 429 means back off (Retry-After is set), 403 means the
// program exceeded its tenant's quota while running, 412 means the cost
// prediction proved it would exceed the quota (rejected at admission, within
// the prediction's fuel), 422 means tcfvet rejected it, 503 means the
// server is draining. Request panics are isolated: the machine is
// discarded, the client gets a 500, and the server keeps serving.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcfpram/internal/analysis"
	"tcfpram/internal/checkpoint"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// Outcome strings carried in responses and counted by /metrics.
const (
	outcomeOK           = "ok"
	outcomeShed         = "shed"
	outcomeTenantBusy   = "tenant-busy"
	outcomeDraining     = "draining"
	outcomeBadRequest   = "bad-request"
	outcomeTooLarge     = "too-large"
	outcomeVetRejected  = "vet-rejected"
	outcomeCompileError = "compile-error"
	outcomeQuota        = "quota-exceeded"
	// outcomePredictedQuota rejects a run whose predicted cost provably
	// exceeds the tenant's quota, before it runs past the prediction's fuel
	// (HTTP 412: the precondition "fits the quota" failed at admission).
	outcomePredictedQuota = "predicted-over-quota"
	outcomeDeadline       = "deadline"
	outcomeRuntimeFault   = "runtime-fault"
	outcomePanic          = "panic"
	outcomeDuplicate      = "duplicate"
	outcomeInternal       = "internal"
)

// Limits is one tenant's resource envelope. Zero fields take the server
// defaults (see defaultLimits).
type Limits struct {
	// MaxSteps bounds machine steps per run (ErrMaxSteps → 403).
	MaxSteps int64
	// MaxThickness bounds any flow's thickness (ErrThicknessLimit → 403).
	MaxThickness int
	// MaxSharedWords caps the shared-memory size a request may ask for.
	MaxSharedWords int
	// MaxWallClock is the per-run wall-clock deadline (→ 408).
	MaxWallClock time.Duration
	// MaxSourceBytes caps program source size (→ 413).
	MaxSourceBytes int
	// MaxInFlight caps the tenant's concurrent runs (→ 429).
	MaxInFlight int
}

func defaultLimits() Limits {
	return Limits{
		MaxSteps:       1 << 20,
		MaxThickness:   1 << 16,
		MaxSharedWords: 1 << 20,
		MaxWallClock:   5 * time.Second,
		MaxSourceBytes: 64 << 10,
		MaxInFlight:    4,
	}
}

// withDefaults fills zero fields from the defaults.
func (l Limits) withDefaults(d Limits) Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxThickness <= 0 {
		l.MaxThickness = d.MaxThickness
	}
	if l.MaxSharedWords <= 0 {
		l.MaxSharedWords = d.MaxSharedWords
	}
	if l.MaxWallClock <= 0 {
		l.MaxWallClock = d.MaxWallClock
	}
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = d.MaxSourceBytes
	}
	if l.MaxInFlight <= 0 {
		l.MaxInFlight = d.MaxInFlight
	}
	return l
}

// Options configures a Server. The zero value is usable: every field has a
// default chosen for a small shared instance.
type Options struct {
	// MaxConcurrent is the number of run slots (default 4).
	MaxConcurrent int
	// MaxQueue is how many admitted requests may wait for a slot before
	// new arrivals are shed with 429 (default 2×MaxConcurrent).
	MaxQueue int
	// QueueWait caps how long a queued request waits for a slot before it
	// is shed (default 2s).
	QueueWait time.Duration
	// MaxGroups / MaxProcs cap the machine shape a request may ask for
	// (default 16 each).
	MaxGroups int
	MaxProcs  int
	// WatchdogSteps is the no-progress deadlock watchdog stamped on every
	// machine. 0 (the default) derives the bound per tenant from its
	// MaxSteps quota — see watchdogFor — so livelocked programs are killed
	// by the watchdog long before they burn the whole wall-clock deadline.
	WatchdogSteps int64
	// PoolIdlePerKey bounds idle machines kept per config shape
	// (default MaxConcurrent).
	PoolIdlePerKey int
	// CacheEntries bounds the compiled-program cache (default 256).
	CacheEntries int
	// DefaultLimits is the resource envelope of unknown tenants; Tenants
	// overrides it per X-Tenant header value. Zero fields of either take
	// the built-in defaults.
	DefaultLimits Limits
	Tenants       map[string]Limits
	// RecoverDir enables crash recovery (NewRecovered only): the
	// write-ahead run journal and per-run machine checkpoints live here.
	// After a crash, NewRecovered replays the journal, resumes lost runs
	// from their last checkpoint (re-executes from scratch when none was
	// written yet) and answers the original request ids idempotently.
	RecoverDir string
	// CheckpointEverySteps is how often a recoverable run snapshots its
	// machine (default 256 steps; only meaningful with RecoverDir).
	CheckpointEverySteps int64
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) normalized() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.MaxConcurrent
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 16
	}
	if o.MaxProcs <= 0 {
		o.MaxProcs = 16
	}
	if o.CheckpointEverySteps <= 0 {
		o.CheckpointEverySteps = 256
	}
	if o.PoolIdlePerKey <= 0 {
		o.PoolIdlePerKey = o.MaxConcurrent
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	o.DefaultLimits = o.DefaultLimits.withDefaults(defaultLimits())
	return o
}

// Server executes tcf-e programs for many concurrent clients with pooled
// machines, cached compilation, per-tenant quotas, bounded-queue admission
// and graceful drain. Build with New, mount Handler, stop with Drain.
type Server struct {
	opts  Options
	pool  *MachinePool
	cache *ProgramCache

	slots   chan struct{} // run-slot semaphore, capacity MaxConcurrent
	queued  atomic.Int64  // requests waiting for a slot
	running atomic.Int64  // requests holding a slot

	drainFlag atomic.Bool
	drainCh   chan struct{} // closed when draining starts
	inflight  sync.WaitGroup

	baseCtx    context.Context // canceled at the drain deadline
	baseCancel context.CancelFunc

	tenantMu sync.Mutex
	tenants  map[string]*tenantState

	metrics metrics

	// Crash-recovery state (NewRecovered only; nil journal = disabled).
	journal     *runJournal
	idMu        sync.Mutex
	inflightIDs map[string]struct{}
	completed   map[string]completedRun

	// hookLoaded, when set, runs after a program is loaded onto the leased
	// machine and before the run — the test seam for panic isolation.
	hookLoaded func(tenant, name string)
}

type tenantState struct {
	inflight atomic.Int64
}

// New builds a Server from opts. Crash recovery (Options.RecoverDir) needs a
// constructor that can fail and block on journal replay — use NewRecovered
// for that; New ignores RecoverDir.
func New(opts Options) *Server {
	o := opts.normalized()
	o.RecoverDir = ""
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:        o,
		pool:        NewMachinePool(o.PoolIdlePerKey),
		cache:       NewProgramCache(o.CacheEntries),
		slots:       make(chan struct{}, o.MaxConcurrent),
		drainCh:     make(chan struct{}),
		baseCtx:     ctx,
		baseCancel:  cancel,
		tenants:     make(map[string]*tenantState),
		inflightIDs: make(map[string]struct{}),
		completed:   make(map[string]completedRun),
	}
}

// NewRecovered is New with crash recovery: it opens the write-ahead run
// journal in opts.RecoverDir, replays it, synchronously finishes every run a
// previous process lost (resuming from the last checkpoint when one exists)
// and memoizes finished answers so the original request ids are served
// idempotently. It returns once recovery is complete, so the caller can
// start listening on a server with no half-finished state.
func NewRecovered(opts Options) (*Server, error) {
	if opts.RecoverDir == "" {
		return nil, fmt.Errorf("serve: NewRecovered needs Options.RecoverDir")
	}
	dir := opts.RecoverDir
	s := New(opts)
	s.opts.RecoverDir = dir
	if err := s.initRecovery(); err != nil {
		return nil, fmt.Errorf("serve: recovery in %s: %w", dir, err)
	}
	return s, nil
}

// Handler returns the server's HTTP routes: POST /run, GET /metrics,
// GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Drain performs a graceful shutdown: stop admitting, let in-flight runs
// finish until the timeout, then cancel whatever is still running and wait
// for it to unwind. The final metrics snapshot is flushed through Logf.
// Drain is idempotent; only the first call does the work.
func (s *Server) Drain(timeout time.Duration) {
	if !s.drainFlag.CompareAndSwap(false, true) {
		return
	}
	close(s.drainCh)
	s.opts.Logf("serve: draining, waiting up to %s for %d running / %d queued requests",
		timeout, s.running.Load(), s.queued.Load())

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.opts.Logf("serve: drain deadline reached, canceling in-flight runs")
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.pool.Close()
	if s.journal != nil {
		s.journal.Close()
	}

	snap, _ := json.Marshal(s.Metrics())
	s.opts.Logf("serve: drained; final stats %s", snap)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.drainFlag.Load() }

// runRequest is the POST /run body.
type runRequest struct {
	// Name labels the program in logs; diagnostics use a content hash.
	Name   string `json:"name"`
	Source string `json:"source"`
	// Variant selects the execution model (default "tcf").
	Variant string `json:"variant"`
	// Discipline selects the PRAM memory model for the vet gate and the
	// runtime cross-checker (default "crew" for vet, off at runtime when
	// empty).
	Discipline string `json:"discipline"`
	// Machine shape; zero fields take the variant defaults, capped by the
	// server's MaxGroups/MaxProcs and the tenant's MaxSharedWords.
	Groups      int `json:"groups"`
	Procs       int `json:"procs"`
	SharedWords int `json:"shared_words"`
	// Peek requests shared-memory snapshots in the response.
	Peek []peekRange `json:"peek"`
}

type peekRange struct {
	Addr int64 `json:"addr"`
	N    int   `json:"n"`
}

// maxPeekWords bounds one peek range so responses stay small.
const maxPeekWords = 4096

// runResponse is the /run reply for every outcome; error outcomes carry
// Error/Diagnostics and zero statistics.
type runResponse struct {
	Outcome     string `json:"outcome"`
	Tenant      string `json:"tenant,omitempty"`
	Error       string `json:"error,omitempty"`
	Diagnostics string `json:"diagnostics,omitempty"`

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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.drainFlag.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleRun is the admission pipeline; execute runs the admitted program.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// Register with the drain accounting before checking the flag: either
	// Drain's Wait sees this request, or this request sees the flag.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.drainFlag.Load() {
		s.reject(w, http.StatusServiceUnavailable, outcomeDraining, "server is draining", "")
		return
	}

	tenantName := r.Header.Get("X-Tenant")
	if tenantName == "" {
		tenantName = "anon"
	}
	lim := s.limitsFor(tenantName)

	// Request identity (recovery mode only): echo the id — generated when
	// the client sent none — so clients can re-ask for their result after a
	// server crash. A finished id replays its memoized answer; an id still
	// in flight (here or on another connection) is refused, not re-run.
	var runID string
	if s.journal != nil {
		runID = r.Header.Get("X-Request-Id")
		if runID == "" {
			runID = newRunID()
		}
		w.Header().Set("X-Request-Id", runID)
		if done, ok := s.completedResponse(runID); ok {
			s.metrics.replayed.Add(1)
			writeJSON(w, done.status, done.resp)
			return
		}
		if !s.beginRun(runID) {
			s.setRetryAfter(w)
			s.reject(w, http.StatusConflict, outcomeDuplicate,
				fmt.Sprintf("request id %q is already in flight", runID), tenantName)
			return
		}
		defer s.endRun(runID)
	}

	// Decode under a size cap; the JSON envelope gets slack beyond the
	// source cap for escaping and the other fields.
	r.Body = http.MaxBytesReader(w, r.Body, 2*int64(lim.MaxSourceBytes)+4096)
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, http.StatusRequestEntityTooLarge, outcomeTooLarge, "request body too large", tenantName)
			return
		}
		s.reject(w, http.StatusBadRequest, outcomeBadRequest, "malformed JSON: "+err.Error(), tenantName)
		return
	}
	if len(req.Source) > lim.MaxSourceBytes {
		s.reject(w, http.StatusRequestEntityTooLarge, outcomeTooLarge,
			fmt.Sprintf("source is %d bytes, tenant cap is %d", len(req.Source), lim.MaxSourceBytes), tenantName)
		return
	}
	if req.Source == "" {
		s.reject(w, http.StatusBadRequest, outcomeBadRequest, "empty source", tenantName)
		return
	}

	// Per-tenant concurrency cap.
	t := s.tenant(tenantName)
	if n := t.inflight.Add(1); n > int64(lim.MaxInFlight) {
		t.inflight.Add(-1)
		s.setRetryAfter(w)
		s.reject(w, http.StatusTooManyRequests, outcomeTenantBusy,
			fmt.Sprintf("tenant %q already has %d runs in flight", tenantName, lim.MaxInFlight), tenantName)
		return
	}
	defer t.inflight.Add(-1)

	// Global admission: a bounded queue in front of the run slots. Beyond
	// MaxQueue waiters, or past QueueWait, the request is shed.
	if q := s.queued.Add(1); q > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		s.setRetryAfter(w)
		s.reject(w, http.StatusTooManyRequests, outcomeShed, "admission queue full", tenantName)
		return
	}
	queueTimer := time.NewTimer(s.opts.QueueWait)
	defer queueTimer.Stop()
	select {
	case s.slots <- struct{}{}:
	case <-queueTimer.C:
		s.queued.Add(-1)
		s.setRetryAfter(w)
		s.reject(w, http.StatusTooManyRequests, outcomeShed, "no run slot within the queue wait", tenantName)
		return
	case <-s.drainCh:
		s.queued.Add(-1)
		s.reject(w, http.StatusServiceUnavailable, outcomeDraining, "server is draining", tenantName)
		return
	case <-r.Context().Done():
		s.queued.Add(-1)
		s.reject(w, http.StatusRequestTimeout, outcomeDeadline, "client went away while queued", tenantName)
		return
	}
	s.queued.Add(-1)
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.slots
	}()
	s.metrics.admitted.Add(1)

	// Write-ahead: the accepted request hits the journal before the run
	// starts, so a crash anywhere past this point is recoverable.
	if s.journal != nil {
		err := s.journal.append(&journalRecord{
			Kind: "accept", ID: runID, Tenant: tenantName,
			SrcHash: hashSource(req.Source), Ckpt: s.ckptPath(runID), Req: &req,
		})
		if err != nil {
			s.opts.Logf("serve: journaling accept for %s: %v", runID, err)
			s.reject(w, http.StatusInternalServerError, outcomeInternal, "run journal unavailable", tenantName)
			return
		}
	}

	resp, status := s.runAdmitted(r.Context(), &req, tenantName, lim, runID, "")
	resp.Tenant = tenantName
	s.metrics.count(resp.Outcome)
	if s.journal != nil {
		s.finishRun(runID, status, resp)
	}
	writeJSON(w, status, resp)
}

// parseRunOptions resolves a request's variant and discipline selections.
// The vet gate defaults to CREW — the analyzer's own default — while the
// runtime cross-checker stays off unless asked for.
func parseRunOptions(req *runRequest) (vk variant.Kind, vetDisc, runDisc mem.Discipline, errResp *runResponse, status int) {
	vk = variant.SingleInstruction
	if req.Variant != "" {
		k, err := variant.ParseKind(req.Variant)
		if err != nil {
			return vk, 0, 0, &runResponse{Outcome: outcomeBadRequest, Error: err.Error()}, http.StatusBadRequest
		}
		vk = k
	}
	vetDisc = mem.DisciplineCREW
	runDisc = mem.DisciplineOff
	if req.Discipline != "" {
		d, err := mem.ParseDiscipline(req.Discipline)
		if err != nil {
			return vk, 0, 0, &runResponse{Outcome: outcomeBadRequest, Error: err.Error()}, http.StatusBadRequest
		}
		vetDisc, runDisc = d, d
	}
	return vk, vetDisc, runDisc, nil, 0
}

// runAdmitted handles the post-admission pipeline: vet gate, config
// validation, pooled execution. runID is non-empty only in recovery mode,
// where it names the run's checkpoint file. ckpt is non-empty only for a run
// a crash interrupted: the checkpoint it left, which the run resumes from
// when the file is there and usable.
func (s *Server) runAdmitted(reqCtx context.Context, req *runRequest, tenantName string, lim Limits, runID, ckpt string) (*runResponse, int) {
	vk, vetDisc, runDisc, errResp, status := parseRunOptions(req)
	if errResp != nil {
		return errResp, status
	}

	// Vet gate + single-flight compile, both memoized.
	entry := s.cache.Get(req.Source, vk, vetDisc)
	if entry.rejected {
		outcome, status := outcomeVetRejected, http.StatusUnprocessableEntity
		if entry.frontend {
			outcome, status = outcomeCompileError, http.StatusBadRequest
		}
		return &runResponse{
			Outcome:     outcome,
			Error:       "program rejected before execution",
			Diagnostics: entry.diags,
		}, status
	}
	if entry.err != nil {
		return &runResponse{Outcome: outcomeCompileError, Error: entry.err.Error()}, http.StatusBadRequest
	}

	cfg, errResp, status := s.buildConfig(req, vk, runDisc, lim)
	if errResp != nil {
		return errResp, status
	}

	// Predictive admission: reject jobs whose provable lower bounds already
	// exceed the tenant's quota. A prediction memoized per program and
	// machine shape on the cache entry does so before any machine is leased;
	// without one, execute makes it on the leased machine. Only
	// exact-or-lower-bound violations reject; an analysis that cannot bound
	// the program admits it and lets the runtime quotas govern as before.
	// A checkpoint may come from the fuel execute runs on the leased machine,
	// so a resumed run is predicted before it is restored: 412 as it
	// answered live.
	params := costParamsFor(cfg)
	rep := entry.cost(params)
	var resume *os.File
	if ckpt != "" {
		resume, _ = os.Open(ckpt) // nil when the crash left none
	}
	if resume != nil {
		defer resume.Close()
		if rep == nil {
			rep = analysis.Cost(entry.compiled, params)
			entry.memoCost(params, rep)
		}
	}
	if why := predictionOverQuota(rep, lim); why != "" {
		return overQuota(why, entry.diags)
	}

	var lease *Lease
	var err error
	if resume != nil {
		if lease, err = s.pool.Restore(resume, cfg); err != nil {
			s.opts.Logf("serve: checkpoint %s unusable (%v); re-running %s from scratch", ckpt, err, runID)
		} else {
			s.metrics.restores.Add(1)
		}
	}
	if lease == nil {
		if lease, err = s.pool.Get(cfg); err != nil {
			return &runResponse{Outcome: outcomeBadRequest, Error: err.Error()}, http.StatusBadRequest
		}
	}
	return s.execute(reqCtx, lease, entry, req, tenantName, lim, entry.diags, params, rep, runID)
}

// overQuota is the 412 answer of predictive admission.
func overQuota(why, diags string) (*runResponse, int) {
	return &runResponse{Outcome: outcomePredictedQuota, Error: why, Diagnostics: diags}, http.StatusPreconditionFailed
}

// Admission-time analysis budgets: the cost run happens inline on the
// request path (memoized per program and shape), so its step fuel and lane
// work are kept far below the analyzer's offline defaults. A step-quota
// violation stays provable whenever the quota is below the fuel cap;
// heavier programs simply stay unresolved and fall through to the runtime
// quotas, which is always sound.
const (
	admitMaxSteps    = 1 << 14
	admitMaxLaneWork = 1 << 22
)

// costParamsFor is the pooled-machine config as the cost analyzer sees it,
// under the admission budgets. The tenant's thickness quota is the machine's
// limit and the lane cap, as on the lease: the prediction reports what the
// program asked for, refused or not, for predictionOverQuota to compare with
// the quota. The step budget is clamped just past the tenant's step quota so
// a violation stays provable without running longer than it takes to prove it.
func costParamsFor(cfg machine.Config) analysis.CostParams {
	p := analysis.ParamsFor(cfg)
	p.MaxSteps, p.MaxLaneWork, p.MaxConcreteLanes = admitMaxSteps, admitMaxLaneWork, cfg.MaxThickness
	if cfg.MaxSteps > 0 && cfg.MaxSteps < admitMaxSteps {
		p.MaxSteps = cfg.MaxSteps + 1
	}
	return p
}

// predictionOverQuota returns a non-empty reason when the prediction's
// lower bounds prove the run must exceed the tenant's step or thickness
// quota. Lower bounds are sound for unresolved analyses too, so this never
// rejects a program the quotas could still admit. The shared-memory quota
// needs no prediction: buildConfig caps the memory size itself, and a
// reference beyond it reads zero or is dropped.
func predictionOverQuota(rep *analysis.CostReport, lim Limits) string {
	if rep == nil {
		return ""
	}
	if lim.MaxSteps > 0 && rep.Steps.Min > lim.MaxSteps {
		return fmt.Sprintf("predicted steps %s exceed the tenant quota %d", rep.Steps, lim.MaxSteps)
	}
	if lim.MaxThickness > 0 && rep.MaxThickness.Min > int64(lim.MaxThickness) {
		return fmt.Sprintf("predicted flow thickness %s exceeds the tenant quota %d", rep.MaxThickness, lim.MaxThickness)
	}
	return ""
}

// buildConfig validates the requested machine shape against the server caps
// and the tenant's quota, returning the pooled-machine configuration.
func (s *Server) buildConfig(req *runRequest, vk variant.Kind, runDisc mem.Discipline, lim Limits) (machine.Config, *runResponse, int) {
	cfg := machine.Default(vk)
	if req.Groups > 0 {
		cfg.Groups = req.Groups
	}
	if req.Procs > 0 {
		cfg.ProcsPerGroup = req.Procs
	}
	if req.SharedWords > 0 {
		cfg.SharedWords = req.SharedWords
	}
	if cfg.Groups > s.opts.MaxGroups || cfg.ProcsPerGroup > s.opts.MaxProcs {
		return cfg, &runResponse{
			Outcome: outcomeBadRequest,
			Error:   fmt.Sprintf("machine shape %d×%d exceeds the server cap %d×%d", cfg.Groups, cfg.ProcsPerGroup, s.opts.MaxGroups, s.opts.MaxProcs),
		}, http.StatusBadRequest
	}
	if cfg.SharedWords > lim.MaxSharedWords {
		return cfg, &runResponse{
			Outcome: outcomeQuota,
			Error:   fmt.Sprintf("shared_words %d exceeds the tenant quota %d", cfg.SharedWords, lim.MaxSharedWords),
		}, http.StatusForbidden
	}
	for _, p := range req.Peek {
		// Addr is compared against the last start that fits: Addr+N overflows.
		if p.N <= 0 || p.N > maxPeekWords || p.Addr < 0 || p.Addr > int64(cfg.SharedWords-p.N) {
			return cfg, &runResponse{
				Outcome: outcomeBadRequest,
				Error:   fmt.Sprintf("peek [%d,%d) out of range (max %d words within %d)", p.Addr, p.Addr+int64(p.N), maxPeekWords, cfg.SharedWords),
			}, http.StatusBadRequest
		}
	}
	cfg.MemDiscipline = runDisc
	cfg.WatchdogSteps = s.opts.WatchdogSteps
	if cfg.WatchdogSteps <= 0 {
		cfg.WatchdogSteps = watchdogFor(lim.MaxSteps)
	}
	cfg.MaxSteps = lim.MaxSteps
	cfg.MaxThickness = lim.MaxThickness
	return cfg, nil, 0
}

// watchdogFor derives the no-progress watchdog bound from a tenant's step
// quota: a fraction of MaxSteps so silent livelock dies well before the
// quota, floored so legitimately quiet stretches (long memory stalls,
// combining phases) survive, and capped so huge quotas don't disable it.
func watchdogFor(maxSteps int64) int64 {
	w := maxSteps / 8
	if w < 256 {
		w = 256
	}
	if w > 1<<14 {
		w = 1 << 14
	}
	return w
}

// execute runs the compiled program on the leased machine under the
// tenant's limits, its admission fuel first when no prediction is memoized
// (rep nil). Panics are contained here: the lease is discarded (its machine
// state can't be trusted) and the client gets a 500. In recovery mode (runID
// non-empty) the machine checkpoints itself periodically so a process crash
// can resume the run instead of losing it. A restored lease's machine holds
// the program, the limits and the state a crash interrupted and runs on from
// there; rep is never nil for it.
func (s *Server) execute(reqCtx context.Context, lease *Lease, entry *cacheEntry, req *runRequest, tenantName string, lim Limits, diags string, params analysis.CostParams, rep *analysis.CostReport, runID string) (resp *runResponse, status int) {
	defer func() {
		if p := recover(); p != nil {
			lease.Discard()
			s.opts.Logf("serve: panic running %q for tenant %q: %v\n%s", req.Name, tenantName, p, debug.Stack())
			resp = &runResponse{Outcome: outcomePanic, Error: fmt.Sprintf("internal panic: %v", p)}
			status = http.StatusInternalServerError
		}
	}()

	m := lease.M
	if !lease.Restored {
		if err := m.SetLimits(lim.MaxSteps, lim.MaxThickness); err != nil {
			lease.Discard()
			return &runResponse{Outcome: outcomeRuntimeFault, Error: err.Error()}, http.StatusConflict
		}
		if s.journal != nil && runID != "" {
			sink := &checkpoint.FileSink{
				Path:    s.ckptPath(runID),
				OnWrite: func(int64) { s.metrics.checkpoints.Add(1) },
			}
			if err := m.SetCheckpointing(s.opts.CheckpointEverySteps, sink); err != nil {
				lease.Discard()
				return &runResponse{Outcome: outcomeInternal, Error: err.Error()}, http.StatusInternalServerError
			}
			// The checkpoint only matters if this process dies mid-run; once
			// execute returns, finishRun journals the answer and deletes it.
			// (Release → Reset clears the wiring before the machine is pooled.)
		}
		if err := m.LoadProgram(entry.compiled.Program); err != nil {
			lease.Discard()
			return &runResponse{Outcome: outcomeCompileError, Error: err.Error()}, http.StatusBadRequest
		}
		for _, seg := range entry.compiled.LocalData {
			for g := 0; g < m.Config().Groups; g++ {
				if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
					lease.Discard()
					return &runResponse{Outcome: outcomeBadRequest, Error: err.Error()}, http.StatusBadRequest
				}
			}
		}
	}
	if s.hookLoaded != nil {
		s.hookLoaded(tenantName, req.Name)
	}

	// The run is bounded by the tenant's wall clock and by the drain
	// deadline: when Drain cancels the base context, every in-flight run
	// stops at its next step boundary.
	ctx, cancel := context.WithTimeout(reqCtx, lim.MaxWallClock)
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	start := time.Now()
	var runErr error
	if rep == nil {
		// A clean or thickness-quota stop leaves a fresh machine's report; for
		// any other (context, watchdog, checker, checkpoint, a step quota below
		// the fuel) analysis.Cost reruns the fuel on a fresh machine and decides.
		rep, runErr = analysis.CostOn(ctx, m, entry.compiled, params)
		if runErr != nil && !errors.Is(runErr, machine.ErrThicknessLimit) {
			rep = analysis.Cost(entry.compiled, params)
		}
		entry.memoCost(params, rep)
		if why := predictionOverQuota(rep, lim); why != "" {
			lease.Release()
			return overQuota(why, diags)
		}
	}
	if runErr == nil {
		_, runErr = m.RunContext(ctx)
	}
	wall := time.Since(start)
	stats := m.Stats()
	s.metrics.observe(stats)
	s.metrics.observePrediction(rep, stats, runErr)
	s.metrics.runNanos.Add(wall.Nanoseconds())
	s.metrics.runsMeasured.Add(1)

	if runErr != nil {
		lease.Release()
		outcome, code := mapRunError(runErr, s.baseCtx)
		return &runResponse{
			Outcome:     outcome,
			Error:       runErr.Error(),
			Diagnostics: diags,
			WallClock:   wall.String(),
		}, code
	}

	resp = s.okResponse(m, stats, req, lease.Pooled, wall, diags)
	lease.Release()
	return resp, http.StatusOK
}

// okResponse assembles the successful /run reply from a finished machine.
func (s *Server) okResponse(m *machine.Machine, stats *machine.Stats, req *runRequest, pooled bool, wall time.Duration, diags string) *runResponse {
	resp := &runResponse{
		Outcome:      outcomeOK,
		Diagnostics:  diags, // warnings from the vet gate, if any
		Steps:        stats.Steps,
		Cycles:       stats.Cycles,
		StageCycles:  make(map[string]int64, machine.NumStages),
		CachedProg:   true, // single-flight: every response came through the cache
		PooledMach:   pooled,
		WallClock:    wall.String(),
		SharedReads:  stats.SharedReads,
		SharedWrites: stats.SharedWrites,
	}
	for i := range stats.Stages {
		resp.StageCycles[machine.Stage(i).String()] = stats.Stages[i].Cycles
	}
	for _, o := range m.Outputs() {
		resp.Outputs = append(resp.Outputs, outputJSON{
			Flow: o.Flow, Step: o.Step,
			Values: append([]int64(nil), o.Values...),
			Text:   o.Text,
		})
	}
	for _, p := range req.Peek {
		resp.Memory = append(resp.Memory, peekResult{Addr: p.Addr, Values: m.Shared().Snapshot(p.Addr, p.N)})
	}
	return resp
}

// mapRunError translates the machine's error taxonomy into an outcome and
// HTTP status: quota violations are the tenant's fault (403), deadline and
// client cancellation are 408, drain cancellation is 503, everything else
// is a program fault (409).
func mapRunError(err error, baseCtx context.Context) (string, int) {
	switch {
	case errors.Is(err, machine.ErrMaxSteps) || errors.Is(err, machine.ErrThicknessLimit):
		return outcomeQuota, http.StatusForbidden
	case errors.Is(err, machine.ErrCanceled):
		if baseCtx.Err() != nil {
			return outcomeDraining, http.StatusServiceUnavailable
		}
		return outcomeDeadline, http.StatusRequestTimeout
	default:
		// ErrDeadlock, ErrDisciplineViolation and plain program faults.
		return outcomeRuntimeFault, http.StatusConflict
	}
}

// retryAfterSecs derives the back-off hint from the current backlog and the
// recent mean run time: with Q requests queued, R running and C slots, a new
// arrival waits roughly (Q+R+1)·mean/C seconds for a slot. The hint is
// monotone in the backlog, floored at 1s and capped at 60s; before any run
// has finished, a conservative default mean is used.
func (s *Server) retryAfterSecs() int {
	mean := 500 * time.Millisecond
	if n := s.metrics.runsMeasured.Load(); n > 0 {
		mean = time.Duration(s.metrics.runNanos.Load() / n)
		if mean < time.Millisecond {
			mean = time.Millisecond
		}
	}
	backlog := s.queued.Load() + s.running.Load() + 1
	wait := time.Duration(backlog) * mean / time.Duration(s.opts.MaxConcurrent)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
}

func (s *Server) reject(w http.ResponseWriter, status int, outcome, msg, tenant string) {
	s.metrics.count(outcome)
	writeJSON(w, status, &runResponse{Outcome: outcome, Error: msg, Tenant: tenant})
}

func (s *Server) limitsFor(tenant string) Limits {
	if l, ok := s.opts.Tenants[tenant]; ok {
		return l.withDefaults(s.opts.DefaultLimits)
	}
	return s.opts.DefaultLimits
}

func (s *Server) tenant(name string) *tenantState {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{}
		s.tenants[name] = t
	}
	return t
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
