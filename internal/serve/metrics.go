package serve

import (
	"sync/atomic"

	"tcfpram/internal/analysis"
	"tcfpram/internal/machine"
)

// metrics holds the server's atomic counters. Outcome counters are indexed
// by the same outcome strings the /run responses carry, so a client and the
// /metrics endpoint always agree on terminology.
type metrics struct {
	admitted atomic.Int64 // requests that acquired a run slot

	ok           atomic.Int64
	shed         atomic.Int64 // load-shed at the admission queue
	tenantBusy   atomic.Int64 // per-tenant concurrency cap
	draining     atomic.Int64 // rejected because the server is draining
	badRequest   atomic.Int64
	tooLarge     atomic.Int64
	vetRejected  atomic.Int64
	compileError atomic.Int64
	quota        atomic.Int64 // MaxSteps / MaxThickness / shared-memory quota
	deadline     atomic.Int64 // wall-clock deadline or client cancel
	runtimeFault atomic.Int64 // deadlock, discipline violation, machine fault
	panics       atomic.Int64 // isolated request panics

	duplicate      atomic.Int64 // request id already in flight (recovery mode)
	internal       atomic.Int64 // server-side failures (journal unavailable, ...)
	predictedQuota atomic.Int64 // rejected at admission by the cost predictor

	// Predicted-vs-actual accounting for the cost analyzer: runs that
	// carried an exact prediction, how many of those matched the measured
	// cycles exactly, and the absolute/total cycle sums behind the mean
	// relative error.
	predictedRuns     atomic.Int64
	predictedExact    atomic.Int64
	predictedCycleErr atomic.Int64 // sum |predicted - measured| cycles
	predictedCycles   atomic.Int64 // sum measured cycles of predicted runs

	steps       atomic.Int64 // machine steps executed, all runs
	cycles      atomic.Int64 // simulated cycles, all runs
	stageCycles [machine.NumStages]atomic.Int64

	// Run-time accounting behind the derived Retry-After hint.
	runNanos     atomic.Int64 // summed wall clock of measured runs
	runsMeasured atomic.Int64

	// Crash-recovery counters (recovery mode only).
	checkpoints atomic.Int64 // machine snapshots written mid-run
	restores    atomic.Int64 // machines restored from a checkpoint file
	recovered   atomic.Int64 // journal-replayed runs finished at startup
	replayed    atomic.Int64 // idempotent answers served from the memo
}

// count records one finished request under its outcome string.
func (m *metrics) count(outcome string) {
	switch outcome {
	case outcomeOK:
		m.ok.Add(1)
	case outcomeShed:
		m.shed.Add(1)
	case outcomeTenantBusy:
		m.tenantBusy.Add(1)
	case outcomeDraining:
		m.draining.Add(1)
	case outcomeBadRequest:
		m.badRequest.Add(1)
	case outcomeTooLarge:
		m.tooLarge.Add(1)
	case outcomeVetRejected:
		m.vetRejected.Add(1)
	case outcomeCompileError:
		m.compileError.Add(1)
	case outcomeQuota:
		m.quota.Add(1)
	case outcomeDeadline:
		m.deadline.Add(1)
	case outcomeRuntimeFault:
		m.runtimeFault.Add(1)
	case outcomePanic:
		m.panics.Add(1)
	case outcomeDuplicate:
		m.duplicate.Add(1)
	case outcomeInternal:
		m.internal.Add(1)
	case outcomePredictedQuota:
		m.predictedQuota.Add(1)
	}
}

// observePrediction folds one finished run's predicted-vs-measured cycle
// error into the counters. Only clean runs with an exact (resolved, no
// predicted abnormal stop) prediction count: an aborted run measures a
// prefix of the program, which the prediction never claimed to match.
func (m *metrics) observePrediction(rep *analysis.CostReport, st *machine.Stats, runErr error) {
	if rep == nil || st == nil || runErr != nil || !rep.Resolved || rep.Note != "" {
		return
	}
	d := rep.Cycles.Min - st.Cycles
	if d < 0 {
		d = -d
	}
	m.predictedRuns.Add(1)
	if d == 0 {
		m.predictedExact.Add(1)
	}
	m.predictedCycleErr.Add(d)
	m.predictedCycles.Add(st.Cycles)
}

// observe folds one run's statistics into the cumulative counters,
// including the Figure 13 per-stage cycle attribution.
func (m *metrics) observe(st *machine.Stats) {
	if st == nil {
		return
	}
	m.steps.Add(st.Steps)
	m.cycles.Add(st.Cycles)
	for i := range st.Stages {
		m.stageCycles[i].Add(st.Stages[i].Cycles)
	}
}

// MetricsSnapshot is the JSON document served by /metrics.
type MetricsSnapshot struct {
	QueueDepth int64 `json:"queue_depth"` // requests waiting for a run slot
	Running    int64 `json:"running"`     // requests holding a run slot
	Draining   bool  `json:"draining"`

	Admitted int64            `json:"admitted"`
	Outcomes map[string]int64 `json:"outcomes"`

	Steps       int64            `json:"steps"`
	Cycles      int64            `json:"cycles"`
	StageCycles map[string]int64 `json:"stage_cycles"`

	Pool       PoolCounters       `json:"pool"`
	Cache      CacheCounters      `json:"cache"`
	Recovery   RecoveryCounters   `json:"recovery"`
	Prediction PredictionCounters `json:"prediction"`
}

// PredictionCounters is the cost-predictor section of /metrics: how often
// predictive admission rejected a job, and how the analyzer's exact
// predictions tracked the measured runs.
type PredictionCounters struct {
	// RejectedOverQuota counts jobs rejected at admission because their
	// predicted cost provably exceeded the tenant quota.
	RejectedOverQuota int64 `json:"rejected_over_quota"`
	// PredictedRuns counts clean runs that carried an exact prediction;
	// ExactRuns of those matched the measured cycle count exactly.
	PredictedRuns int64 `json:"predicted_runs"`
	ExactRuns     int64 `json:"exact_runs"`
	// CycleErrorSum is Σ|predicted − measured| cycles over PredictedRuns;
	// MeasuredCycleSum is the matching Σ measured cycles, so
	// CycleErrorSum/MeasuredCycleSum is the mean relative error. A served
	// run is its prediction's own run or, on a memo hit, a rerun of one
	// deterministic machine: anything but zero is nondeterminism.
	CycleErrorSum    int64 `json:"cycle_error_sum"`
	MeasuredCycleSum int64 `json:"measured_cycle_sum"`
}

// RecoveryCounters is the crash-recovery section of /metrics.
type RecoveryCounters struct {
	// CheckpointsWritten counts mid-run machine snapshots.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	// Restores counts machines rebuilt from a checkpoint file.
	Restores int64 `json:"restores"`
	// RecoveredRuns counts journal-replayed runs finished at startup.
	RecoveredRuns int64 `json:"recovered_runs"`
	// ReplayedResponses counts idempotent answers served for request ids
	// that had already finished.
	ReplayedResponses int64 `json:"replayed_responses"`
}

// Metrics returns a point-in-time snapshot of the server's counters.
func (s *Server) Metrics() MetricsSnapshot {
	m := &s.metrics
	snap := MetricsSnapshot{
		QueueDepth: s.queued.Load(),
		Running:    s.running.Load(),
		Draining:   s.drainFlag.Load(),
		Admitted:   m.admitted.Load(),
		Outcomes: map[string]int64{
			outcomeOK:             m.ok.Load(),
			outcomeShed:           m.shed.Load(),
			outcomeTenantBusy:     m.tenantBusy.Load(),
			outcomeDraining:       m.draining.Load(),
			outcomeBadRequest:     m.badRequest.Load(),
			outcomeTooLarge:       m.tooLarge.Load(),
			outcomeVetRejected:    m.vetRejected.Load(),
			outcomeCompileError:   m.compileError.Load(),
			outcomeQuota:          m.quota.Load(),
			outcomeDeadline:       m.deadline.Load(),
			outcomeRuntimeFault:   m.runtimeFault.Load(),
			outcomePanic:          m.panics.Load(),
			outcomeDuplicate:      m.duplicate.Load(),
			outcomeInternal:       m.internal.Load(),
			outcomePredictedQuota: m.predictedQuota.Load(),
		},
		Steps:       m.steps.Load(),
		Cycles:      m.cycles.Load(),
		StageCycles: make(map[string]int64, machine.NumStages),
		Pool:        s.pool.Counters(),
		Cache:       s.cache.Counters(),
		Recovery: RecoveryCounters{
			CheckpointsWritten: m.checkpoints.Load(),
			Restores:           m.restores.Load(),
			RecoveredRuns:      m.recovered.Load(),
			ReplayedResponses:  m.replayed.Load(),
		},
		Prediction: PredictionCounters{
			RejectedOverQuota: m.predictedQuota.Load(),
			PredictedRuns:     m.predictedRuns.Load(),
			ExactRuns:         m.predictedExact.Load(),
			CycleErrorSum:     m.predictedCycleErr.Load(),
			MeasuredCycleSum:  m.predictedCycles.Load(),
		},
	}
	for i := range m.stageCycles {
		snap.StageCycles[machine.Stage(i).String()] = m.stageCycles[i].Load()
	}
	return snap
}
