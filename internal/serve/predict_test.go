package serve

import (
	"strings"
	"testing"
	"time"
)

// TestPredictiveAdmissionBeforePooling is the admission-soundness gate: a
// job whose predicted cost provably exceeds the tenant quota must bounce
// with 412 before any machine is built or pooled, and the outcome must be
// counted under its own metric.
func TestPredictiveAdmissionBeforePooling(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Tenants: map[string]Limits{"caged": cagedLimits()},
	})

	status, _, resp := post(t, ts, "caged", runRequest{Source: thickSrc})
	if status != 412 || resp.Outcome != outcomePredictedQuota {
		t.Fatalf("status %d outcome %q (%s), want 412 %q",
			status, resp.Outcome, resp.Error, outcomePredictedQuota)
	}
	m := s.Metrics()
	if m.Pool.Hits != 0 || m.Pool.Misses != 0 || m.Pool.Idle != 0 {
		t.Fatalf("a machine was pooled for a predicted-over-quota job: %+v", m.Pool)
	}
	if m.Outcomes[outcomePredictedQuota] != 1 || m.Prediction.RejectedOverQuota != 1 {
		t.Fatalf("rejection not counted: %+v / %+v", m.Outcomes, m.Prediction)
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
