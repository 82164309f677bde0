package serve

import (
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// TestPanicRecoveryDiscardsLease: the serve layer recovers a mid-run panic
// by discarding the poisoned machine, never pooling it; the runs after it
// succeed, and the panic path leaks no goroutines. That a machine Reset after
// a panic would run as a fresh one is the lattice's panic row
// (internal/chaos).
func TestPanicRecoveryDiscardsLease(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.hookLoaded = func(tenant, name string) {
		if name == "bomb" {
			panic("injected test panic")
		}
	}
	// Warm-up, then capture the goroutine baseline the panic path must
	// settle back to.
	post(t, ts, "", runRequest{Source: validSrc})
	baseline := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		status, _, resp := post(t, ts, "", runRequest{Name: "bomb", Source: ckptSrc})
		if status != http.StatusInternalServerError || resp.Outcome != outcomePanic {
			t.Fatalf("panic %d: %d %q", i, status, resp.Outcome)
		}
		status, _, resp = post(t, ts, "", runRequest{Source: ckptSrc})
		if status != http.StatusOK {
			t.Fatalf("run after panic %d: %d %q (%s)", i, status, resp.Outcome, resp.Error)
		}
	}
	if d := s.Metrics().Pool.Discards; d != 3 {
		t.Fatalf("pool discards = %d, want 3 (one per panic)", d)
	}
	settleGoroutines(t, baseline)
}

// TestConcurrentBadSourceSingleCompile: many concurrent requests for the
// same broken program share ONE compile — the failure is memoized exactly
// like a success — and the pile-up leaves no goroutines behind. The tenant
// admits all n at once: what is tested is the single flight, not the
// tenant's cap on runs in flight.
func TestConcurrentBadSourceSingleCompile(t *testing.T) {
	const n = 16
	s, ts := newTestServer(t, Options{MaxConcurrent: 8, MaxQueue: 64, QueueWait: 0,
		DefaultLimits: Limits{MaxInFlight: n}})

	// Warm-up and baselines.
	post(t, ts, "", runRequest{Source: validSrc})
	baseline := runtime.NumGoroutine()
	c0 := s.Metrics().Cache

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, resp := post(t, ts, "", runRequest{Source: parseBadSrc})
			if status != http.StatusBadRequest || resp.Outcome != outcomeCompileError {
				t.Errorf("bad source: %d %q", status, resp.Outcome)
			}
			if resp.Diagnostics == "" {
				t.Error("bad source: no diagnostics")
			}
		}()
	}
	wg.Wait()

	c1 := s.Metrics().Cache
	if misses := c1.Misses - c0.Misses; misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (single-flight broke)", misses)
	}
	if hits := c1.Hits - c0.Hits; hits != n-1 {
		t.Fatalf("cache hits = %d, want %d", hits, n-1)
	}

	// A second wave answers purely from the memoized failure.
	for i := 0; i < 4; i++ {
		if status, _, _ := post(t, ts, "", runRequest{Source: parseBadSrc}); status != http.StatusBadRequest {
			t.Fatalf("memoized failure wave: %d", status)
		}
	}
	if misses := s.Metrics().Cache.Misses - c0.Misses; misses != 1 {
		t.Fatalf("second wave recompiled: %d misses", misses)
	}
	// Drop the keep-alive connections the concurrent wave opened before
	// checking for leaks; their read loops are client-side state, not ours.
	ts.Client().CloseIdleConnections()
	settleGoroutines(t, baseline)
}
