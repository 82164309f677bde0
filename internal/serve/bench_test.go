package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// coldBodies returns n /run bodies of internal/lang/testdata/cold.te, each
// under a first line of its own: every one is a compile-cache miss.
func coldBodies(tb testing.TB, n int) [][]byte {
	src, err := os.ReadFile(filepath.Join("..", "lang", "testdata", "cold.te"))
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		if bodies[i], err = json.Marshal(runRequest{Source: fmt.Sprintf("// cold %d\n%s", i, src)}); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// serveBody sends body to /run through h and wants a 200.
func serveBody(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkServeCold is one compile-cache miss through the handler: every
// iteration sends internal/lang/testdata/cold.te to /run under a first
// line not sent before, so the request pays the whole cold path — JSON
// decode, vet, compile, the fuelled run and its continuation, the answer —
// and nothing of the HTTP transport. Request bodies are built before the
// timer starts. retained-KB/entry is the live heap a cache entry of the
// program holds: the heap after a collection, less the heap once the
// server's cache is dropped, per entry.
func BenchmarkServeCold(b *testing.B) {
	bodies := coldBodies(b, b.N)
	s := New(Options{})
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		serveBody(b, h, body)
	}
	b.StopTimer()
	entries := s.cache.Counters().Entries
	withCache := liveHeap()
	s.cache = NewProgramCache(0)
	b.ReportMetric(float64(withCache-liveHeap())/1024/float64(entries), "retained-KB/entry")
}

// liveHeap is the heap left after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Allocation budget of one cold.te request through the handler on a warm
// server: a compile-cache miss whose machine comes from the pool. It took
// 531 KB while every load compiled a fused table of its own and the source
// was copied to be hashed, and 418 KB while an instruction was 72 bytes; it
// now takes about 360 KB, and the budget is a tenth above that.
const coldRequestBytesBudget = 396 << 10

// TestColdRequestAllocBudget is the served counterpart of
// analysis.TestFrontendAllocBudget. Under the race detector, whose sync.Pool
// drops items at random, the figure moves by a tenth between runs; it is
// logged and not held to the budget.
func TestColdRequestAllocBudget(t *testing.T) {
	const runs = 20
	bodies := coldBodies(t, runs+2)
	h := New(Options{}).Handler()
	serveBody(t, h, bodies[runs+1]) // builds the pooled machine
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// AllocsPerRun makes one more, warming, run than it counts.
	allocs := int64(testing.AllocsPerRun(runs, func() {
		serveBody(t, h, bodies[i])
		i++
	}))
	runtime.ReadMemStats(&after)
	bytes := int64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("cold request (cold.te): %d allocations, %d KB", allocs, bytes>>10)
	// Both counts are this process's allocations, which no load changes;
	// the bytes are skipped under -race, whose instrumentation allocates.
	bi, _ := debug.ReadBuildInfo()
	race := bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
	if bytes > coldRequestBytesBudget && !race {
		t.Errorf("a cold request allocates %d bytes, budget %d", bytes, coldRequestBytesBudget)
	}
}
