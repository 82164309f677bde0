package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzSourceBytes is the fuzz tenant's source cap: small, so an oversize body
// is cheap to build and to reject.
const fuzzSourceBytes = 2048

// documentedStatus is every status the package comment gives /run on a
// server that is not draining.
var documentedStatus = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusForbidden:             true,
	http.StatusRequestTimeout:        true,
	http.StatusConflict:              true,
	http.StatusPreconditionFailed:    true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
}

// FuzzRunBody posts arbitrary bytes as a /run body for a tenant under tight
// step, thickness, memory and wall-clock quotas. Every answer must be a
// documented status carrying the JSON envelope, never a server fault (500,
// outcome internal or panic), and /healthz must still answer afterwards.
func FuzzRunBody(f *testing.F) {
	const src = `shared int c[8] @ 300; func main() { #8; c[tid] = tid * 3; print(radd(c[tid])); }`
	valid := fmt.Sprintf(`{"source":%q,"peek":[{"addr":300,"n":8}]`, src)
	for _, seed := range []string{
		valid + "}",
		valid + `,"backend":"interp","sched":"dataflow"}`,
		valid[:len(valid)/2],
		fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 3*fuzzSourceBytes)),
		fmt.Sprintf(`{"source":%q,"peek":[{"addr":-8,"n":8},{"addr":300,"n":-1}]}`, src),
		fmt.Sprintf(`{"source":%q,"peek":[{"addr":9223372036854775807,"n":1}]}`, src),
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{
		MaxGroups: 4, MaxProcs: 4, CacheEntries: 32,
		Tenants: map[string]Limits{"fuzz": {
			MaxSteps: 400, MaxThickness: 16, MaxSharedWords: 1 << 12,
			MaxWallClock: 200 * time.Millisecond, MaxSourceBytes: fuzzSourceBytes,
		}},
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/run", bytes.NewReader(body))
		req.Header.Set("X-Tenant", "fuzz")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp runResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d, body %q is no response envelope: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if !documentedStatus[rec.Code] || resp.Outcome == "" || resp.Outcome == outcomeInternal || resp.Outcome == outcomePanic {
			t.Fatalf("status %d outcome %q (%s) for body %q", rec.Code, resp.Outcome, resp.Error, body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz answers %d after body %q", rec.Code, body)
		}
	})
}
