package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkServeCold is one compile-cache miss through the handler: every
// iteration sends internal/lang/testdata/cold.te to /run under a first
// line not sent before, so the request pays the whole cold path — JSON
// decode, vet, compile, the fuelled run and its continuation, the answer —
// and nothing of the HTTP transport. Request bodies are built before the
// timer starts.
func BenchmarkServeCold(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("..", "lang", "testdata", "cold.te"))
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		if bodies[i], err = json.Marshal(runRequest{Source: fmt.Sprintf("// cold %d\n%s", i, src)}); err != nil {
			b.Fatal(err)
		}
	}
	h := New(Options{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
