// Package chaos is the engine's differential lattice (lattice_test.go): every
// program of one list, on every variant it runs on, under a table of engine
// configurations and lifecycles, with and without recoverable fault plans,
// must match the serial per-lane interpreter exactly — faults may only cost
// cycles, and no engine mechanism may be observable at all. FuzzRestore holds
// Restore to untrusted bytes.
package chaos

import (
	"os"
	"path/filepath"
	"testing"

	"tcfpram/internal/codegen"
)

// corpusFiles returns every tcf-e corpus program, sorted.
func corpusFiles(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "codegen", "testdata", "*.te"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) < 10 {
		tb.Fatalf("corpus too small: %d programs", len(files))
	}
	return files
}

func compile(tb testing.TB, file string) *codegen.Compiled {
	tb.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		tb.Fatal(err)
	}
	return compileSrc(tb, file, string(src))
}

func compileSrc(tb testing.TB, name, src string) *codegen.Compiled {
	tb.Helper()
	c, err := codegen.CompileSource(name, src)
	if err != nil {
		tb.Fatalf("compile %s: %v", name, err)
	}
	return c
}
