// Package chaos is the engine's differential lattice (lattice_test.go): every
// program of one list, on every variant it runs on, under a table of engine
// configurations and lifecycles, must match the serial per-lane interpreter
// exactly — no engine mechanism may be observable at all. FuzzRestore holds
// Restore to untrusted bytes.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
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

// compileCorpus compiles a corpus program and returns its reference: the
// values its "// EXPECT:" line lists, which every shape that prints as
// single-instruction does must print in order (relate holds the per-thread
// variants to those), unless its variant lacks a capability and refused the
// program, as newCell holds it to.
func compileCorpus(tb testing.TB, file string) (*codegen.Compiled, func(*machine.Machine) error) {
	tb.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		tb.Fatal(err)
	}
	_, line, ok := strings.Cut(string(src), "// EXPECT:")
	if !ok {
		tb.Fatalf("%s has no // EXPECT: line", file)
	}
	line, _, _ = strings.Cut(line, "\n")
	var want []int64
	for _, f := range strings.Fields(line) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			tb.Fatalf("%s: bad EXPECT value %q", file, f)
		}
		want = append(want, v)
	}
	return compileSrc(tb, file, string(src)), func(m *machine.Machine) error {
		kind := m.Config().Variant
		if kind == variant.SingleOperation || kind == variant.ConfigurableSingleOperation || m.Err() != nil && !fullCapability(kind) {
			return nil
		}
		if got := printed(m); !slices.Equal(got, want) {
			return fmt.Errorf("printed %v, EXPECT %v", got, want)
		}
		return nil
	}
}

// compileSrc compiles src as tcfserve's vet gate does, which records the
// analyzer's thickness ceiling (codegen.Compiled.ThickCeiling) that newCell
// holds the oracle to.
func compileSrc(tb testing.TB, name, src string) *codegen.Compiled {
	tb.Helper()
	ds, c, err := analysis.AnalyzeAndCompile(name, src, analysis.Options{})
	if c == nil {
		tb.Fatalf("compile %s: %v %v", name, err, ds)
	}
	return c
}
