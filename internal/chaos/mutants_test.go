package chaos

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var runMutants = flag.Bool("mutants", false,
	"apply each testdata/mutants record with go test -overlay and require its named test to fail (make mutants)")

// A mutant is one seeded bug of the mutation ledger (DESIGN.md §5), read from
// testdata/mutants/NN.txt, NN the mutation's number. The file is a header of
// "key: value" lines — why (one line), file (the mutated file, from the module
// root), pkg (the package whose tests kill it, from the module root) and run
// (the -run regexp that must fail there) — and then one or more hunks: a line
// "--- old", the exact whole lines to replace, a line "+++ new" and the lines
// to put in their place, up to the next "--- old" or the end of the file.
type mutant struct {
	name, why, file, pkg, run string
	hunks                     []hunk
}

type hunk struct{ old, new string }

// parseMutant reads one record; every error names it.
func parseMutant(name, text string) (mutant, error) {
	m := mutant{name: name}
	fail := func(format string, a ...any) (mutant, error) {
		return mutant{}, fmt.Errorf("mutant %s: %s", name, fmt.Sprintf(format, a...))
	}
	keys := []string{"why", "file", "pkg", "run"}
	header := map[string]*string{"why": &m.why, "file": &m.file, "pkg": &m.pkg, "run": &m.run}
	var h *hunk      // the hunk being read
	var into *string // its old or its new text
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case line == "--- old" || line == "+++ new":
			if (line == "+++ new") != (h != nil && into == &h.old) {
				return fail("line %d: %s out of order: each hunk is --- old, its lines, +++ new, its lines", i+1, line)
			}
			if line == "+++ new" {
				into = &h.new
				continue
			}
			m.hunks = append(m.hunks, hunk{})
			h = &m.hunks[len(m.hunks)-1]
			into = &h.old
		case into != nil:
			*into += line + "\n"
		default:
			key, value, _ := strings.Cut(line, ": ")
			p := header[key]
			if p == nil {
				return fail("line %d: %q is neither a header (%s) nor in a hunk", i+1, line, strings.Join(keys, ", "))
			}
			*p = strings.TrimSpace(value)
		}
	}
	if h != nil && into == &h.old {
		return fail("the last hunk has no +++ new")
	}
	for _, key := range keys {
		if *header[key] == "" {
			return fail("no %s", key)
		}
	}
	if len(m.hunks) == 0 {
		return fail("no hunk")
	}
	for k, h := range m.hunks {
		if h.old == "" {
			return fail("hunk %d: empty old text", k+1)
		}
		if h.old == h.new {
			return fail("hunk %d: new text equals old", k+1)
		}
	}
	if _, err := regexp.Compile(m.run); err != nil {
		return fail("run: %v", err)
	}
	return m, nil
}

// apply checks the record against the module at root — its package is a
// directory of Go files, each hunk's old text occurs exactly once in the file
// as whole lines — and returns the mutated file.
func (m mutant) apply(root string) ([]byte, error) {
	if gos, _ := filepath.Glob(filepath.Join(root, m.pkg, "*.go")); len(gos) == 0 {
		return nil, fmt.Errorf("mutant %s: pkg %s is no package directory of the module", m.name, m.pkg)
	}
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		return nil, fmt.Errorf("mutant %s: %v", m.name, err)
	}
	text := string(src)
	for k, h := range m.hunks {
		at := lineStarts(text, h.old)
		if len(at) != 1 {
			return nil, fmt.Errorf("mutant %s: hunk %d: old text occurs %d times in %s, want once", m.name, k+1, len(at), m.file)
		}
		text = text[:at[0]] + h.new + text[at[0]+len(h.old):]
	}
	return []byte(text), nil
}

// lineStarts returns every offset at a line start where old occurs in text,
// overlapping ones included.
func lineStarts(text, old string) []int {
	var at []int
	for i := 0; ; i++ {
		j := strings.Index(text[i:], old)
		if j < 0 {
			return at
		}
		if i += j; i == 0 || text[i-1] == '\n' {
			at = append(at, i)
		}
	}
}

// moduleRoot is the directory holding go.mod, two levels above this package.
const moduleRoot = "../.."

func loadMutants(t *testing.T) []mutant {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no mutant records: %v", err)
	}
	var ms []mutant
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseMutant(strings.TrimSuffix(filepath.Base(f), ".txt"), string(text))
		if err != nil {
			t.Error(err)
			continue
		}
		ms = append(ms, m)
	}
	return ms
}

// TestMutantRecords holds every record to the code it mutates: a refactor
// that moves a mutated line must update or retire its record.
func TestMutantRecords(t *testing.T) {
	for _, m := range loadMutants(t) {
		if _, err := m.apply(moduleRoot); err != nil {
			t.Error(err)
		}
	}
}

func TestMutantRecordRejects(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte("package p\n\nvar a = 1\nvar b = 2\nvar b = 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const head = "why: w\nfile: p/p.go\npkg: p\nrun: TestX\n"
	for _, tc := range []struct{ name, text, want string }{
		{"no-run", "why: w\nfile: p/p.go\npkg: p\n--- old\nvar a = 1\n+++ new\nvar a = 0\n", "no run"},
		{"no-hunk", head, "no hunk"},
		{"no-new", head + "--- old\nvar a = 1\n", "no +++ new"},
		{"old-old", head + "--- old\nvar a = 1\n--- old\nvar b = 2\n+++ new\n", "out of order"},
		{"new-first", head + "+++ new\nvar a = 0\n", "out of order"},
		{"stray", head + "junk\n--- old\nvar a = 1\n+++ new\nvar a = 0\n", "neither a header"},
		{"same", head + "--- old\nvar a = 1\n+++ new\nvar a = 1\n", "equals old"},
		{"absent", head + "--- old\nvar c = 3\n+++ new\nvar c = 0\n", "occurs 0 times"},
		{"twice", head + "--- old\nvar b = 2\n+++ new\nvar b = 0\n", "occurs 2 times"},
		{"mid-line", head + "--- old\na = 1\n+++ new\na = 0\n", "occurs 0 times"},
		{"no-pkg", strings.Replace(head, "pkg: p", "pkg: q", 1) + "--- old\nvar a = 1\n+++ new\nvar a = 0\n", "no package directory"},
		{"bad-run", strings.Replace(head, "TestX", "Test(", 1) + "--- old\nvar a = 1\n+++ new\nvar a = 0\n", "run:"},
	} {
		m, err := parseMutant(tc.name, tc.text)
		if err == nil {
			_, err = m.apply(root)
		}
		if err == nil || !strings.Contains(err.Error(), "mutant "+tc.name+":") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming it with %q", tc.name, err, tc.want)
		}
	}
	m, err := parseMutant("ok", head+"--- old\nvar a = 1\n+++ new\n--- old\nvar b = 2\nvar b = 2\n+++ new\nvar b = 3\n")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.apply(root)
	if want := "package p\n\nvar b = 3\n"; err != nil || string(got) != want {
		t.Errorf("apply = %q, %v; want %q", got, err, want)
	}
}

// TestMutants is the kill run (make mutants): for each record it builds and
// vets the mutated packages with go test -overlay and -run '^$' (a mutant
// that fails to build or vet is an error, not a kill), then runs the record's
// test, which must fail, and logs a kill table.
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("the kill run needs -mutants")
	}
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-4s %-36s %-14s %6s  %s\n", "rec", "file", "verdict", "secs", "test")
	verdicts, records, begin := map[string]int{}, 0, time.Now()
	for _, m := range loadMutants(t) {
		t.Run(m.name, func(t *testing.T) {
			start, verdict := time.Now(), "killed"
			defer func() {
				verdicts[verdict]++
				records++
				fmt.Fprintf(&table, "%-4s %-36s %-14s %6.1f  %s %s\n", m.name, m.file, verdict, time.Since(start).Seconds(), m.pkg, m.run)
			}()
			src, err := m.apply(root)
			if err != nil {
				verdict = "bad record"
				t.Fatal(err)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, m.file): mutated}})
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644)
			}
			if err == nil {
				err = os.WriteFile(mutated, src, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			// The overlay goes in GOFLAGS rather than on the command line, so
			// the test binaries inherit it too: a test that reads the engine's
			// source, as detlint's does, then reads the mutated file.
			goFlags := strings.TrimSpace(os.Getenv("GOFLAGS") + " -overlay=" + filepath.Join(dir, "overlay.json"))
			goTest := func(run string, pkgs ...string) (string, error) {
				cmd := exec.Command("go", append([]string{"test", "-count=1", "-timeout", "3m", "-run", run}, pkgs...)...)
				cmd.Dir = root
				cmd.Env = append(os.Environ(), "GOFLAGS="+goFlags)
				out, err := cmd.CombinedOutput()
				return string(out), err
			}
			// The build also vets the mutated file's own package where the
			// killing test lives elsewhere.
			pkgs := []string{"./" + m.pkg}
			if own := filepath.Dir(m.file); own != m.pkg {
				pkgs = append(pkgs, "./"+own)
			}
			if out, err := goTest("^$", pkgs...); err != nil {
				verdict = "did not build"
				t.Fatalf("%s\n%s", err, out)
			}
			out, err := goTest(m.run, "./"+m.pkg)
			var exit *exec.ExitError
			switch {
			case err == nil:
				verdict = "survived"
				t.Errorf("%s: %s passes with the mutation applied (%s)", m.why, m.run, m.file)
			case !errors.As(err, &exit):
				verdict = "go test failed"
				t.Fatalf("%v\n%s", err, out)
			default:
				t.Logf("killed: %s", firstFailure(out))
			}
		})
	}
	fmt.Fprintf(&table, "%d records: %d killed, %d survived, %d did not build, in %.0f s\n",
		records, verdicts["killed"], verdicts["survived"], verdicts["did not build"], time.Since(begin).Seconds())
	t.Logf("kill table:\n%s", table.String())
}

// firstFailure is the first line of a failing test's output that says why —
// a test's own message or a panic — or the output's first line.
func firstFailure(out string) string {
	lines := strings.Split(out, "\n")
	i := max(0, slices.IndexFunc(lines, func(l string) bool {
		l = strings.TrimSpace(l)
		return strings.HasPrefix(l, "panic:") || strings.Contains(l, "_test.go:")
	}))
	return strings.TrimSpace(lines[i])
}
