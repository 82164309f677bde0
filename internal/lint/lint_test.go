package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// writePkg lays out a throwaway package directory from name→source pairs.
func writePkg(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// std is one importer for the tests whose throwaway packages import the
// standard library: it type-checks each standard package from source once
// for all of them, not once per test. Such a package has no go.mod above it,
// so nothing else resolves through the importer.
var std struct {
	sync.Mutex
	fset *token.FileSet
	imp  *lenientImporter
}

// lintStd is Package for a throwaway package, through std.
func lintStd(t *testing.T, dir string) []Finding {
	t.Helper()
	std.Lock()
	defer std.Unlock()
	if std.imp == nil {
		std.fset = token.NewFileSet()
		std.imp = newLenientImporter(std.fset, dir)
	}
	fs, err := lintDir(std.fset, std.imp, dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func rules(fs []Finding) []string {
	var rs []string
	for _, f := range fs {
		rs = append(rs, f.Rule)
	}
	return rs
}

func TestRangeOverMap(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": `package a

func sum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Rule != "range-over-map" {
		t.Fatalf("findings %v, want one range-over-map", fs)
	}
	if fs[0].Pos.Line != 5 {
		t.Fatalf("finding at line %d, want 5", fs[0].Pos.Line)
	}
	if !strings.Contains(fs[0].Msg, "m (map[string]int)") {
		t.Fatalf("message %q does not name the ranged map", fs[0].Msg)
	}
}

// Keyless `for range m` observes only len(m), never the order, so it is
// deterministic and must not be flagged.
func TestKeylessMapRangeAllowed(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": `package a

func count(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("keyless map range flagged: %v", fs)
	}
}

func TestSliceAndChannelRangesAllowed(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": `package a

func f(xs []int, ch chan int, s string) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	for x := range ch {
		t += x
	}
	for _, r := range s {
		t += int(r)
	}
	for i := range 4 {
		t += i
	}
	return t
}
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("non-map ranges flagged: %v", fs)
	}
}

func TestTimeNow(t *testing.T) {
	t.Parallel() // type-checks standard packages from source
	dir := writePkg(t, map[string]string{"a.go": `package a

import "time"

func stamp() (int64, time.Duration) {
	start := time.Now()
	return start.UnixNano(), time.Since(start)
}
`})
	fs := lintStd(t, dir)
	got := rules(fs)
	if len(got) != 2 || got[0] != "time-now" || got[1] != "time-now" {
		t.Fatalf("findings %v, want two time-now", fs)
	}
}

// A local variable named time shadows the package; selecting on it is fine.
func TestTimeShadowNotFlagged(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": `package a

type clock struct{ Now func() int64 }

func f() int64 {
	time := clock{Now: func() int64 { return 0 }}
	return time.Now()
}
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("shadowed time flagged: %v", fs)
	}
}

func TestMathRandImport(t *testing.T) {
	t.Parallel() // type-checks standard packages from source
	dir := writePkg(t, map[string]string{"a.go": `package a

import "math/rand"

func f() int { return rand.Int() }
`})
	if fs := lintStd(t, dir); len(fs) != 1 || fs[0].Rule != "math-rand" {
		t.Fatalf("findings %v, want one math-rand", fs)
	}
}

func TestIgnoreDirective(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": `package a

func f(m map[int]int) int {
	s := 0
	//detlint:ignore addition is commutative
	for _, v := range m {
		s += v
	}
	for _, v := range m { //detlint:ignore same line form
		s += v
	}
	for _, v := range m {
		s += v
	}
	return s
}
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Pos.Line != 12 {
		t.Fatalf("findings %v, want only the unsuppressed range at line 12", fs)
	}
}

// Test files assert on results rather than producing them, so they are out
// of scope even when they contain banned constructs.
func TestTestFilesSkipped(t *testing.T) {
	dir := writePkg(t, map[string]string{
		"a.go": "package a\n",
		"a_test.go": `package a

import "time"

var when = time.Now()
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("test file linted: %v", fs)
	}
}

// Imports the lenient importer cannot resolve must degrade to silence, not
// errors or false positives.
func TestUnresolvableImportStaysQuiet(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": `package a

import "example.com/nonexistent/pkg"

func f() {
	for _, v := range pkg.Table {
		_ = v
	}
}
`})
	fs, err := Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("unresolvable-import range flagged: %v", fs)
	}
}

// TestOverlayFromGOFLAGS: a file the go command's -overlay replaces is linted
// as its replacement, so a mutated engine file handed over in GOFLAGS fails
// the gate the way the same edit on disk would.
func TestOverlayFromGOFLAGS(t *testing.T) {
	dir := writePkg(t, map[string]string{"a.go": "package a\n\nfunc f() int { return 1 }\n"})
	abs, err := filepath.Abs(filepath.Join(dir, "a.go"))
	if err != nil {
		t.Fatal(err)
	}
	over := t.TempDir()
	mutated := filepath.Join(over, "a.go")
	if err := os.WriteFile(mutated, []byte("package a\n\nimport \"time\"\n\nfunc f() int { return time.Now().Nanosecond() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(over, "overlay.json"), js, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("GOFLAGS", "-mod=mod -overlay="+filepath.Join(over, "overlay.json"))
	fs := lintStd(t, dir)
	if got := rules(fs); len(got) != 1 || got[0] != "time-now" {
		t.Fatalf("findings %v, want the replacement's time-now", fs)
	}
	if fs[0].Pos.Filename != filepath.Join(dir, "a.go") {
		t.Fatalf("finding in %s, want the replaced file's own path", fs[0].Pos.Filename)
	}
}

// TestPackagesMatchesPackage holds Packages, whose directories of one module
// share a file set and an importer, to Package, which builds both afresh for
// each directory: over the default set and the fixtures, whose last finding
// needs a sibling package's types, Packages finds what Package finds in the
// fixtures alone. (The default set finds nothing, which cmd/detlint's
// TestDefaultSetClean holds; Package would type-check the standard library
// from source once for each of its directories.)
func TestPackagesMatchesPackage(t *testing.T) {
	t.Parallel() // type-checks standard packages from source
	var dirs []string
	for _, d := range Deterministic {
		dirs = append(dirs, filepath.Join("..", "..", d))
	}
	fixtures := []string{filepath.Join("testdata", "maps"), filepath.Join("testdata", "ranges")}
	dirs = append(dirs, fixtures...)
	var want []Finding
	for _, d := range fixtures {
		fs, err := Package(d)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fs...)
	}
	got, err := Packages(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Packages:\n%v\nPackage by package:\n%v", got, want)
	}
	if r := rules(got); !slices.Equal(r, []string{"math-rand", "time-now", "range-over-map", "range-over-map"}) {
		t.Fatalf("fixture findings %v", got)
	}
}
