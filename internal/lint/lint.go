// Package lint implements detlint, a determinism linter for the engine
// packages. The machine simulator's contract is bit-identical replay:
// identical programs and configs must produce identical Stats, outputs and
// snapshots across runs and machine reuse. Three Go constructs break that
// silently, so they are banned from the deterministic packages:
//
//   - ranging over a map with iteration variables (Go randomizes map
//     iteration order per run);
//   - time.Now / time.Since (wall-clock values leaking into results);
//   - importing math/rand or math/rand/v2 (unseeded, or seeded-by-time,
//     process-global randomness).
//
// A finding is suppressed by a "//detlint:ignore <reason>" comment on the
// same line or the line directly above — for map ranges whose body is
// provably order-insensitive (commutative folds), with the reason recorded
// in the source.
//
// The linter is stdlib-only (go/parser + go/types): same-package types
// resolve fully, stdlib and module-internal imports resolve from source,
// and anything else degrades to an empty package — expressions whose type
// then stays unknown are skipped, never reported. That keeps the tool free
// of golang.org/x/tools while staying precise on every map the engine
// actually iterates, including ones returned across package boundaries
// (e.g. multiop.Resolve's finals map).
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one determinism violation.
type Finding struct {
	Pos  token.Position
	Rule string // "range-over-map", "time-now", "math-rand"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Rule)
}

// ignoreDirective marks a line whose findings are suppressed.
const ignoreDirective = "//detlint:ignore"

// Deterministic is the engine set, relative to the module root, whose
// outputs must replay bit-identically; everything the serve layer hashes,
// journals or diffs flows through these.
var Deterministic = []string{
	"internal/machine",
	"internal/mem",
	"internal/fuse",
	"internal/multiop",
	"internal/pipeline",
	"internal/tcf",
	"internal/isa",
}

// Package lints every non-test .go file in dir and returns the findings in
// file/position order. Test files are exempt: they assert on results, they
// do not produce them.
func Package(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	return lintDir(fset, newLenientImporter(fset, dir), dir)
}

// Packages lints several directories, concatenating the findings. The
// directories of one module share a file set and an importer, so the
// standard library and the module's own packages are type-checked once, not
// once per directory.
func Packages(dirs []string) ([]Finding, error) {
	fset := token.NewFileSet()
	importers := map[string]*lenientImporter{} // by module root
	var all []Finding
	for _, dir := range dirs {
		_, root := findModule(dir)
		imp := importers[root]
		if imp == nil {
			imp = newLenientImporter(fset, dir)
			importers[root] = imp
		}
		fs, err := lintDir(fset, imp, dir)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// lintDir lints the package in dir, resolving its imports through imp.
func lintDir(fset *token.FileSet, imp types.Importer, dir string) ([]Finding, error) {
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		// Unresolvable imports make some expressions untypeable; those are
		// skipped below, so type errors must not abort the lint.
		Error: func(error) {},
	}
	// Check can also fail wholesale; the partial info is still usable.
	_, _ = conf.Check(dir, fset, files, info)

	var findings []Finding
	for _, f := range files {
		ignored := ignoredLines(fset, f)
		findings = append(findings, lintFile(fset, f, info, ignored)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, nil
}

// ignoredLines collects the lines covered by detlint:ignore directives: the
// directive's own line and the one below it.
func ignoredLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, ignoreDirective) {
				line := fset.Position(c.Pos()).Line
				lines[line] = true
				lines[line+1] = true
			}
		}
	}
	return lines
}

func lintFile(fset *token.FileSet, f *ast.File, info *types.Info, ignored map[int]bool) []Finding {
	var findings []Finding
	report := func(pos token.Pos, rule, format string, args ...any) {
		p := fset.Position(pos)
		if ignored[p.Line] {
			return
		}
		findings = append(findings, Finding{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}

	for _, imp := range f.Imports {
		switch strings.Trim(imp.Path.Value, `"`) {
		case "math/rand", "math/rand/v2":
			report(imp.Pos(), "math-rand",
				"import of %s in a deterministic package: map-seeded or global randomness breaks bit-identical replay", imp.Path.Value)
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// `for range m` observes no iteration order; anything binding a
			// key or value does.
			if n.Key == nil && n.Value == nil {
				return true
			}
			tv, ok := info.Types[n.X]
			if !ok || tv.Type == nil {
				return true // type unknown (foreign import): stay quiet
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				report(n.Pos(), "range-over-map",
					"range over map %s: iteration order is randomized per run; iterate sorted keys or prove the body commutative (//detlint:ignore <why>)",
					typeLabel(n.X, tv.Type))
			}
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			if !identIsPackage(id, "time", info) {
				return true
			}
			switch n.Sel.Name {
			case "Now", "Since", "Until":
				report(n.Pos(), "time-now",
					"time.%s in a deterministic package: wall-clock values must not reach simulated state", n.Sel.Name)
			}
		}
		return true
	})
	return findings
}

// identIsPackage reports whether id names the import of path. Type info
// settles shadowing when available; otherwise the import table decides.
func identIsPackage(id *ast.Ident, path string, info *types.Info) bool {
	if obj, ok := info.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		return ok && pn.Imported().Path() == path
	}
	return id.Name == filepath.Base(path)
}

func typeLabel(x ast.Expr, t types.Type) string {
	if id, ok := x.(*ast.Ident); ok {
		return fmt.Sprintf("%s (%s)", id.Name, t)
	}
	return t.String()
}

// parseDir parses the non-test .go files of one package directory as the go
// command builds them: a file that the -overlay named in GOFLAGS replaces is
// read from its replacement.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	replace, err := overlay()
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		var src any // nil: the parser reads path
		if abs, _ := filepath.Abs(path); replace[abs] != "" {
			if src, err = os.ReadFile(replace[abs]); err != nil {
				return nil, err
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// overlay returns the replacements, keyed by absolute path, of the go
// command's -overlay when GOFLAGS sets one, as the mutation ledger's kill
// run does to hand a mutated file to the tests it runs.
func overlay() (map[string]string, error) {
	for _, flag := range strings.Fields(os.Getenv("GOFLAGS")) {
		if path, ok := strings.CutPrefix(strings.TrimLeft(flag, "-"), "overlay="); ok {
			var o struct{ Replace map[string]string }
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &o)
			}
			if err != nil {
				return nil, fmt.Errorf("GOFLAGS overlay: %w", err)
			}
			return o.Replace, nil
		}
	}
	return nil, nil
}

// lenientImporter resolves stdlib packages and module-internal packages
// from source, and fabricates empty packages for everything else (external
// modules, cgo). Expressions depending on a fabricated package simply stay
// untyped. Resolving module siblings matters: maps crossing a package
// boundary (multiop.Resolve's finals) would otherwise hide from the
// range-over-map rule.
type lenientImporter struct {
	fset    *token.FileSet
	src     types.Importer
	cache   map[string]*types.Package
	modPath string // module path from go.mod, "" if none found
	modRoot string // directory holding go.mod
}

func newLenientImporter(fset *token.FileSet, dir string) *lenientImporter {
	l := &lenientImporter{
		fset:  fset,
		src:   importer.ForCompiler(fset, "source", nil),
		cache: map[string]*types.Package{},
	}
	l.modPath, l.modRoot = findModule(dir)
	return l
}

// findModule walks up from dir to the enclosing go.mod and returns its
// module path and root directory.
func findModule(dir string) (path, root string) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), d
				}
			}
			return "", ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

func (l *lenientImporter) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if p := l.importModuleLocal(path); p != nil {
		l.cache[path] = p
		return p, nil
	}
	if l.src != nil && isStdlibShaped(path) {
		if p, err := l.src.Import(path); err == nil {
			l.cache[path] = p
			return p, nil
		}
	}
	p := types.NewPackage(path, filepath.Base(path))
	p.MarkComplete()
	l.cache[path] = p
	return p, nil
}

// importModuleLocal type-checks a module-internal import path from source,
// reusing this importer for its own imports. Go forbids import cycles, so
// the recursion terminates; any failure returns nil and the caller
// fabricates an empty package instead.
func (l *lenientImporter) importModuleLocal(path string) *types.Package {
	if l.modPath == "" || (path != l.modPath && !strings.HasPrefix(path, l.modPath+"/")) {
		return nil
	}
	dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	files, err := parseDir(l.fset, dir)
	if err != nil || len(files) == 0 {
		return nil
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	// A partially-checked package is still better than a fabricated empty
	// one, so the error is deliberately dropped.
	pkg, _ := conf.Check(path, l.fset, files, nil)
	return pkg
}

// isStdlibShaped filters paths worth handing to the source importer: no
// module domain (stdlib paths have no dot in the first element).
func isStdlibShaped(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".")
}
