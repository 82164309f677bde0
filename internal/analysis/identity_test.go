package analysis_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/diag"
	"tcfpram/internal/lang"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/variant"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/identity/*.golden")

// identityPrograms are the programs whose whole compile-path output is
// pinned: the codegen corpus, the analyzer's golden and violation programs
// and the cold-compile benchmark program.
func identityPrograms(t testing.TB) []string {
	var files []string
	for _, pat := range []string{
		filepath.Join("..", "codegen", "testdata", "*.te"),
		filepath.Join("testdata", "golden", "*.te"),
		filepath.Join("testdata", "violations", "*.te"),
		filepath.Join("..", "lang", "testdata", "cold.te"),
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			t.Fatalf("no programs match %s", pat)
		}
		sort.Strings(m)
		files = append(files, m...)
	}
	return files
}

// renderIdentity takes src through every public stage of the compile path
// and renders all that later stages or users can observe of it: the
// diagnostics under every discipline and under a non-lockstep variant (with
// their address provenance), the disassembly with its data segments and
// labels, and the cost report for every variant as JSON.
func renderIdentity(name, src string) string {
	var b strings.Builder
	prog, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintf(&b, "parse error: %v\n", err)
		b.WriteString(renderDiags(analysis.AnalyzeSource(name, src, analysis.Options{})))
		return b.String()
	}
	info, err := sema.Check(prog)
	if err != nil {
		fmt.Fprintf(&b, "sema error: %v\n", err)
		b.WriteString(renderDiags(analysis.AnalyzeSource(name, src, analysis.Options{})))
		return b.String()
	}
	for _, o := range []analysis.Options{
		{Discipline: mem.DisciplineOff},
		{Discipline: mem.DisciplineEREW},
		{Discipline: mem.DisciplineCREW},
		{Discipline: mem.DisciplineCRCW},
		{Discipline: mem.DisciplineCREW, Variant: variant.MultiInstruction},
	} {
		o.File = name
		fmt.Fprintf(&b, "== vet discipline=%s variant=%s\n", o.Discipline, o.Variant)
		b.WriteString(renderDiags(analysis.Analyze(prog, info, o)))
	}
	c, err := codegen.CompileChecked(info)
	if err != nil {
		fmt.Fprintf(&b, "codegen error: %v\n", err)
		return b.String()
	}
	c.Program.Name = name
	b.WriteString("== disassembly\n")
	b.WriteString(c.Program.Disassemble())
	for _, seg := range c.LocalData {
		fmt.Fprintf(&b, ".local %d: %v\n", seg.Addr, seg.Words)
	}
	for _, k := range variant.Kinds() {
		fmt.Fprintf(&b, "== cost variant=%s\n", k)
		js, err := json.Marshal(analysis.Cost(c, analysis.DefaultCostParams(k)))
		if err != nil {
			fmt.Fprintf(&b, "json error: %v\n", err)
			continue
		}
		b.Write(js)
		b.WriteByte('\n')
	}
	// The server's admission budgets stop long programs early: lower bounds
	// and the static thickness ceiling show.
	p := analysis.DefaultCostParams(variant.SingleInstruction)
	p.MaxSteps, p.MaxLaneWork = 64, 1<<10
	b.WriteString("== cost budget=64 steps\n")
	js, _ := json.Marshal(analysis.Cost(c, p))
	b.Write(js)
	b.WriteByte('\n')
	return b.String()
}

func renderDiags(ds []diag.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s addr=[%d,%d)\n", d, d.Addr, d.AddrEnd)
	}
	return b.String()
}

// TestCompilePathIdentity fails on any behavioural drift of the compile
// path: the goldens were generated at the commit before its data layout
// was rebuilt (PR 13) and every later layout change must reproduce them
// byte for byte. Regenerate only for an intended change of behaviour:
//
//	go test ./internal/analysis -run TestCompilePathIdentity -update-identity
func TestCompilePathIdentity(t *testing.T) {
	for _, path := range identityPrograms(t) {
		path := path
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := renderIdentity(name, string(src))
			golden := filepath.Join("testdata", "identity", name+".golden")
			if *updateIdentity {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-identity): %v", err)
			}
			if got != string(want) {
				t.Errorf("compile-path output of %s drifted from %s:\n%s", name, golden, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff shows the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no difference"
}
