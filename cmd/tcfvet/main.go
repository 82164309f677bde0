// Command tcfvet statically checks tcf-e programs: memory-discipline
// conformance under a selectable PRAM model (EREW/CREW/CRCW) and flow
// hygiene (unreachable code, dead stores, zero thickness, barriers inside
// parallel arms, constant out-of-range indices, overlapping @ placements).
//
// Usage:
//
//	tcfvet [flags] path...
//
// Each path may be a .te file, a .go file (every embedded raw-string
// constant containing a tcf-e main function is vetted, with positions
// mapped back to the .go file), or a directory (walked recursively for
// both). With -expect FILE the rendered findings are compared against a
// checked-in golden file and the exit status reports the comparison, so CI
// fails on *new* findings rather than on known ones.
//
// With -cost each unit that compiles is also run through the cost analyzer
// (predicted steps, cycles, traffic and flow population, read off a fuelled
// run of the step engine). With -json both findings and cost reports are
// emitted as one machine-readable JSON document.
//
// Exit status is stable for scripting: 0 when clean, 1 when findings were
// reported (or -expect mismatched), 2 on usage errors (bad flags, bad
// paths, unreadable inputs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tcfpram/internal/analysis"
	"tcfpram/internal/diag"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// Stable exit codes, part of the command's interface.
const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable shape of one diagnostic. The field
// set is part of the -json interface; extend it, never rename.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Check    string `json:"check"`
	Message  string `json:"message"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Units    int                    `json:"units"`
	Findings []jsonFinding          `json:"findings"`
	Costs    []*analysis.CostReport `json:"costs,omitempty"`
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("tcfvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	discName := fs.String("discipline", "crew", "memory discipline to check: erew|crew|crcw|off")
	variantName := fs.String("variant", "tcf", "execution variant assumed for variant-sensitive checks")
	expect := fs.String("expect", "", "golden findings file: compare instead of just printing")
	errorsOnly := fs.Bool("errors-only", false, "report only error-severity findings")
	cost := fs.Bool("cost", false, "predict execution cost for each unit that compiles")
	jsonOut := fs.Bool("json", false, "emit findings (and -cost reports) as JSON")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(err error) int {
		fmt.Fprintln(errw, "tcfvet:", err)
		return exitUsage
	}
	if fs.NArg() == 0 {
		return usage(fmt.Errorf("expected at least one path (.te file, .go file or directory)"))
	}
	disc, err := mem.ParseDiscipline(*discName)
	if err != nil {
		return usage(err)
	}
	vk, err := variant.ParseKind(*variantName)
	if err != nil {
		return usage(err)
	}

	units, err := collectUnits(fs.Args())
	if err != nil {
		return usage(err)
	}
	var all []diag.Diagnostic
	var costs []*analysis.CostReport
	for _, u := range units {
		ds := analysis.AnalyzeSource(u.name, u.src, analysis.Options{
			Discipline: disc,
			Variant:    vk,
		})
		for _, d := range ds {
			if *errorsOnly && d.Severity < diag.Error {
				continue
			}
			d.Pos.Line += int32(u.lineOff)
			all = append(all, d)
		}
		if *cost {
			// A unit that fails to compile already produced a parse/sema
			// finding above; cost analysis only applies to the rest.
			rep, err := analysis.CostSource(u.name, u.src, analysis.DefaultCostParams(vk))
			if err == nil {
				costs = append(costs, rep)
			}
		}
	}
	diag.Sort(all)

	if *jsonOut {
		rep := jsonReport{Units: len(units), Findings: []jsonFinding{}, Costs: costs}
		for _, d := range all {
			rep.Findings = append(rep.Findings, jsonFinding{
				File:     d.File,
				Line:     int(d.Pos.Line),
				Col:      int(d.Pos.Col),
				Severity: d.Severity.String(),
				Check:    d.Check,
				Message:  d.Msg,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return usage(err)
		}
		if len(all) > 0 {
			return exitFindings
		}
		return exitClean
	}

	got := diag.Render(all)
	if *expect != "" {
		want, err := os.ReadFile(*expect)
		if err != nil {
			return usage(err)
		}
		if normalize(got) != normalize(string(want)) {
			fmt.Fprintf(out, "findings differ from %s:\n--- want ---\n%s--- got ---\n%s",
				*expect, normalize(string(want)), normalize(got))
			fmt.Fprintf(errw, "tcfvet: findings differ from %s\n", *expect)
			return exitFindings
		}
		fmt.Fprintf(out, "tcfvet: %d unit(s) match %s (%d finding(s))\n",
			len(units), *expect, len(all))
		return exitClean
	}
	if got != "" {
		fmt.Fprint(out, got)
	}
	for _, rep := range costs {
		fmt.Fprint(out, rep.Render())
	}
	if len(all) > 0 {
		fmt.Fprintf(errw, "tcfvet: %d finding(s) in %d unit(s)\n", len(all), len(units))
		return exitFindings
	}
	if !*cost {
		fmt.Fprintf(out, "tcfvet: %d unit(s) clean\n", len(units))
	}
	return exitClean
}

func normalize(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	var keep []string
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			keep = append(keep, l)
		}
	}
	if len(keep) == 0 {
		return ""
	}
	return strings.Join(keep, "\n") + "\n"
}

// unit is one tcf-e compilation unit to vet. lineOff maps positions of
// programs embedded in .go files back to their host file.
type unit struct {
	name    string
	src     string
	lineOff int
}

func collectUnits(paths []string) ([]unit, error) {
	var units []unit
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if st.IsDir() {
			err = filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				switch filepath.Ext(path) {
				case ".te":
					u, err := teUnit(path)
					if err != nil {
						return err
					}
					units = append(units, u)
				case ".go":
					us, err := goUnits(path)
					if err != nil {
						return err
					}
					units = append(units, us...)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		switch filepath.Ext(p) {
		case ".go":
			us, err := goUnits(p)
			if err != nil {
				return nil, err
			}
			units = append(units, us...)
		default:
			u, err := teUnit(p)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].name < units[j].name })
	return units, nil
}

func teUnit(path string) (unit, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return unit{}, err
	}
	return unit{name: filepath.ToSlash(path), src: string(src)}, nil
}

// goUnits extracts tcf-e programs embedded in a Go file as raw-string
// literals containing a main function. Diagnostic lines are offset so they
// point into the host .go file.
func goUnits(path string) ([]unit, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var units []unit
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
			return true
		}
		src := strings.Trim(lit.Value, "`")
		if !strings.Contains(src, "func main(") {
			return true
		}
		// Line 1 of the embedded source sits on the literal's first line.
		units = append(units, unit{
			name:    filepath.ToSlash(path),
			src:     src,
			lineOff: fset.Position(lit.Pos()).Line - 1,
		})
		return true
	})
	return units, nil
}
