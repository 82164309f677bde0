// Package analysis implements tcfvet: a static analyzer for tcf-e
// programs. It builds a flow-level control-flow graph per function, runs a
// thickness dataflow over it, and reports position-carrying diagnostics in
// two families:
//
//   - memory discipline under a selectable PRAM model (EREW/CREW/CRCW):
//     thick stores through provably non-injective index expressions,
//     concurrent reads under EREW, and constant-address conflicts between
//     parallel arms;
//   - flow hygiene: unreachable code, dead stores, zero or negative
//     thickness, barriers inside parallel arms on lockstep variants,
//     constant out-of-range indices and overlapping @ placements.
//
// The analyzer is deliberately conservative: it only reports collisions it
// can prove (known thickness and a classified index), so CRCW-legal
// programs that merely might collide stay quiet.
package analysis

import (
	"errors"

	"tcfpram/internal/codegen"
	"tcfpram/internal/diag"
	"tcfpram/internal/lang"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/variant"
)

// Options configures one analysis run.
type Options struct {
	// File is the name stamped into diagnostics.
	File string
	// Discipline selects the memory model checked. DisciplineOff and
	// DisciplineCRCW disable discipline checks (hygiene checks still run).
	Discipline mem.Discipline
	// Variant is the execution variant assumed for variant-sensitive checks
	// (barrier-in-parallel fires on lockstep variants only). The zero value
	// is the fully general single-instruction TCF variant.
	Variant variant.Kind
}

// Analyze runs all checks over a sema-checked program (the first argument
// is the program info was checked from, info.Prog; the checks read it
// there). What they need to know of the program is in its facts tables
// (facts.go), built here in one walk and dropped when it returns.
func Analyze(_ *lang.Program, info *sema.Info, opts Options) []diag.Diagnostic {
	ds, _ := analyze(info, opts)
	return ds
}

// analyze is Analyze, returning also the thickness ceiling its tables found.
func analyze(info *sema.Info, opts Options) ([]diag.Diagnostic, thick) {
	a := &analyzer{opts: opts, pf: buildFacts(info)}
	a.checkPlacements()
	for _, ff := range a.pf.order {
		a.checkBlocks(ff)
		a.liveness(ff)
		a.reportUnreachable(ff)
		a.checkParallel(ff)
		a.checkBounds(ff)
	}
	diag.Sort(a.diags)
	return a.diags, a.pf.ceiling
}

// AnalyzeSource parses, checks and analyzes source text. Front-end
// failures come back as a single diagnostic (check "parse" or "sema")
// carrying the error's position.
func AnalyzeSource(file, src string, opts Options) []diag.Diagnostic {
	opts.File = file
	prog, err := lang.Parse(src)
	if err != nil {
		return []diag.Diagnostic{frontendDiag(file, err, "parse")}
	}
	info, err := sema.Check(prog)
	if err != nil {
		return []diag.Diagnostic{frontendDiag(file, err, "sema")}
	}
	return Analyze(prog, info, opts)
}

// AnalyzeAndCompile parses and checks src exactly once, runs the analyzer
// over the checked program, and — when neither the front end nor the
// analyzer reports an error — compiles the same checked parse into a
// runnable program. This is the single-parse path the execution server's
// vet gate uses: AnalyzeSource followed by codegen.CompileSource would
// parse and type-check the program twice.
//
// The compiled result is a load image: it records the analyzer's thickness
// ceiling and drops Info, so the AST, the checked program and the facts
// tables are garbage once this returns. A nil compiled result with a nil
// error means the program was rejected by the diagnostics; a non-nil error is
// a codegen failure after a clean vet.
func AnalyzeAndCompile(file, src string, opts Options) ([]diag.Diagnostic, *codegen.Compiled, error) {
	opts.File = file
	prog, err := lang.Parse(src)
	if err != nil {
		return []diag.Diagnostic{frontendDiag(file, err, "parse")}, nil, nil
	}
	info, err := sema.Check(prog)
	if err != nil {
		return []diag.Diagnostic{frontendDiag(file, err, "sema")}, nil, nil
	}
	ds, ceiling := analyze(info, opts)
	if diag.HasErrors(ds) {
		return ds, nil, nil
	}
	c, cerr := codegen.CompileChecked(info)
	if cerr != nil {
		return ds, nil, cerr
	}
	c.Program.Name = file
	c.Info, c.ThickCeiling = nil, ceiling.recorded()
	return ds, c, nil
}

func frontendDiag(file string, err error, check string) diag.Diagnostic {
	pos := lang.Pos{Line: 1, Col: 1}
	msg := err.Error()
	var le *lang.Error
	var se *sema.Error
	switch {
	case errors.As(err, &le):
		pos, msg = le.Pos, le.Msg
	case errors.As(err, &se):
		pos, msg = se.Pos, se.Msg
	}
	d := diag.New(pos, diag.Error, check, "%s", msg)
	d.File = file
	return d
}

type analyzer struct {
	opts  Options
	pf    *progFacts
	diags []diag.Diagnostic
}

// report appends a diagnostic (stamping the file name) and returns a
// pointer to the stored copy so callers can attach address provenance.
func (a *analyzer) report(d diag.Diagnostic) *diag.Diagnostic {
	d.File = a.opts.File
	a.diags = append(a.diags, d)
	return &a.diags[len(a.diags)-1]
}
