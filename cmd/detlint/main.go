// Command detlint lints the engine's deterministic packages for constructs
// that break bit-identical replay: ranging over maps with iteration
// variables, time.Now/Since/Until, and math/rand imports. See
// internal/lint for the rules and the //detlint:ignore escape hatch.
//
// Usage:
//
//	detlint [package-dir ...]
//
// With no arguments it lints the default deterministic set:
// internal/machine, internal/mem, internal/fuse, internal/multiop,
// internal/pipeline, internal/tcf (flows, affine forms, StateDigest,
// EncodeTo) and internal/isa (the bulk lane forms).
//
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tcfpram/internal/lint"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: detlint [package-dir ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		dirs = lint.Deterministic
	}
	for _, d := range dirs {
		if st, err := os.Stat(d); err != nil || !st.IsDir() {
			fmt.Fprintf(errw, "detlint: %s is not a directory\n", d)
			return exitUsage
		}
	}

	findings, err := lint.Packages(dirs)
	if err != nil {
		fmt.Fprintln(errw, "detlint:", err)
		return exitUsage
	}
	if len(findings) == 0 {
		fmt.Fprintf(out, "detlint: %d package(s) clean\n", len(dirs))
		return exitClean
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	fmt.Fprintf(errw, "detlint: %d finding(s)\n", len(findings))
	return exitFindings
}
