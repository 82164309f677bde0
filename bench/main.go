// Command tcfbench is the repository's benchmark: four named workloads,
// two against an in-process tcfserve and two against the engine through the
// tcfpram facade, every result verified against a Go reference.
//
//	go run -C bench .                          all workloads, untraced and traced; writes out/results.json
//	go run -C bench . -workload W -seed N -seconds S -trace 0|1
//	                                           one run of one workload; the last line of output is its JSON result
//	go run -C bench . -selfcheck               the whole benchmark twice, compared against its own bounds
//	go run -C bench . -compare A.json B.json   compare two results files of equal configuration
//	go run -C bench . -update-golden           rewrite golden/*.json for seed 1
//	go run -C bench . -write-spec              rewrite ../BENCHMARK.json from spec.go
//
// README.md defines the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("tcfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print its result as the last line")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 = the traced pass (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden/<workload>.json from this run (seed 1 only)")
	selfcheck := fs.Bool("selfcheck", false, "run the whole benchmark twice and compare the two")
	compare := fs.Bool("compare", false, "compare the two results files given as arguments")
	writeSpec := fs.Bool("write-spec", false, "rewrite ../BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "tcfbench: -seconds must be at least 1")
		return 2
	}
	if o.updateGolden {
		o.seed = goldenSeed
	}

	var err error
	switch {
	case *writeSpec:
		err = writeSpecFile()
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tcfbench: -compare takes two results files")
			return 2
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1))
	case *selfcheck:
		err = selfCheck(o)
	case o.workload == "":
		_, err = runAll(o, filepath.Join("out", "results.json"))
	default:
		return runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcfbench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process. Its detailed result goes to
// out/, the contract's JSON object to the last line of standard output.
func runOne(o options) int {
	known := false
	for _, w := range workloadSpecs {
		known = known || w.Name == o.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "tcfbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runWorkload(o, &fixedProbes{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcfbench:", err)
		return 1
	}
	if err := writeJSON(detailPath(o), res); err != nil {
		fmt.Fprintln(os.Stderr, "tcfbench:", err)
		return 1
	}
	printResult(res)
	fmt.Println(res.contractLine())
	if !res.Correct {
		return 1
	}
	return 0
}

func detailPath(o options) string {
	t := 0
	if o.trace {
		t = 1
	}
	return filepath.Join("out", fmt.Sprintf("run-%s-trace%d.json", o.workload, t))
}

// printResult prints every metric of a run by name with its unit.
func printResult(r *result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("# %s (%s): attempted %d, failed %d, fail_share %g\n", r.Workload, mode, r.Attempted, r.Failed, r.FailShare)
	for _, e := range r.Errors {
		fmt.Printf("#   error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-52s %16.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" typical %.4f, spread %.4f over %d samples", m.Typical, m.Spread, m.Samples)
		}
		fmt.Println()
	}
}

func writeSpecFile() error {
	data, err := benchmarkJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("..", "BENCHMARK.json"), data, 0o644)
}
