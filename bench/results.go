package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// results is the file a full run writes: every workload's untraced and
// traced result under one configuration stamp.
type results struct {
	Stamp    stamp              `json:"stamp"`
	EndToEnd map[string]*result `json:"end_to_end"` // by workload
	PerLayer map[string]*result `json:"per_layer"`
}

// runAll runs every workload untraced and traced and writes the results
// file. Each untraced run has a child process of its own, so that set-up
// time and peak memory are the workload's own. The traced passes report
// neither and share this process, and with it one measurement of the fixed
// probes.
func runAll(o options, path string) (*results, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := &results{Stamp: newStamp(o), EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	incorrect := 0
	for _, w := range workloadSpecs {
		co := o
		co.workload, co.trace = w.Name, false
		// The child's result is read from its file; one left by an earlier
		// run must not stand in for a child that wrote none.
		if err := os.Remove(detailPath(co)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", "0"}
		if o.updateGolden {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// Run waits for the child; a child that reports failed operations
		// exits 1 after writing its result, so only a missing result stops
		// the run.
		runErr := cmd.Run()
		res, err := readJSON[result](detailPath(co))
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, runErr)
			}
			return nil, err
		}
		if !res.Correct {
			incorrect++
		}
		all.EndToEnd[w.Name] = res
	}
	fixed := &fixedProbes{}
	for _, w := range workloadSpecs {
		co := o
		co.workload, co.trace = w.Name, true
		res, err := runWorkload(co, fixed)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		printResult(res)
		if !res.Correct {
			incorrect++
		}
		all.PerLayer[w.Name] = res
	}
	if err := writeJSON(path, all); err != nil {
		return nil, err
	}
	fmt.Printf("# results written to %s\n", path)
	if incorrect > 0 {
		return all, fmt.Errorf("%d runs had failed operations", incorrect)
	}
	return all, nil
}

// readJSON reads a file this benchmark wrote.
func readJSON[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &v, nil
}

// compareFiles diffs two results files. It refuses files whose recorded
// configuration differs in anything but the commit: such numbers do not
// answer "did it get faster?".
func compareFiles(pathA, pathB string) error {
	a, err := readJSON[results](pathA)
	if err != nil {
		return err
	}
	b, err := readJSON[results](pathB)
	if err != nil {
		return err
	}
	return compareResults(a, b, false)
}

// compareResults reports every end-to-end metric of b against a and fails
// when one is worse by more than its bound, or when an exact simulated
// statistic differs at all. With sameCode set the two are runs of one
// commit, which must repeat: then a metric that is better by more than its
// bound fails too.
func compareResults(a, b *results, sameCode bool) error {
	sa, sb := a.Stamp, b.Stamp
	sa.Commit, sb.Commit = "", ""
	if sa != sb {
		return fmt.Errorf("the two results were taken under different configurations and are not comparable:\n  %+v\n  %+v", sa, sb)
	}
	problems := 0
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	for _, w := range workloadSpecs {
		ra, rb := a.EndToEnd[w.Name], b.EndToEnd[w.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("a results file has no untraced run of %s", w.Name)
		}
		for _, spec := range endToEnd {
			va, vb := ra.Metrics[spec.Name].Value, rb.Metrics[spec.Name].Value
			// worse is how far the second run is on the wrong side of the
			// first, as a share of the first.
			worse := (vb - va) / va
			if spec.Better == higher {
				worse = -worse
			}
			verdict := ""
			switch {
			case worse > spec.Bound:
				verdict = "  WORSE"
				problems++
			case sameCode && -worse > spec.Bound:
				verdict = "  DIFFERS"
				problems++
			}
			fmt.Printf("%-14s %-26s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.Name, spec.Name, va, vb, 100*(vb-va)/va, 100*spec.Bound, verdict)
		}
		problems += diffSims(w.Name, ra.Sims, rb.Sims)
		if la, lb := a.PerLayer[w.Name], b.PerLayer[w.Name]; la != nil && lb != nil {
			problems += diffSims(w.Name, la.Sims, lb.Sims)
			for _, name := range exactLayerCounts {
				if va, vb := la.Metrics[name].Value, lb.Metrics[name].Value; va != vb {
					fmt.Printf("%-14s %-26s exact count differs: %v, %v\n", w.Name, name, va, vb)
					problems++
				}
			}
		}
	}
	if problems > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound or exact counts differ", problems)
	}
	return nil
}

// exactLayerCounts are the per-layer metrics that count what the program
// did and must therefore repeat exactly on the same commit and seed.
var exactLayerCounts = []string{
	"lang.tokens", "lang.src_bytes", "codegen.instrs", "analysis.cost_cycle_err",
	"machine.sim_steps", "machine.sim_cycles", "machine.sim_ops",
	"machine.stage_cycles.frontend", "machine.stage_cycles.opgen", "machine.stage_cycles.memory", "machine.stage_cycles.commit",
}

func diffSims(workload string, a, b map[string]simStats) int {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		if a[name] != b[name] {
			fmt.Printf("%-14s %s: simulated statistics differ: %+v, %+v\n", workload, name, a[name], b[name])
			n++
		}
	}
	if len(a) != len(b) {
		fmt.Printf("%-14s program sets differ: %d, %d\n", workload, len(a), len(b))
		n++
	}
	return n
}

// selfCheck runs the whole benchmark twice on the same code and holds the
// second run to the first by the benchmark's own bounds.
func selfCheck(o options) error {
	first, err := runAll(o, "out/selfcheck-1.json")
	if err != nil {
		return err
	}
	second, err := runAll(o, "out/selfcheck-2.json")
	if err != nil {
		return err
	}
	return compareResults(first, second, true)
}
