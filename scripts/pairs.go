//go:build ignore

// pairs.go summarises the runs scripts/pairs.sh made: it reads the raw JSON
// lines parent.I.json and change.I.json (I = 1…n), and control.I.json when
// control.1.json is there, from -raw and prints, in markdown, a table of the
// pairs, a summary row per metric every side reports — parent median [parent
// quartile spread], change median, ratio, wins out of n, whether the medians
// lie further apart than the spread and, with a control, the control's median
// and its ratio to the parent's — and the raw lines. Whether a metric is
// better lower or higher comes from -spec (BENCHMARK.json's end_to_end list);
// metrics it does not name are better lower. It exits 1 when a run is not correct or failed an operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// run is one tcfbench run's last line; raw is the line itself.
type run struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	raw string
}

func main() {
	dir := flag.String("raw", "", "directory of the raw runs")
	n := flag.Int("n", 10, "pairs")
	spec := flag.String("spec", "", "BENCHMARK.json: which metrics are better higher")
	title := flag.String("title", "", "the record's heading")
	flag.Parse()

	higher := map[string]bool{}
	if data, err := os.ReadFile(*spec); err == nil {
		var s struct {
			EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		}
		if json.Unmarshal(data, &s) == nil {
			for _, m := range s.EndToEnd {
				higher[m.Name] = m.Better == "higher"
			}
		}
	}

	sides := []string{"parent", "change"}
	_, err := os.Stat(filepath.Join(*dir, "control.1.json"))
	control := err == nil
	if control {
		sides = append(sides, "control")
	}
	runs := make([][]run, len(sides))
	var bad []string
	for i := 1; i <= *n; i++ {
		for k, side := range sides {
			name := fmt.Sprintf("%s.%d.json", side, i)
			data, err := os.ReadFile(filepath.Join(*dir, name))
			r := run{raw: strings.TrimSpace(string(data))}
			if err != nil || json.Unmarshal(data, &r) != nil {
				r.raw = "(no JSON result: see " + strings.TrimSuffix(name, ".json") + ".log)"
			}
			if !r.Correct || r.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s run %d: correct %t, failed %d", side, i, r.Correct, r.Failed))
			}
			runs[k] = append(runs[k], r)
		}
	}
	// The metrics every run that has any reports.
	seen, have := map[string]int{}, 0
	for k := range sides {
		for _, r := range runs[k] {
			if r.Metrics != nil {
				have++
				for name := range r.Metrics {
					seen[name]++
				}
			}
		}
	}
	var names []string
	for name, c := range seen {
		if c == have {
			names = append(names, name)
		}
	}
	slices.Sort(names)

	fmt.Printf("### %s\n\n", *title)
	fmt.Printf("Pair i ran the sides back to back, pair 1 in the order %s and each pair after it starting with the side after the one the pair before started with. Each cell is %s.\n", strings.Join(sides, ", "), strings.Join(sides, " → "))
	fmt.Println()
	fmt.Printf("| pair | first | correct, failed | %s |\n", strings.Join(names, " | "))
	fmt.Printf("|---|---|---|%s\n", strings.Repeat("---|", len(names)))
	for i := 0; i < *n; i++ {
		var correct, failed []string
		for k := range sides {
			correct = append(correct, fmt.Sprint(runs[k][i].Correct))
			failed = append(failed, fmt.Sprint(runs[k][i].Failed))
		}
		cells := []string{fmt.Sprint(i + 1), sides[i%len(sides)], strings.Join(correct, "/") + ", " + strings.Join(failed, "/")}
		for _, name := range names {
			var vs []string
			for k := range sides {
				vs = append(vs, fmt.Sprintf("%.4g", runs[k][i].Metrics[name].Value))
			}
			cells = append(cells, strings.Join(vs, " → "))
		}
		fmt.Printf("| %s |\n", strings.Join(cells, " | "))
	}

	fmt.Println()
	if control {
		fmt.Println("| metric | parent median [quartile spread] | change median | ratio | wins | apart | control median | control ratio |")
		fmt.Println("|---|---|---|---|---|---|---|---|")
	} else {
		fmt.Println("| metric | parent median [quartile spread] | change median | ratio | wins | apart |")
		fmt.Println("|---|---|---|---|---|---|")
	}
	for _, name := range names {
		var pv, cv []float64
		wins := 0
		for i := 0; i < *n; i++ {
			p, c := runs[0][i].Metrics[name].Value, runs[1][i].Metrics[name].Value
			pv, cv = append(pv, p), append(cv, c)
			if higher[name] && c > p || !higher[name] && c < p {
				wins++
			}
		}
		pm, cm := quantile(pv, 0.5), quantile(cv, 0.5)
		spread := quantile(pv, 0.75) - quantile(pv, 0.25)
		ratio := cm / pm
		apart := "no"
		if d := cm - pm; d > spread || -d > spread {
			apart = "yes"
		}
		fmt.Printf("| `%s` | %.4g [%.3g] | %.4g | %.3f | %d/%d | %s |", name, pm, spread, cm, ratio, wins, *n, apart)
		if control {
			var kv []float64
			for _, r := range runs[2] {
				kv = append(kv, r.Metrics[name].Value)
			}
			km := quantile(kv, 0.5)
			fmt.Printf(" %.4g | %.3f |", km, km/pm)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("<details><summary>raw runs (last JSON line of each)</summary>")
	fmt.Println()
	fmt.Println("```")
	for i := 0; i < *n; i++ {
		for k, side := range sides {
			fmt.Printf("%s %d %s\n", side, i+1, runs[k][i].raw)
		}
	}
	fmt.Println("```")
	fmt.Println()
	fmt.Println("</details>")
	fmt.Println()
	if len(bad) > 0 {
		fmt.Printf("**The comparison fails:** %s.\n\n", strings.Join(bad, "; "))
		os.Exit(1)
	}
}

// quantile is the q-quantile of xs, interpolated linearly between the order
// statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
