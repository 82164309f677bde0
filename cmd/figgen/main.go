// Command figgen reproduces the paper's figures as ASCII schedules and
// measurement tables.
//
// Usage:
//
//	figgen <target|all>
//
// Targets: table1 (the paper's Table 1, measured at u=16, k=8), fig1..fig13
// (the paper's figures), autosplit (Section 3.3 OS splitting), storage (Section 3.3 intermediate-result storage), scaling
// (machine-size sweep), summary (cross-variant kernel matrix), s4 (the
// Section 4 programming comparisons).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"tcfpram/internal/exper"
	"tcfpram/internal/trace"
	"tcfpram/internal/variant"
)

func main() {
	which := "all"
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	if err := emit(which, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figgen:", err)
		os.Exit(1)
	}
}

func emit(which string, out io.Writer) error {
	header := func(title string) {
		fmt.Fprintln(out)
		fmt.Fprintln(out, strings.Repeat("=", len(title)))
		fmt.Fprintln(out, title)
		fmt.Fprintln(out, strings.Repeat("=", len(title)))
	}
	all := which == "all"
	match := func(name string) bool { return all || which == name }
	any := false

	if match("table1") {
		any = true
		header(fmt.Sprintf("Table 1 — key properties and measured primitive costs (P=%d, Tp=%d, R=%d, b=%d)",
			exper.P, exper.Tp, exper.R, exper.B))
		const u, k = 16, 8
		rows, err := exper.Table1(k, u)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatTable1(rows, u))
	}
	if match("fig1") {
		any = true
		header("Figure 1 — ESM substrate: distance-aware network under uniform random traffic")
		rows, err := exper.Fig1(8)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatFig1(rows))
	}
	if match("fig2") {
		any = true
		header("Figure 2 — PRAM-NUMA: NUMA bunching on a sequential chain")
		rows, err := exper.Fig2(128)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatFig2(rows))
	}
	if match("fig3") || match("fig4") {
		any = true
		header("Figures 3/4 — TCF block structure and thickness evolution")
		spans, timeline, m, err := exper.Fig34()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "flow spans (block structure):")
		for _, sp := range spans {
			fmt.Fprintf(out, "  flow %d: steps [%d,%d], max thickness %d, %d operation slices\n",
				sp.Flow, sp.FirstStep, sp.LastStep, sp.MaxLanes, sp.TotalSlices)
		}
		fmt.Fprintf(out, "\nflow 0 thickness timeline: %v\n\n", timeline)
		fmt.Fprintln(out, trace.Gantt(m))
	}
	if match("fig6") {
		any = true
		header("Figure 6 — single-processor view: TCF slices executed one by one")
		m, err := exper.Fig6()
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.RenderSchedule(m))
	}
	schedule := func(name, title string, kind variant.Kind) error {
		if !match(name) {
			return nil
		}
		any = true
		header(title)
		res, err := exper.FigSchedule(kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "steps=%d cycles=%d max per-step ops=%d\n\n", res.Steps, res.Cycles, res.MaxStepOps)
		fmt.Fprint(out, exper.RenderSchedule(res.Machine))
		return nil
	}
	if err := schedule("fig7", "Figure 7 — Single-instruction variant (thick instructions slow thin ones)", variant.SingleInstruction); err != nil {
		return err
	}
	if err := schedule("fig8", "Figure 8 — Balanced variant (bounded operations per step)", variant.Balanced); err != nil {
		return err
	}
	if err := schedule("fig9", "Figure 9 — Multi-instruction (XMT) variant (no lockstep)", variant.MultiInstruction); err != nil {
		return err
	}
	if match("fig10") || match("fig11") {
		any = true
		header("Figures 10/11 — low-TLP utilization: single-operation ESM vs PRAM-NUMA bunching")
		rows, err := exper.Fig1011(64)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatFig1011(rows))
	}
	if match("fig12") {
		any = true
		header("Figure 12 — Fixed-thickness (vector/SIMD): both branch paths are paid")
		res, err := exper.Fig12(16)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "two-way conditional over 16 elements:\n")
		fmt.Fprintf(out, "  TCF (two parallel flows): %d ops, %d cycles\n", res.TCFOps, res.TCFCycles)
		fmt.Fprintf(out, "  SIMD (predicated both paths): %d ops, %d cycles\n", res.SIMDOps, res.SIMDCycle)
	}
	if match("fig13") {
		any = true
		header("Figure 13 — TCF pipeline: instruction fetches per TCF instruction")
		rows, err := exper.Fig13()
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatFig13(rows))
	}
	if match("autosplit") {
		any = true
		header("Section 3.3 — OS splitting of overly thick flows (256-lane kernel, P=4)")
		rows, err := exper.AutoSplit()
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatAutoSplit(rows))
	}
	if match("storage") {
		any = true
		header("Section 3.3 — intermediate-result storage: memory-to-memory vs cached register file vs local memory")
		rows, err := exper.Storage(4, 50)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatStorage(rows))
	}
	if match("scaling") {
		any = true
		header("Machine-size scaling — 256-lane workload over P groups (single-instruction)")
		rows, err := exper.Scaling(256, 6)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatScaling(rows))
	}
	if match("summary") {
		any = true
		header("Headline matrix — four kernels across the expressible variants (size 16)")
		cells, err := exper.Summary(16)
		if err != nil {
			return err
		}
		fmt.Fprint(out, exper.FormatSummary(cells))
	}
	if match("s4") {
		any = true
		header("Section 4 — programming construct comparisons")
		var rows []exper.S4Row
		if r, err := exper.S4a([]int{64, 256}); err == nil {
			rows = append(rows, r...)
		} else {
			return err
		}
		if r, err := exper.S4b(5); err == nil {
			rows = append(rows, r...)
		} else {
			return err
		}
		if r, err := exper.S4c(128); err == nil {
			rows = append(rows, r...)
		} else {
			return err
		}
		if r, err := exper.S4d(16); err == nil {
			rows = append(rows, r...)
		} else {
			return err
		}
		if r, err := exper.S4e(64); err == nil {
			rows = append(rows, r...)
		} else {
			return err
		}
		if r, err := exper.S4f(16); err == nil {
			rows = append(rows, r...)
		} else {
			return err
		}
		fmt.Fprint(out, exper.FormatS4(rows))
		g, err := exper.S4g(48)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nS4g multitask (%d tasks): TCF switches=%d cost=%d cyc; thread-machine model=%d cyc\n",
			g.Tasks, g.TCFSwitches, g.TCFSwitchCycles, g.ThreadSwitchCycles)
		h, err := exper.S4h(64, 16)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "S4h allocation (T_app=%d): vertical=%d cyc, horizontal=%d cyc, speedup=%.2f\n",
			h.TApp, h.VerticalCycles, h.HorizontalCycles, h.Speedup)
	}
	if !any {
		return fmt.Errorf("unknown figure %q (want table1, fig1..fig13, autosplit, storage, scaling, summary, s4, or all)", which)
	}
	return nil
}
