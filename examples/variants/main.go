// One program, six execution models. The same sequential tcf-e program runs
// unchanged on every variant of the extended PRAM-NUMA model (Section 3.2);
// the differences show up in the statistics: steps, cycles, instruction
// fetches and utilization. A second, thickness-using program runs on the
// variants that support variable thickness.
//
// Run with: go run ./examples/variants
package main

import (
	"fmt"
	"log"

	"tcfpram"
)

const portableSrc = `
func main() {
    int acc = 0;
    for (int i = 1; i <= 32; i += 1) {
        acc += i * i;
    }
    print(acc);
}
`

const thickSrc = `
shared int c[32] @ 500;

func main() {
    #32;
    c[tid] = tid * 3;
    parallel {
        #16: c[tid] += 1;
        #16: c[tid + 16] += 2;
    }
}
`

// shapeString summarizes the step shape a variant's execution policy selects
// for its default configuration.
func shapeString(v tcfpram.Variant) string {
	cfg := tcfpram.DefaultConfig(v)
	pol, err := tcfpram.PolicyFor(v)
	if err != nil {
		log.Fatalf("%v: %v", v, err)
	}
	s := pol.Shape(tcfpram.MachineShape{
		Groups: cfg.Groups, ProcsPerGroup: cfg.ProcsPerGroup,
		BalancedBound: cfg.BalancedBound, MultiInstrWindow: cfg.MultiInstrWindow,
		VectorWidth: cfg.ProcsPerGroup,
	})
	sync := "lockstep"
	if !v.Props().Lockstep {
		sync = "async"
	}
	out := fmt.Sprintf("%s w=%d", sync, s.Window)
	if s.Budget > 0 {
		out += fmt.Sprintf(" b=%d", s.Budget)
	}
	if s.PerThreadFetch {
		out += " fetch/thread"
	}
	return out
}

func main() {
	fmt.Println("sequential program on all six variants:")
	fmt.Printf("%-30s %-22s %-8s %-8s %-9s %-6s\n", "variant", "policy shape", "steps", "cycles", "fetches", "util")
	for _, v := range tcfpram.Variants() {
		m, stats, err := tcfpram.RunSource(tcfpram.DefaultConfig(v), "seq", portableSrc)
		if err != nil {
			log.Fatalf("%v: %v", v, err)
		}
		if got := m.PrintedValues(); len(got) == 0 || got[0] != 11440 {
			log.Fatalf("%v computed %v, want 11440", v, got)
		}
		fmt.Printf("%-30s %-22s %-8d %-8d %-9d %-6.3f\n", v, shapeString(v), stats.Steps, stats.Cycles,
			stats.InstrFetches, stats.Utilization())
	}

	fmt.Println("\nthickness + parallel program on the TCF-capable variants:")
	fmt.Printf("%-30s %-8s %-8s %-9s %-6s\n", "variant", "steps", "cycles", "fetches", "util")
	for _, v := range []tcfpram.Variant{tcfpram.SingleInstruction, tcfpram.Balanced, tcfpram.MultiInstruction} {
		m, stats, err := tcfpram.RunSource(tcfpram.DefaultConfig(v), "thick", thickSrc)
		if err != nil {
			log.Fatalf("%v: %v", v, err)
		}
		c, _ := m.Array("c")
		if c[0] != 1 || c[31] != 95 {
			log.Fatalf("%v: wrong result %v", v, c)
		}
		fmt.Printf("%-30s %-8d %-8d %-9d %-6.3f\n", v, stats.Steps, stats.Cycles,
			stats.InstrFetches, stats.Utilization())
	}
	fmt.Println("\nper-stage attribution (Figure 13 pipeline) of the thick program on the")
	fmt.Println("single-instruction variant:")
	m, _, err := tcfpram.RunSource(tcfpram.DefaultConfig(tcfpram.SingleInstruction), "thick", thickSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m.StageTable())

	fmt.Println("note the shapes: balanced trades steps for bounded step width; the XMT engine")
	fmt.Println("packs instructions per step but fetches once per implicit thread; the thread")
	fmt.Println("variants run the sequential program on all 16 thread slots redundantly.")
}
