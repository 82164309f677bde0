// Command netbench exercises the cycle-level interconnect simulator: mesh
// and torus networks under uniform random and hotspot traffic, sweeping
// size, load and link capacity — the bandwidth experiments behind the ESM
// substrate assumption (Figure 1). With -faults it injects deterministic
// fault plans of increasing intensity and reports the throughput/latency
// degradation curve plus the recovery work (retransmissions, re-routes)
// that kept delivery lossless. A closing section reports the step-engine
// throughput of the vector-add workload.
//
// Usage:
//
//	netbench [-sizes 2,4,8] [-pernode 16] [-cap 2] [-seed 1]
//	         [-patterns transpose,tornado] [-faults]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tcfpram/internal/exper"
	"tcfpram/internal/fault"
	"tcfpram/internal/network"
	"tcfpram/internal/profiling"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netbench:", err)
		os.Exit(1)
	}
}

func run() error {
	sizes := flag.String("sizes", "2,4,6,8", "comma-separated mesh side lengths")
	perNode := flag.Int("pernode", 16, "packets injected per node")
	linkCap := flag.Int("cap", 2, "link capacity (packets per cycle)")
	seed := flag.Int64("seed", 1, "traffic and fault seed")
	patterns := flag.String("patterns", "", "comma-separated traffic patterns (default: all)")
	faults := flag.Bool("faults", false, "sweep fault intensity and report degradation curves")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "netbench:", perr)
		}
	}()

	pats, err := parsePatterns(*patterns)
	if err != nil {
		return err
	}

	fmt.Printf("uniform random traffic, %d packets/node, link capacity %d\n\n", *perNode, *linkCap)
	fmt.Printf("%-8s %-8s %-12s %-10s %-12s %-12s\n", "nodes", "kind", "avg latency", "avg hops", "max latency", "throughput")
	for _, f := range strings.Split(*sizes, ",") {
		side, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || side <= 0 {
			return fmt.Errorf("bad size %q (want a positive integer)", f)
		}
		for _, kind := range []network.Kind{network.Mesh2D, network.Torus2D} {
			s, err := network.RandomTraffic(network.Config{
				Kind: kind, Width: side, Height: side, LinkCapacity: *linkCap,
			}, *perNode, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %-8s %-12.2f %-10.2f %-12d %-12.3f\n",
				side*side, kind, s.AvgLatency, s.AvgHops, s.MaxLatency, s.Throughput)
		}
	}

	// Classic traffic patterns on an 8x8 torus.
	fmt.Printf("\ntraffic patterns, 8x8 torus, %d packets/node, link capacity %d\n\n", *perNode, *linkCap)
	fmt.Printf("%-14s %-12s %-10s %-12s\n", "pattern", "avg latency", "avg hops", "throughput")
	for _, p := range pats {
		s, err := network.PatternTraffic(network.Config{
			Kind: network.Torus2D, Width: 8, Height: 8, LinkCapacity: *linkCap,
		}, p, *perNode)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %-12.2f %-10.2f %-12.3f\n", p, s.AvgLatency, s.AvgHops, s.Throughput)
	}

	// Hotspot: everyone targets node 0.
	fmt.Printf("\nhotspot traffic (all nodes -> node 0), 8x8 mesh\n")
	n, err := network.New(network.Config{Kind: network.Mesh2D, Width: 8, Height: 8, LinkCapacity: *linkCap})
	if err != nil {
		return err
	}
	for src := 1; src < n.Size(); src++ {
		if _, err := n.Inject(src, 0); err != nil {
			return err
		}
	}
	ok, err := n.Drain(1_000_000)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("hotspot drain stuck (%d in flight)", n.InFlight())
	}
	s := n.Stats()
	fmt.Printf("delivered=%d avg latency=%.2f (uncontended distance avg %.2f) max=%d\n",
		s.Delivered, s.AvgLatency, s.AvgHops+2, s.MaxLatency)

	// Step-engine throughput: the interconnect above is the substrate the
	// machine's shared references ride on, so close with the end-to-end step
	// rate of the Section 4 vector-add workload.
	const vecSize, reps = 1024, 64
	start := time.Now()
	var steps int64
	for i := 0; i < reps; i++ {
		m := exper.MustRun(variant.SingleInstruction,
			workload.VectorAdd(workload.StyleTCF, vecSize, 16, 0), nil)
		steps += m.Stats().Steps
	}
	el := time.Since(start)
	fmt.Printf("\nstep-engine throughput, vector add (%d lanes) x %d runs\n", vecSize, reps)
	fmt.Printf("steps=%d elapsed=%v steps/sec=%.0f\n", steps, el.Round(time.Millisecond), float64(steps)/el.Seconds())

	if *faults {
		return faultSweep(*perNode, *linkCap, *seed)
	}
	return nil
}

// parsePatterns resolves the -patterns list (empty = all patterns).
func parsePatterns(spec string) ([]network.Pattern, error) {
	if strings.TrimSpace(spec) == "" {
		return network.Patterns(), nil
	}
	var out []network.Pattern
	for _, name := range strings.Split(spec, ",") {
		p, err := network.ParsePattern(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// faultSweep measures the degradation curve: the same uniform random load
// under fault plans of increasing drop/corruption intensity plus a fixed set
// of transient link outages. Delivery stays lossless; latency and cycle
// counts degrade and the recovery counters show the work spent.
func faultSweep(perNode, linkCap int, seed int64) error {
	const side = 8
	fmt.Printf("\nfault degradation sweep, %dx%d mesh, %d packets/node, link capacity %d, seed %d\n\n",
		side, side, perNode, linkCap, seed)
	fmt.Printf("%-10s %-10s %-12s %-12s %-10s %-10s %-10s %-10s\n",
		"drop rate", "delivered", "avg latency", "latency x", "cycles x", "retransmit", "reroutes", "corrupted")

	var base network.Stats
	for i, rate := range []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05} {
		var plan *fault.Plan
		if rate > 0 {
			plan = &fault.Plan{
				Seed:        seed,
				DropRate:    rate,
				CorruptRate: rate / 2,
				Links: []fault.LinkFault{
					{Node: 9, Dir: 0, Interval: fault.Interval{From: 8, To: 256}},
					{Node: 27, Dir: 3, Interval: fault.Interval{From: 32, To: 400}},
					{Node: 44, Dir: 1, Interval: fault.Interval{From: 0, To: 128}},
				},
				Routers:      []fault.RouterFault{{Node: 18, Interval: fault.Interval{From: 16, To: 48}}},
				RetryTimeout: 8,
				MaxRetries:   20,
			}
		}
		s, err := network.RandomTraffic(network.Config{
			Kind: network.Mesh2D, Width: side, Height: side, LinkCapacity: linkCap, Faults: plan,
		}, perNode, seed)
		if err != nil {
			return fmt.Errorf("fault sweep at rate %g: %w", rate, err)
		}
		if i == 0 {
			base = s
		}
		latX, cycX := 1.0, 1.0
		if base.AvgLatency > 0 {
			latX = s.AvgLatency / base.AvgLatency
		}
		if base.Cycles > 0 {
			cycX = float64(s.Cycles) / float64(base.Cycles)
		}
		fmt.Printf("%-10.3f %-10d %-12.2f %-12.2f %-10.2f %-10d %-10d %-10d\n",
			rate, s.Delivered, s.AvgLatency, latX, cycX, s.Retransmits, s.Reroutes, s.Corrupted)
	}
	return nil
}
