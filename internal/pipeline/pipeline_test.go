package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg() Config { return Config{Depth: 4, MemLatency: 8} }

func TestSingleInstructionTiming(t *testing.T) {
	res, err := Schedule(cfg(), []Instr{{Flow: 0, Thickness: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycles != 10 || res.Drain != 4 || res.Cycles != 14 {
		t.Fatalf("timing: %+v", res)
	}
	if res.Fetches != 1 {
		t.Fatalf("fetches = %d, want 1 (fetch once per TCF)", res.Fetches)
	}
	if len(res.Events) != 10 {
		t.Fatalf("events: %d", len(res.Events))
	}
}

func TestBackToBackTCFsNoBubbles(t *testing.T) {
	// Three TCFs of different thickness: issue cycles = total slices; the
	// fill is paid once.
	res, err := Schedule(cfg(), []Instr{
		{Flow: 0, Thickness: 12},
		{Flow: 1, Thickness: 3},
		{Flow: 2, Thickness: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycles != 16 || res.Cycles != 20 {
		t.Fatalf("timing: %+v", res)
	}
	// Every cycle 0..15 has exactly one event.
	seen := map[int]bool{}
	for _, e := range res.Events {
		if seen[e.Cycle] {
			t.Fatalf("double issue at cycle %d", e.Cycle)
		}
		seen[e.Cycle] = true
	}
	for c := 0; c < 16; c++ {
		if !seen[c] {
			t.Fatalf("issue bubble at cycle %d", c)
		}
	}
	if res.Fetches != 3 {
		t.Fatalf("fetches = %d", res.Fetches)
	}
}

func TestMemoryReferenceExtendsDrain(t *testing.T) {
	// A memory instruction issuing its last slice at cycle 3 with latency
	// 8 holds the step until cycle 3+8 = 11: drain = 11-4 = 7 > depth 4.
	res, err := Schedule(cfg(), []Instr{{Flow: 0, Thickness: 4, MemRef: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drain != 7 || res.Cycles != 11 {
		t.Fatalf("mem drain: %+v", res)
	}
	// Long instructions hide the latency completely: drain = depth.
	res, err = Schedule(cfg(), []Instr{
		{Flow: 0, Thickness: 4, MemRef: true},
		{Flow: 1, Thickness: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drain != 4 {
		t.Fatalf("hidden latency: %+v", res)
	}
}

func TestZeroThickness(t *testing.T) {
	res, err := Schedule(cfg(), []Instr{{Flow: 0, Thickness: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycles != 0 || res.Cycles != 4 || res.Fetches != 1 {
		t.Fatalf("zero thickness: %+v", res)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Schedule(Config{Depth: -1}, nil); err == nil {
		t.Fatal("negative depth accepted")
	}
	if _, err := Schedule(cfg(), []Instr{{Thickness: -1}}); err == nil {
		t.Fatal("negative thickness accepted")
	}
}

// Property: the step cost law against the slice-level schedule, over random
// instruction lists and random depth/latency. Without a shared reference
// the two agree exactly. With the reference in the final instruction — the
// law's conservative assumption about where it sits — the law charges
// max(Depth, L) after the last slice and the schedule max(Depth, L-1),
// because the schedule counts the latency from the start of the issue cycle
// and the law from its end: one cycle apart exactly when the latency is not
// hidden by the fill (at the default Depth 4, L 8: 8 against 7), and equal
// to the schedule of a reference one cycle slower. A reference anywhere
// earlier can only make the schedule cheaper.
func TestStepCostAgainstSchedule(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Config{Depth: rng.Intn(10), MemLatency: rng.Intn(14)}
		dist := rng.Intn(4)
		n := 1 + rng.Intn(6)
		instrs := make([]Instr, n)
		step := Step{Fetches: int64(n), MaxDist: dist}
		for i := range instrs {
			instrs[i] = Instr{Flow: i, Thickness: rng.Intn(10)}
			if instrs[i].Thickness == 1 {
				step.ScalarOps++
			} else {
				step.Ops += int64(instrs[i].Thickness)
			}
		}
		sched := func(c Config) int64 {
			res, err := Schedule(c, instrs)
			if err != nil {
				t.Fatal(err)
			}
			return int64(res.Cycles)
		}
		if got := StepCost(c, step); got.Cycles != sched(c) ||
			got.OpsCycles != step.Ops+step.ScalarOps || got.Overhead != int64(c.Depth) {
			t.Logf("seed %d: no reference: law %+v, schedule %d", seed, got, sched(c))
			return false
		}

		// The final instruction references shared memory at distance dist.
		if instrs[n-1].Thickness == 0 {
			instrs[n-1].Thickness = 2
			step.Ops += 2
		}
		instrs[n-1].MemRef = true
		step.AnyShared = true
		law := StepCost(c, step).Cycles
		lat := c.MemLatency + dist
		gap := int64(0)
		if lat > c.Depth {
			gap = 1
		}
		atDist := Config{Depth: c.Depth, MemLatency: lat}
		if law != sched(atDist)+gap || law != sched(Config{Depth: c.Depth, MemLatency: lat + 1}) {
			t.Logf("seed %d: final reference: law %d, schedule %d, gap %d", seed, law, sched(atDist), gap)
			return false
		}

		// The same reference issued first instead: later slices hide it.
		instrs[0], instrs[n-1] = instrs[n-1], instrs[0]
		if sched(atDist) > law {
			t.Logf("seed %d: early reference: schedule %d exceeds law %d", seed, sched(atDist), law)
			return false
		}

		// NUMA stalls add on top, cycle for cycle.
		step.Stall = int64(rng.Intn(50))
		return StepCost(c, step).Cycles == law+step.Stall
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// An idle group (nothing fetched) pays no fill.
func TestStepCostIdleGroup(t *testing.T) {
	if got := StepCost(cfg(), Step{}); got != (Cost{}) {
		t.Fatalf("idle group costs %+v", got)
	}
}

// Property: utilization approaches 1 as thickness grows (the amortization
// argument of Section 3.3).
func TestUtilizationGrowsWithThickness(t *testing.T) {
	prev := 0.0
	for _, th := range []int{1, 4, 16, 64, 256} {
		res, err := Schedule(cfg(), []Instr{{Thickness: th}})
		if err != nil {
			t.Fatal(err)
		}
		u := res.Utilization()
		if u <= prev {
			t.Fatalf("utilization not growing at thickness %d: %f <= %f", th, u, prev)
		}
		prev = u
	}
	if prev < 0.98 {
		t.Fatalf("thickness 256 utilization %f should approach 1", prev)
	}
}
