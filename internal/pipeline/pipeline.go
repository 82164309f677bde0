// Package pipeline models the TCF-aware execution pipeline of Figure 13 at
// slice granularity: instruction fetch (IF) and operand select (OS) happen
// once per TCF instruction, then the instruction is held while the thickness
// generates one data-parallel operation per cycle into the execute stages,
// overlapping with the operations of the next resident TCF.
//
// The package also holds the step cost law itself (StepCost), which the step
// engine and the cost analyzer both charge, next to the slice-level model
// (Schedule) that validates it: executing a step whose resident TCFs
// contribute N operation slices takes N + fill cycles on a depth-D pipeline
// (fill = D), independent of how the slices are divided among TCFs — because
// only the first instruction pays the fill and back-to-back TCFs keep every
// stage busy. A memory reference extends the drain to the reference latency
// when it exceeds the depth.
package pipeline

import "fmt"

// Config describes the pipeline.
type Config struct {
	// Depth is the number of stages an operation traverses after issue
	// (the fill/drain cost).
	Depth int
	// MemLatency is the shared-memory round-trip in cycles; in-flight
	// references must return before the step can commit.
	MemLatency int
}

// Instr is one TCF instruction to schedule: Thickness operation slices, with
// MemRef marking shared-memory references.
type Instr struct {
	Flow      int
	Thickness int
	MemRef    bool
}

// Event records one pipeline occupancy: flow f issued slice k at the given
// cycle.
type Event struct {
	Cycle int
	Flow  int
	Slice int
}

// Result is the outcome of scheduling one step.
type Result struct {
	// Cycles is the total step duration: issue cycles plus drain.
	Cycles int
	// IssueCycles is the number of cycles the issue stage was busy.
	IssueCycles int
	// Drain is the tail latency after the last issue (pipeline depth or
	// outstanding memory latency, whichever dominates).
	Drain int
	// Fetches counts instruction fetches (one per TCF instruction).
	Fetches int
	// Events is the issue schedule (slice-per-cycle).
	Events []Event
}

// Schedule runs the resident TCF instructions of one step through the
// pipeline back to back and returns the timing.
func Schedule(cfg Config, instrs []Instr) (*Result, error) {
	if cfg.Depth < 0 || cfg.MemLatency < 0 {
		return nil, fmt.Errorf("pipeline: negative latency parameters")
	}
	res := &Result{}
	cycle := 0
	anyMem := false
	lastMemIssue := -1
	for _, in := range instrs {
		if in.Thickness < 0 {
			return nil, fmt.Errorf("pipeline: negative thickness %d", in.Thickness)
		}
		res.Fetches++
		// IF/OS overlap with the previous instruction's operation
		// generation (the TCF storage buffer feeds the pipeline), so no
		// issue bubble between TCFs; a zero-thickness instruction
		// occupies the control stages only.
		for k := 0; k < in.Thickness; k++ {
			res.Events = append(res.Events, Event{Cycle: cycle, Flow: in.Flow, Slice: k})
			if in.MemRef {
				anyMem = true
				lastMemIssue = cycle
			}
			cycle++
		}
	}
	res.IssueCycles = cycle
	res.Drain = cfg.Depth
	if anyMem {
		// The last reference returns MemLatency cycles after its issue;
		// the step cannot commit earlier.
		if tail := lastMemIssue + cfg.MemLatency - cycle; tail > res.Drain {
			res.Drain = tail
		}
	}
	res.Cycles = res.IssueCycles + res.Drain
	return res, nil
}

// Step is what the step cost law reads of one processor group's share of a
// step.
type Step struct {
	// Ops and ScalarOps count the operation slices issued: one per lane of
	// a thick instruction, one per flow-level instruction.
	Ops, ScalarOps int64
	// Fetches counts instruction fetches; a group that fetched nothing was
	// idle and pays no fill.
	Fetches int64
	// AnyShared reports a latency-hidden (PRAM-mode) shared-memory
	// reference, MaxDist the largest group-to-module distance among them.
	AnyShared bool
	MaxDist   int
	// Stall is the sum of the latencies NUMA-mode references paid inline.
	Stall int64
}

// Cost is the law's price for a Step, split the way the statistics report it.
type Cost struct {
	OpsCycles int64 // issue cycles: Ops + ScalarOps
	Overhead  int64 // pipeline fill, or the hidden memory latency if longer
	Cycles    int64 // OpsCycles + Overhead + Stall
}

// StepCost is the step cost law of the extended PRAM-NUMA model, the one
// both the step engine and the cost analyzer charge: a group's step costs
// its operation slices, plus max(pipeline fill, latency of the farthest
// hidden shared reference), plus the NUMA stalls. cfg.MemLatency is the
// latency at distance zero; a reference at distance d takes MemLatency + d.
//
// Against Schedule the law is exact for steps without shared references.
// With one it counts the latency from the end of the reference's issue
// cycle, where Schedule counts from its start, so for a step whose last
// slice is a reference the law charges max(Depth, L) and Schedule
// max(Depth, L-1): one cycle more whenever the latency is not hidden by the
// fill. A reference followed by other slices is cheaper still in Schedule,
// which lets them hide it; the law conservatively does not look at where in
// the step the reference was issued.
func StepCost(cfg Config, s Step) Cost {
	c := Cost{OpsCycles: s.Ops + s.ScalarOps}
	if s.Fetches > 0 {
		c.Overhead = int64(cfg.Depth)
		if s.AnyShared {
			if lat := int64(cfg.MemLatency + s.MaxDist); lat > c.Overhead {
				c.Overhead = lat
			}
		}
	}
	c.Cycles = c.OpsCycles + c.Overhead + s.Stall
	return c
}

// Utilization returns the fraction of issue slots doing operation work
// during the step.
func (r *Result) Utilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.IssueCycles) / float64(r.Cycles)
}
