package machine

import "fmt"

// Stats accumulates the measurable quantities behind Table 1 and the
// figure-level experiments.
type Stats struct {
	Steps  int64 // synchronous machine steps executed
	Cycles int64 // simulated cycles (max over groups per step, summed)

	Ops          int64 // executed operation slices (data-parallel work)
	ScalarOps    int64 // flow-level scalar operations
	InstrFetches int64 // instruction-memory fetches

	SharedReads  int64
	SharedWrites int64
	LocalReads   int64
	LocalWrites  int64
	MultiopRefs  int64 // multioperation/multiprefix participations

	// Memory-discipline cross-checker (Config.MemDiscipline): shared
	// accesses recorded for the step-boundary audit. Zero when the checker
	// is off.
	DiscReads  int64
	DiscWrites int64

	OverheadCycles int64 // pipeline fill + latency cycles (not doing ops)
	StallCycles    int64 // NUMA remote-reference stalls

	FlowsCreated     int64
	Splits           int64
	AutoSplits       int64 // OS-level fragmentations of overly thick flows
	Joins            int64
	FlowBranchCycles int64 // register-copy cost paid at splits (O(R) per child)
	TaskSwitches     int64
	TaskSwitchCycles int64

	Barriers int64

	// LaneChunks is always 0: no step splits a lane range any more. It
	// keeps its snapshot slot, so snapshot bytes do not move.
	//
	// Deprecated: kept only for the benchmark module, which still reads it
	// (ROADMAP item 1).
	LaneChunks int64

	MaxLiveFlows int

	PerGroupOps    []int64
	PerGroupCycles []int64

	// Stages attributes the run's costs to the Figure 13 pipeline stages:
	// frontend (task rotation, flow branching), operation generation
	// (fetch + execute), memory resolution (latency, stalls) and commit
	// (writeback events; commit itself costs no cycles in the model).
	Stages [NumStages]StageStats
}

// Stage identifies one stage of the Figure 13 processor pipeline for
// per-stage cost attribution.
type Stage int

const (
	// StageFrontend is the TCF storage buffer: task rotation, flow
	// branching (splits/joins) and balanced splitting of overly thick
	// flows.
	StageFrontend Stage = iota
	// StageOpGen is thickness-driven operation generation: instruction
	// fetch and operation-slice execution.
	StageOpGen
	// StageMemory is shared/local memory resolution: pipeline/latency
	// overhead and NUMA stalls.
	StageMemory
	// StageCommit is writeback at the step boundary: buffered write commit
	// and multioperation resolution.
	StageCommit

	// NumStages sizes per-stage arrays.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageFrontend:
		return "frontend"
	case StageOpGen:
		return "opgen"
	case StageMemory:
		return "memory"
	case StageCommit:
		return "commit"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// StageStats is one stage's share of the run: cycles on the critical path
// and countable stage events (fetches, memory references, committed writes,
// task switches + flow branches, depending on the stage).
type StageStats struct {
	Cycles int64
	Events int64
}

// Utilization returns the fraction of group-cycles spent executing operation
// slices (the paper's processor utilization).
func (s *Stats) Utilization() float64 {
	groups := len(s.PerGroupCycles)
	if groups == 0 || s.Cycles == 0 {
		return 0
	}
	total := float64(s.Cycles) * float64(groups)
	return float64(s.Ops+s.ScalarOps) / total
}

func (s *Stats) String() string {
	return fmt.Sprintf("steps=%d cycles=%d ops=%d(+%d scalar) fetches=%d util=%.3f shared r/w=%d/%d local r/w=%d/%d flows=%d splits=%d",
		s.Steps, s.Cycles, s.Ops, s.ScalarOps, s.InstrFetches, s.Utilization(),
		s.SharedReads, s.SharedWrites, s.LocalReads, s.LocalWrites, s.FlowsCreated, s.Splits)
}

// Output is one PRINT/PRINTS record.
type Output struct {
	Flow   int
	Step   int64
	Values []int64 // PRINT: one value per lane (or a single scalar)
	Text   string  // PRINTS
}

func (o Output) String() string {
	if o.Text != "" {
		return fmt.Sprintf("[flow %d @step %d] %s", o.Flow, o.Step, o.Text)
	}
	return fmt.Sprintf("[flow %d @step %d] %v", o.Flow, o.Step, o.Values)
}
