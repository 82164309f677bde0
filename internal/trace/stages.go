package trace

import (
	"fmt"
	"strings"

	"tcfpram/internal/machine"
)

// StageTable renders the cumulative per-stage attribution of a finished
// run: how the simulated cycles and stage events distribute over the
// Figure 13 pipeline stages (frontend, operation generation, memory
// resolution, commit).
func StageTable(s *machine.Stats) string {
	var totalCycles, totalEvents int64
	for _, st := range s.Stages {
		totalCycles += st.Cycles
		totalEvents += st.Events
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %8s %12s\n", "stage", "cycles", "share", "events")
	for st := machine.Stage(0); st < machine.NumStages; st++ {
		share := 0.0
		if totalCycles > 0 {
			share = float64(s.Stages[st].Cycles) / float64(totalCycles)
		}
		fmt.Fprintf(&b, "%-10s %12d %7.1f%% %12d\n",
			st, s.Stages[st].Cycles, 100*share, s.Stages[st].Events)
	}
	fmt.Fprintf(&b, "%-10s %12d %8s %12d  (%d steps)\n", "total", totalCycles, "", totalEvents, s.Steps)
	return b.String()
}
