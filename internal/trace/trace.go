// Package trace renders machine execution traces as ASCII schedules,
// reproducing the shape of the paper's execution figures (Figures 4 and
// 6-12): which flow executed how many operation slices on which processor
// group in each step.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tcfpram/internal/machine"
)

// Timeline renders one row per step and one column per group; each cell
// lists the executed slices as "f<id>:<OP>xN" (N = lanes; "/N" marks NUMA
// bunch instructions).
func Timeline(m *machine.Machine) string {
	recs := m.Trace()
	groups := m.Config().Groups
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "step")
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&b, " | %-28s", fmt.Sprintf("G%d", g))
	}
	b.WriteByte('\n')
	for _, rec := range recs {
		cells := make([][]string, groups)
		for _, s := range rec.Slices {
			sep := "x"
			if s.NUMA {
				sep = "/"
			}
			cells[s.Group] = append(cells[s.Group],
				fmt.Sprintf("f%d:%s%s%d", s.Flow, s.Op, sep, s.Lanes))
		}
		fmt.Fprintf(&b, "%-6d", rec.Step)
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&b, " | %-28s", strings.Join(cells[g], " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Gantt renders the operation-slice occupancy of each group per step: one
// character per executed operation slice, labelled by the flow id (mod 10).
// The unbalanced execution of thick vs thin flows (Figure 7), the bounded
// slices of the balanced variant (Figure 8) and the thin stripes of
// thickness-1 thread machines (Figures 10-11) are directly visible.
func Gantt(m *machine.Machine) string {
	recs := m.Trace()
	groups := m.Config().Groups
	var b strings.Builder
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&b, "G%d:\n", g)
		for _, rec := range recs {
			var row strings.Builder
			for _, s := range rec.Slices {
				if s.Group != g {
					continue
				}
				ch := byte('0' + s.Flow%10)
				n := s.Lanes
				if n < 1 {
					n = 1
				}
				for i := 0; i < n; i++ {
					row.WriteByte(ch)
				}
				row.WriteByte(' ')
			}
			if row.Len() == 0 {
				continue
			}
			fmt.Fprintf(&b, "  step %-4d |%s\n", rec.Step, strings.TrimRight(row.String(), " "))
		}
	}
	return b.String()
}

// ThicknessTimeline reports the lane count the given flow executed per step
// — the thickness evolution of a TCF (Figure 4). Steps where the flow did
// not execute are omitted.
func ThicknessTimeline(m *machine.Machine, flowID int) []int {
	var out []int
	for _, rec := range m.Trace() {
		lanes, saw := 0, false
		for _, s := range rec.Slices {
			if s.Flow != flowID {
				continue
			}
			saw = true
			if s.Lanes > lanes {
				lanes = s.Lanes
			}
		}
		if saw {
			out = append(out, lanes)
		}
	}
	return out
}

// FlowSpans summarizes, per flow, the first and last step it executed and
// the total operation slices — the block structure of a TCF program
// (Figure 3).
type FlowSpan struct {
	Flow        int
	FirstStep   int64
	LastStep    int64
	TotalSlices int
	MaxLanes    int
}

// Spans computes the FlowSpan of every flow that executed.
func Spans(m *machine.Machine) []FlowSpan {
	byFlow := map[int]*FlowSpan{}
	for _, rec := range m.Trace() {
		for _, s := range rec.Slices {
			sp, ok := byFlow[s.Flow]
			if !ok {
				sp = &FlowSpan{Flow: s.Flow, FirstStep: rec.Step}
				byFlow[s.Flow] = sp
			}
			sp.LastStep = rec.Step
			sp.TotalSlices += s.Lanes
			if s.Lanes > sp.MaxLanes {
				sp.MaxLanes = s.Lanes
			}
		}
	}
	out := make([]FlowSpan, 0, len(byFlow))
	for _, sp := range byFlow {
		out = append(out, *sp)
	}
	slices.SortFunc(out, func(a, b FlowSpan) int { return cmp.Compare(a.Flow, b.Flow) })
	return out
}

// CSV exports the trace as "step,group,slot,flow,pc,op,lanes,numa" rows.
func CSV(m *machine.Machine) string {
	var b strings.Builder
	b.WriteString("step,group,slot,flow,pc,op,lanes,numa\n")
	for _, rec := range m.Trace() {
		for _, s := range rec.Slices {
			fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%s,%d,%t\n",
				rec.Step, s.Group, s.Slot, s.Flow, s.PC, s.Op, s.Lanes, s.NUMA)
		}
	}
	return b.String()
}
