package main

import "time"

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"` // index of the enclosing span, -1 for an operation's root
	Op     int              `json:"op_id"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. With on unset it
// records nothing, which is how the tracing overhead is measured.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	} else {
		r.op++
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op})
	r.stack = append(r.stack, id)
	r.spans[id].Start = time.Since(r.t0).Nanoseconds()
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if !r.on {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// count attaches a count to a span, taken at the same boundary.
func (r *recorder) count(id int, key string, v int64) {
	if !r.on {
		return
	}
	if r.spans[id].Counts == nil {
		r.spans[id].Counts = map[string]int64{}
	}
	r.spans[id].Counts[key] = v
}

// spanTotals sums, per span name, the spans' durations and self times: a
// span's self time is its duration minus the durations of its children.
type spanTotals struct {
	total, self map[string]int64
	calls       map[string]int64
}

func totals(spans []span) spanTotals {
	t := spanTotals{total: map[string]int64{}, self: map[string]int64{}, calls: map[string]int64{}}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		t.total[s.Name] += d
		t.self[s.Name] += d - children[i]
		t.calls[s.Name]++
	}
	return t
}

// meanUs is the mean duration of the spans of one name, in microseconds.
func (t spanTotals) meanUs(name string) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(t.calls[name]) / 1e3
}
