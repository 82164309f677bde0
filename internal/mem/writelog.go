package mem

import "slices"

// Issue names the references one instruction issued in a step: N of them, by
// threads Thread0 … Thread0+N-1 of Flow at issue sequence Seq. The key of the
// i-th is (Flow, Thread0+i, Seq): derived from the header, never stored per
// word.
type Issue struct {
	Flow, Seq, Thread0, N int
}

// Key returns the key of the i-th reference.
func (r *Issue) Key(i int) Key { return Key{Flow: r.Flow, Thread: r.Thread0 + i, Seq: r.Seq} }

// Continues reports whether a reference with key k continues r: same flow and
// sequence, the next thread.
func (r *Issue) Continues(k Key) bool {
	return r.Flow == k.Flow && r.Seq == k.Seq && r.Thread0+r.N == k.Thread
}

// Run heads the stores one instruction issued in a step and says where their
// words are. Its addresses are a stretch of N words of the log's Addrs column
// unless the run is Dense: then they are Base, Base+1, …, Base+N-1 and take no
// column. Its values are a stretch of N words of Vals unless the run holds
// them by reference: in Ref, a slice of a register bank that stays as it is
// until the step commits, or, when Form is set, as the affine form
// VBase + VStride·i. Whoever opens a by-reference run vouches for that.
type Run struct {
	Issue
	Base           int64
	Ref            []int64
	VBase, VStride int64
	Dense, Form    bool
}

// copied reports whether both of the run's columns are stretches of its log's.
func (r *Run) copied() bool { return !r.Dense && r.Ref == nil && !r.Form }

// byRef reports whether the run's values take no stretch of its log's Vals.
func (r *Run) byRef() bool { return r.Ref != nil || r.Form }

// WriteLog is a step's buffered stores at the granularity the model issues
// them: one Run header per instruction and two columns, addresses and
// values, holding back to back, in buffering order, the words of the runs
// that take a stretch of them. Whoever generates a step owns its log;
// Shared.BufferLog retains a pointer until ApplyStep has committed it, so the
// owner truncates it only when the next step begins.
type WriteLog struct {
	Addrs, Vals []int64
	Runs        []Run
	n           int // the runs' N, summed
}

// Len returns the number of buffered stores.
func (l *WriteLog) Len() int { return l.n }

// Reset empties the log, keeping its arrays and dropping the runs' hold on
// the banks they referred to.
func (l *WriteLog) Reset() {
	clear(l.Runs)
	l.Addrs, l.Vals, l.Runs, l.n = l.Addrs[:0], l.Vals[:0], l.Runs[:0], 0
}

// extend accounts n more stores, the first of key k and the rest of the
// threads after it, to the open run if it is copied and they continue it, and
// to a new copied run otherwise.
func (l *WriteLog) extend(k Key, n int) {
	l.n += n
	if last := len(l.Runs) - 1; last >= 0 && l.Runs[last].copied() && l.Runs[last].Continues(k) {
		l.Runs[last].N += n
		return
	}
	l.Runs = append(l.Runs, Run{})
	l.Runs[len(l.Runs)-1].Issue = Issue{Flow: k.Flow, Seq: k.Seq, Thread0: k.Thread, N: n}
}

// Append buffers one store.
func (l *WriteLog) Append(addr, val int64, k Key) {
	l.extend(k, 1)
	l.Addrs = append(l.Addrs, addr)
	l.Vals = append(l.Vals, val)
}

// Open buffers the run *r and returns the stretches of the columns it takes,
// r.N words each, for the caller to fill, every word of them: nil for the
// addresses of a dense run and for values held by reference. A copied run
// that continues the open copied run extends it.
func (l *WriteLog) Open(r *Run) (addrs, vals []int64) {
	if r.copied() {
		l.extend(r.Key(0), r.N)
	} else {
		l.n += r.N
		l.Runs = append(l.Runs, *r)
	}
	if !r.Dense {
		at := len(l.Addrs)
		l.Addrs = slices.Grow(l.Addrs, r.N)[:at+r.N]
		addrs = l.Addrs[at:]
	}
	if !r.byRef() {
		at := len(l.Vals)
		l.Vals = slices.Grow(l.Vals, r.N)[:at+r.N]
		vals = l.Vals[at:]
	}
	return addrs, vals
}

// AppendLog buffers o's stores behind l's own, in o's order; its by-reference
// runs stay by reference. A first run of o that continues l's last run, both
// copied, becomes one run with it.
func (l *WriteLog) AppendLog(o *WriteLog) {
	if len(o.Runs) == 0 {
		return
	}
	runs, n := o.Runs, o.n
	if runs[0].copied() {
		l.extend(runs[0].Key(0), runs[0].N)
		runs, n = runs[1:], n-runs[0].N
	}
	l.n += n
	l.Runs = append(l.Runs, runs...)
	l.Addrs = append(l.Addrs, o.Addrs...)
	l.Vals = append(l.Vals, o.Vals...)
}
