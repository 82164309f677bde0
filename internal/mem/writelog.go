package mem

import "slices"

// Run heads the stores one instruction issued in a step: N consecutive
// entries of the log's columns, written by threads Thread0 … Thread0+N-1 of
// Flow at issue sequence Seq. The key of a run's i-th write is (Flow,
// Thread0+i, Seq): derived from the header, never stored per word. Dense
// marks a run whose addresses ascend by one, as its issuer knows without
// reading them (WriteLog.MarkDense): the commit classifies such a run by its
// ends, without a pass over its addresses.
type Run struct {
	Flow, Seq, Thread0, N int
	Dense                 bool
}

// Key returns the key of the run's i-th write.
func (r *Run) Key(i int) Key { return Key{Flow: r.Flow, Thread: r.Thread0 + i, Seq: r.Seq} }

// Continues reports whether a reference with key k continues r: same flow and
// sequence, the next thread.
func (r *Run) Continues(k Key) bool {
	return r.Flow == k.Flow && r.Seq == k.Seq && r.Thread0+r.N == k.Thread
}

// WriteLog is a step's buffered stores at the granularity the model issues
// them: one Run header per instruction and two columns, addresses and
// values, holding the runs' words back to back in buffering order. The sum
// of the runs' N is the length of both columns. Whoever generates a step owns
// its log; Shared.BufferLog retains a pointer until ApplyStep has committed
// it, so the owner truncates it only when the next step begins.
type WriteLog struct {
	Addrs, Vals []int64
	Runs        []Run
}

// Len returns the number of buffered stores.
func (l *WriteLog) Len() int { return len(l.Addrs) }

// Reset empties the log, keeping its arrays.
func (l *WriteLog) Reset() {
	l.Addrs, l.Vals, l.Runs = l.Addrs[:0], l.Vals[:0], l.Runs[:0]
}

// extend accounts n more stores, the first of key k and the rest of the
// threads after it, to the open run if they continue it, and to a new run
// otherwise.
func (l *WriteLog) extend(k Key, n int) {
	if last := len(l.Runs) - 1; last >= 0 && l.Runs[last].Continues(k) {
		l.Runs[last].N += n
		l.Runs[last].Dense = false
		return
	}
	l.Runs = append(l.Runs, Run{Flow: k.Flow, Seq: k.Seq, Thread0: k.Thread, N: n})
}

// Append buffers one store.
func (l *WriteLog) Append(addr, val int64, k Key) {
	l.extend(k, 1)
	l.Addrs = append(l.Addrs, addr)
	l.Vals = append(l.Vals, val)
}

// Open buffers the n stores of threads thread0 … thread0+n-1 of one
// instruction and returns their stretch of each column for the caller to
// fill, every word of it.
func (l *WriteLog) Open(flow, seq, thread0, n int) (addrs, vals []int64) {
	l.extend(Key{Flow: flow, Thread: thread0, Seq: seq}, n)
	at := len(l.Addrs)
	l.Addrs = slices.Grow(l.Addrs, n)[:at+n]
	l.Vals = slices.Grow(l.Vals, n)[:at+n]
	return l.Addrs[at:], l.Vals[at:]
}

// MarkDense marks the last run dense if it holds the n stores the last Open
// buffered and no others — a run Open extended stays unmarked. The caller
// vouches that their addresses ascend by one.
func (l *WriteLog) MarkDense(n int) {
	if r := &l.Runs[len(l.Runs)-1]; r.N == n {
		r.Dense = true
	}
}

// AppendLog buffers o's stores behind l's own, in o's order. A first run of
// o that continues l's last run becomes one run with it.
func (l *WriteLog) AppendLog(o *WriteLog) {
	if len(o.Runs) == 0 {
		return
	}
	l.extend(o.Runs[0].Key(0), o.Runs[0].N)
	l.Runs = append(l.Runs, o.Runs[1:]...)
	l.Addrs = append(l.Addrs, o.Addrs...)
	l.Vals = append(l.Vals, o.Vals...)
}
