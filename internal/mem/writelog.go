package mem

import (
	"slices"

	"tcfpram/internal/isa"
)

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

// Operand is one side of a run, its addresses or its values, read where it
// lies: lane i is Lanes[i] + Base when Lanes is set, and the form Base +
// Stride·i otherwise. A copied side is its stretch of the log's column; a
// flow-common address or value is a form of stride 0, a dense address one of
// stride 1, and a thread-wise register its bank, plus the instruction's
// offset for an address.
type Operand struct {
	Lanes        []int64
	Base, Stride int64
}

// At returns lane i. It and read, its bulk form, are the one lane reader of
// both logs: whatever reads a side's words — the commit, its table, the
// combiners — reads them through these two.
func (o *Operand) At(i int) int64 {
	if o.Lanes != nil {
		return o.Lanes[i] + o.Base
	}
	return o.Base + o.Stride*int64(i)
}

// From returns the operand's lanes from lane i on.
func (o Operand) From(i int) Operand {
	if o.Lanes != nil {
		o.Lanes = o.Lanes[i:]
	} else {
		o.Base += o.Stride * int64(i)
	}
	return o
}

// Span returns the interval lanes [0, n) of the form o lie in, n > 0, and
// false when they wrap around the int64 range.
func (o *Operand) Span(n int) (lo, hi int64, ok bool) {
	d := o.Stride * int64(n-1)
	last := o.Base + d
	if o.Stride != 0 && (d/o.Stride != int64(n-1) || (last < o.Base) != (d < 0)) {
		return 0, 0, false
	}
	return min(o.Base, last), max(o.Base, last), true
}

// plain reports whether o is lanes and nothing else, as a copied side is.
func (o *Operand) plain() bool { return o.Lanes != nil && o.Base == 0 }

// read writes lanes [i, i+len(dst)) into dst: a form's ramp, or the lanes
// plus the offset.
func (o *Operand) read(dst []int64, i int) {
	switch {
	case o.Lanes == nil:
		isa.Ramp(dst, o.Base+o.Stride*int64(i), o.Stride)
	case o.Base == 0:
		copy(dst, o.Lanes[i:])
	default:
		isa.EvalVS(isa.ADD, dst, o.Lanes[i:], o.Base)
	}
}

// side says where one side of a run lies in its log: N words of the column
// (copied), or its form's base and stride there and, when it has lanes, the
// next of the log's refs (withLanes).
type side uint8

const (
	copied side = iota
	form
	withLanes
)

// Run heads the references one instruction issued in a step and says where
// its two sides lie in its log. A run's words are read where they lie when
// the step commits: whoever refers a side to a register's lanes vouches that
// they stand as they are until then.
type Run struct {
	Issue
	addr, val side
}

// copied reports whether both of the run's sides are stretches of its log's
// columns.
func (r *Run) copied() bool { return r.addr == copied && r.val == copied }

func (r *Run) head() *Run { return r }

// header is what a log's run type is: Run, or a type that embeds it.
type header[R any] interface {
	*R
	head() *Run
}

// Log is a step's traffic of one kind at the granularity the model issues
// it: one header R per instruction and two columns, addresses and values,
// holding back to back, in arrival order, what the runs keep in them — N
// words of a copied side, the base and stride of a form — and refs, the
// lanes of the sides that have them. The stores are a WriteLog; each
// combining operator's references a multiop.Log, whose runs add where their
// prefixes go. Whoever generates a step owns its logs; the memory or a
// combiner retains a pointer until the step commits, so the owner empties a
// log only when the next step begins.
//
// The filler may report, run by run, the interval its addresses span
// (Bound); a log whose every run is bounded gives the combiners the interval
// without another pass over the addresses. A form's interval the log knows
// itself.
type Log[R any, H header[R]] struct {
	Addrs, Vals []int64
	Runs        []R
	refs        [][]int64
	n           int // the runs' N, summed
	// lo and hi bound the addresses of the first bounded references.
	lo, hi  int64
	bounded int
}

// WriteLog is a step's stores.
type WriteLog = Log[Run, *Run]

// Len returns the number of references.
func (l *Log[R, H]) Len() int { return l.n }

// Reset empties the log, keeping its arrays and dropping its hold on lanes:
// the refs', and the runs' where R carries more than a Run (a Prefix).
func (l *Log[R, H]) Reset() {
	if _, plain := any(H(nil)).(*Run); !plain {
		clear(l.Runs)
	}
	clear(l.refs)
	l.Addrs, l.Vals, l.Runs, l.refs = l.Addrs[:0], l.Vals[:0], l.Runs[:0], l.refs[:0]
	l.n, l.bounded = 0, 0
}

// Bounds returns the interval [lo, hi] the log's addresses lie in, and false
// when a run of it is not bounded.
func (l *Log[R, H]) Bounds() (lo, hi int64, ok bool) {
	return l.lo, l.hi, l.bounded == l.n
}

// Bound reports that the addresses of the run recorded last lie in [lo, hi].
// It is a promise the combiners rely on: an address outside it panics there.
// A run whose addresses are a form is bounded by Refer, and Bound leaves it
// be.
func (l *Log[R, H]) Bound(lo, hi int64) {
	if r := H(&l.Runs[len(l.Runs)-1]).head(); r.addr != form {
		l.widen(lo, hi, r.N)
	}
}

// widen counts n more references as bounded, within [lo, hi].
func (l *Log[R, H]) widen(lo, hi int64, n int) {
	if l.bounded == 0 {
		l.lo, l.hi = lo, hi
	} else {
		l.lo, l.hi = min(l.lo, lo), max(l.hi, hi)
	}
	l.bounded += n
}

// Open records a run of the references is with both sides copied. It
// returns the run, for the caller to add what its type carries besides, and
// its stretch of each column, is.N words long, for the caller to fill, every
// word of it.
func (l *Log[R, H]) Open(is Issue) (r *R, addrs, vals []int64) {
	r = l.push(is, copied, copied)
	n := is.N
	l.n += n
	at := len(l.Addrs)
	l.Addrs = slices.Grow(l.Addrs, n)[:at+n]
	l.Vals = slices.Grow(l.Vals, n)[:at+n]
	return r, l.Addrs[at:], l.Vals[at:]
}

// Refer records a run of the references is whose addresses are *a and values
// *v, read where they lie when the step commits, and returns it, for the
// caller to add what its type carries besides. An address form bounds the
// run itself.
func (l *Log[R, H]) Refer(is Issue, a, v *Operand) (r *R) {
	n := is.N
	r = l.push(is, l.hold(&l.Addrs, a, n), l.hold(&l.Vals, v, n))
	l.n += n
	if a.Lanes == nil {
		if lo, hi, ok := a.Span(n); ok {
			l.widen(lo, hi, n)
		}
	}
	return r
}

// hold keeps o, a side of n lanes, in the column col and the log's refs.
func (l *Log[R, H]) hold(col *[]int64, o *Operand, n int) side {
	*col = append(*col, o.Base, o.Stride)
	if o.Lanes == nil {
		return form
	}
	l.refs = append(l.refs, o.Lanes[:n])
	return withLanes
}

// Append records one reference of key k, bounded by its address: as the next
// of the run recorded last when that is copied and k continues it, and as a
// new copied run otherwise.
func (l *Log[R, H]) Append(addr, val int64, k Key) {
	l.extend(k, 1)
	l.Addrs, l.Vals = append(l.Addrs, addr), append(l.Vals, val)
	l.widen(addr, addr, 1)
}

// extend accounts n more copied references, the first of key k and the rest
// of the threads after it, to the run recorded last if it is copied and they
// continue it, and to a new copied run otherwise.
func (l *Log[R, H]) extend(k Key, n int) {
	l.n += n
	if last := len(l.Runs) - 1; last >= 0 {
		if r := H(&l.Runs[last]).head(); r.copied() && r.Continues(k) {
			r.N += n
			return
		}
	}
	l.push(Issue{Flow: k.Flow, Seq: k.Seq, Thread0: k.Thread, N: n}, copied, copied)
}

// push appends a run of the references is, its sides as a and v say and
// carrying nothing else yet, and returns it.
func (l *Log[R, H]) push(is Issue, a, v side) *R {
	l.Runs = append(l.Runs, *new(R))
	p := &l.Runs[len(l.Runs)-1]
	h := H(p).head()
	h.Issue, h.addr, h.val = is, a, v
	return p
}

// appendLog records o's references behind l's own, in o's order, each side
// where it lies, and leaves them unbounded. A first run of o that continues
// l's last run, both copied, becomes one run with it.
func (l *Log[R, H]) appendLog(o *Log[R, H]) {
	if len(o.Runs) == 0 {
		return
	}
	runs, n := o.Runs, o.n
	if first := H(&runs[0]).head(); first.copied() {
		l.extend(first.Key(0), first.N)
		runs, n = runs[1:], n-first.N
	}
	l.n += n
	l.Runs = append(l.Runs, runs...)
	l.Addrs = append(l.Addrs, o.Addrs...)
	l.Vals = append(l.Vals, o.Vals...)
	l.refs = append(l.refs, o.refs...)
}

// Cursor returns a cursor at the log's first run.
func (l *Log[R, H]) Cursor() Cursor { return Cursor{addrs: l.Addrs, vals: l.Vals, refs: l.refs} }

// Cursor reads where the sides of a log's runs lie, run after run: Addr,
// then Val, for each.
type Cursor struct {
	addrs, vals []int64
	refs        [][]int64
}

// Addr sets o to the addresses of r, the run after the one read last (the
// first, at first).
func (rd *Cursor) Addr(r *Run, o *Operand) { rd.side(o, r.addr, &rd.addrs, r.N) }

// Val sets o to the values of r, whose addresses Addr read last.
func (rd *Cursor) Val(r *Run, o *Operand) { rd.side(o, r.val, &rd.vals, r.N) }

func (rd *Cursor) side(o *Operand, s side, col *[]int64, n int) {
	c := *col
	if s == copied {
		*col = c[n:]
		o.Lanes, o.Base = c[:n], 0
		return
	}
	*col = c[2:]
	o.Lanes, o.Base, o.Stride = nil, c[0], c[1]
	if s == withLanes {
		o.Lanes, rd.refs = rd.refs[0], rd.refs[1:]
	}
}
