// Package multiop implements the step-granular combining memory operations
// of the (extended) PRAM-NUMA model: multioperations (all participating
// threads of a step combine into one shared-memory word) and multiprefixes
// (each thread additionally receives the running value before its own
// contribution, ordered by flow id and thread index).
//
// The model assumes the active-memory/combining hardware of ESM machines
// executes these with constant latency per step; this package reproduces the
// semantics and provides a combining-tree latency estimate for the cost
// model.
package multiop

import (
	"fmt"
	"math"
	"slices"

	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
)

// Contribution is one thread's participation in a combining operation on a
// word during a step.
type Contribution struct {
	Addr int64
	Val  int64
	Key  Key
	// WantPrefix marks multiprefix participants that receive the running
	// value; plain multioperation participants set it false.
	WantPrefix bool
	// Dest tags where the caller wants the prefix routed (opaque to this
	// package: the combiner just echoes it).
	Dest int
}

// Key orders contributions: lower (Flow, Thread, Seq) combines earlier — the
// same key, in the same order, that arbitrates concurrent writes.
type Key = mem.Key

// Result delivers the prefix value for one WantPrefix contribution.
type Result struct {
	Key    Key
	Dest   int
	Prefix int64
}

// Final is the value a step's combining traffic leaves in one word.
type Final struct {
	Addr int64
	Val  int64
}

// Run heads the combining references one instruction issued in a step: N
// of them, by threads Thread0 … Thread0+N-1 of Flow at sequence Seq, their
// keys derived as for a mem.Issue. Its addresses and values lie where the log
// that holds it was told: copied into the log's columns (Log.Open) or read
// where they lie (Log.Refer). A multiprefix run carries where its results go:
// Prefix[i] receives the running value the i-th reference met, after its own
// address and value were read, so Prefix may be the very lanes a side refers
// to. A multioperation run has a nil Prefix.
type Run struct {
	mem.Issue
	Prefix    []int64
	addr, val side
}

// side says where one side of a run, its addresses or its values, lies in its
// log: N words of the column (copied), or its form's base and stride there,
// and its lanes, when it has them, the next of the log's refs (withLanes).
type side uint8

const (
	copied side = iota
	form
	withLanes
)

// Operand is one side of a run read where it lies: lane i is Base + Stride·i,
// plus Lanes[i] when Lanes is set. A flow-common address is a form of stride
// 0, and a thread-wise register its bank, plus the instruction's offset for an
// address.
type Operand struct {
	Lanes        []int64
	Base, Stride int64
}

// at returns lane i.
func (o *Operand) at(i int) int64 {
	v := o.Base + o.Stride*int64(i)
	if o.Lanes != nil {
		v += o.Lanes[i]
	}
	return v
}

// from returns the operand's lanes from lane i on.
func (o Operand) from(i int) Operand {
	o.Base += o.Stride * int64(i)
	if o.Lanes != nil {
		o.Lanes = o.Lanes[i:]
	}
	return o
}

// span returns the interval lanes [0, n) of the form o lie in, and false when
// they wrap around the int64 range.
func (o *Operand) span(n int) (lo, hi int64, ok bool) {
	d := o.Stride * int64(n-1)
	last := o.Base + d
	if o.Stride != 0 && (d/o.Stride != int64(n-1) || (last < o.Base) != (d < 0)) {
		return 0, 0, false
	}
	return min(o.Base, last), max(o.Base, last), true
}

// Log is a step's combining traffic for one operator at the granularity the
// model issues it: one Run per instruction and two columns, addresses and
// values, holding back to back in arrival order what the runs keep in them —
// N words of a copied side, the base and stride of a side read in place.
// Whoever generates a step owns its logs; Combiner.AddLog retains a pointer
// until Resolve, so the owner empties a log only when the next step begins,
// and whoever refers a run to a register's lanes vouches that they stand as
// they are until then.
//
// The filler may report, run by run, the interval its addresses span (Bound),
// which it learns while filling the column or noting the references; a log
// whose every run is bounded gives Resolve the interval without another pass
// over the addresses. A form's interval the log knows itself.
type Log struct {
	Addrs, Vals []int64
	Runs        []Run
	refs        [][]int64 // the lanes of sides withLanes, in run order, addresses first
	n           int       // the runs' N, summed
	// lo and hi bound the addresses of the first bounded references.
	lo, hi  int64
	bounded int
}

// Len returns the number of references.
func (l *Log) Len() int { return l.n }

// Reset empties the log, keeping its arrays and dropping the runs' hold on
// their prefix destinations and on the lanes they referred to.
func (l *Log) Reset() {
	clear(l.Runs)
	clear(l.refs)
	l.Addrs, l.Vals, l.Runs, l.refs = l.Addrs[:0], l.Vals[:0], l.Runs[:0], l.refs[:0]
	l.n, l.bounded = 0, 0
}

// Bound reports that the addresses of the run opened last lie in [lo, hi].
// It is a promise Resolve relies on: an address outside it panics there. A
// run whose addresses are a form is bounded by Refer, and Bound leaves it be.
func (l *Log) Bound(lo, hi int64) {
	if r := &l.Runs[len(l.Runs)-1]; r.addr != form {
		l.widen(lo, hi, r.N)
	}
}

// widen counts n more references as bounded, within [lo, hi].
func (l *Log) widen(lo, hi int64, n int) {
	if l.bounded == 0 {
		l.lo, l.hi = lo, hi
	} else {
		l.lo, l.hi = min(l.lo, lo), max(l.hi, hi)
	}
	l.bounded += n
}

// Open records the run r with both sides copied and returns its stretch of
// each column, r.N long, for the caller to fill, every word of it.
func (l *Log) Open(r Run) (addrs, vals []int64) {
	r.addr, r.val = copied, copied
	l.Runs = append(l.Runs, r)
	l.n += r.N
	at := len(l.Addrs)
	l.Addrs = slices.Grow(l.Addrs, r.N)[:at+r.N]
	l.Vals = slices.Grow(l.Vals, r.N)[:at+r.N]
	return l.Addrs[at:], l.Vals[at:]
}

// Refer records the run r whose addresses are a and values v, read where they
// lie when the step resolves: the lanes of a side, if it has them, must stand
// unchanged until then. An address form bounds the run itself.
func (l *Log) Refer(r Run, a, v Operand) {
	r.addr, r.val = l.hold(&l.Addrs, a, r.N), l.hold(&l.Vals, v, r.N)
	l.Runs = append(l.Runs, r)
	l.n += r.N
	if a.Lanes == nil {
		if lo, hi, ok := a.span(r.N); ok {
			l.widen(lo, hi, r.N)
		}
	}
}

// hold keeps o, a side of n lanes, in the column col and the log's refs.
func (l *Log) hold(col *[]int64, o Operand, n int) side {
	*col = append(*col, o.Base, o.Stride)
	if o.Lanes == nil {
		return form
	}
	l.refs = append(l.refs, o.Lanes[:n])
	return withLanes
}

// runRef is one run in the order Resolve folds it: its header and both of its
// sides where they lie; for a run of the combiner's own log, off is where its
// references' Dests start.
type runRef struct {
	mem.Issue
	prefix    []int64
	addr, val Operand
	own       bool
	off       int
}

func (r *runRef) first() Key { return r.Key(0) }
func (r *runRef) last() Key  { return r.Key(r.N - 1) }

// Combiner accumulates one step's combining traffic for a single combining
// operator (ADD, AND, OR, MAX or MIN, expressed as the isa opcode).
type Combiner struct {
	kind isa.Op
	// logs are the step's logs in arrival order, retained by pointer from
	// AddLog until Resolve or Reset. own is the log Add fills, folded behind
	// them, and dests the Dest of each of its references; a run of it that
	// wants prefixes carries wanted until Resolve gives it room in pvals, from
	// where they go out as Results.
	logs  []*Log
	own   Log
	dests []int
	pvals []int64
	// refs (the runs in fold order), finals (the per-address accumulators,
	// in first-touch order), their address table and prefixes are reused
	// across Resolve calls so steady-state steps allocate nothing.
	refs     []runRef
	finals   []Final
	tab      addrTable
	prefixes []Result
	// indexed says whether the step's addresses find their accumulators by
	// their offset from lo; unfolded holds an address form's lanes.
	indexed  bool
	lo       int64
	unfolded []int64

	stats Stats
}

// Stats counts what a combiner has resolved since it was built or its
// counters were cleared: references, accumulators (one per address and
// step) and the references resolved through the index. Host-side bookkeeping
// only: it is in no snapshot and no simulated statistic.
type Stats struct {
	Refs, Accumulators, IndexedRefs int64
}

// Add sums two counts.
func (s Stats) Add(o Stats) Stats {
	return Stats{Refs: s.Refs + o.Refs, Accumulators: s.Accumulators + o.Accumulators, IndexedRefs: s.IndexedRefs + o.IndexedRefs}
}

func (s Stats) String() string {
	return fmt.Sprintf("combine: refs=%d accumulators=%d indexed_refs=%d", s.Refs, s.Accumulators, s.IndexedRefs)
}

// Stats returns the combiner's counters.
func (c *Combiner) Stats() Stats { return c.stats }

// ClearStats zeroes the combiner's counters.
func (c *Combiner) ClearStats() { c.stats = Stats{} }

// Kinds lists the combining operators, expressed as isa opcodes, in the
// order a step resolves their traffic.
var Kinds = [...]isa.Op{isa.ADD, isa.AND, isa.OR, isa.MAX, isa.MIN}

// KindIndex returns the position of kind in Kinds. It panics for any other
// opcode.
func KindIndex(kind isa.Op) int {
	for i, k := range Kinds {
		if k == kind {
			return i
		}
	}
	panic(fmt.Sprintf("multiop: invalid combining operator %s", kind))
}

// NewCombiner returns a Combiner for the given combining operator.
func NewCombiner(kind isa.Op) *Combiner {
	KindIndex(kind) // panics on a non-combining opcode
	return &Combiner{kind: kind}
}

// NewCombinerBank builds one combiner per kind of Kinds, in that order, all
// backed by a single allocation (a machine carries the whole bank; fresh
// machines are built in hot harness loops).
func NewCombinerBank() [len(Kinds)]*Combiner {
	arr := new([len(Kinds)]Combiner)
	var out [len(Kinds)]*Combiner
	for i, kind := range Kinds {
		arr[i].kind = kind
		out[i] = &arr[i]
	}
	return out
}

// Kind returns the combining operator.
func (c *Combiner) Kind() isa.Op { return c.kind }

// wanted stands, in a run of a combiner's own log, for the destination of
// prefixes that are to come back as Results.
var wanted = make([]int64, 0)

// Add records a contribution. It is AddLog for callers that hold single
// contributions: consecutive ones of one flow and sequence by ascending
// threads, alike in wanting a prefix, become one run of the combiner's own
// log, and their prefixes come back from Resolve as Results.
func (c *Combiner) Add(ct Contribution) {
	l := &c.own
	if last := len(l.Runs) - 1; last >= 0 && l.Runs[last].Continues(ct.Key) && (l.Runs[last].Prefix != nil) == ct.WantPrefix {
		l.Runs[last].N++
	} else {
		r := Run{Issue: mem.Issue{Flow: ct.Key.Flow, Seq: ct.Key.Seq, Thread0: ct.Key.Thread, N: 1}}
		if ct.WantPrefix {
			r.Prefix = wanted
		}
		l.Runs = append(l.Runs, r)
	}
	l.n++
	l.Addrs = append(l.Addrs, ct.Addr)
	l.Vals = append(l.Vals, ct.Val)
	l.widen(ct.Addr, ct.Addr, 1)
	c.dests = append(c.dests, ct.Dest)
}

// AddLog hands the combiner a step's log, to be folded by Resolve in the
// order of the calls (and ahead of what Add recorded). The log is retained,
// not copied: it must stay as it is until Resolve or Reset.
func (c *Combiner) AddLog(l *Log) {
	if l.Len() > 0 {
		c.logs = append(c.logs, l)
	}
}

// Len returns the number of recorded contributions.
func (c *Combiner) Len() int {
	n := c.own.Len()
	for _, l := range c.logs {
		n += l.Len()
	}
	return n
}

// Reset discards any recorded contributions, keeping the backing arenas. A
// run that stops between Add and Resolve (quota abort, cancellation) leaves
// traffic behind; pooled machines clear it here before reuse.
func (c *Combiner) Reset() {
	clear(c.logs)
	c.logs = c.logs[:0]
	c.own.Reset()
	c.dests = c.dests[:0]
	clear(c.refs)
	c.refs = c.refs[:0]
}

// Apply combines a pair under the given operator: the ALU operation of that
// opcode, restricted to the combining kinds.
func Apply(kind isa.Op, a, b int64) int64 {
	KindIndex(kind) // panics on a non-combining opcode
	return isa.Eval(kind, a, b)
}

// Resolve combines all contributions against the read function (pre-step
// memory state), returning the final value per touched address, in the order
// the addresses were first touched, and the prefix results for Add's
// WantPrefix contributions; a log's multiprefix runs receive theirs in place.
// The prefix a participant sees is the combined value of the memory word and
// all lower-keyed contributions to it. The operators are commutative and
// associative, so the finals need no order at all and one pass in arrival
// order folds them; prefixes need key order, which is a property of the run
// headers: runs are put in key order only when a multiprefix run is present
// and a run starts below the end of the one before it. The step's traffic is
// cleared. The returned slices are owned by the Combiner and valid only
// until the next Resolve call.
//
// Each run is read where it lies, the copied ones in their log's columns. A
// run onto one address (a form of stride 0) finds its accumulator once and
// folds its values in one pass; any other finds one per change of address,
// by the address's offset in the step's interval when every log is bounded
// and the interval is compact (mem.Compact), as the write commit's tabled
// words do, and by its hash otherwise, in a table that grows with the
// addresses met.
func (c *Combiner) Resolve(read func(addr int64) int64) (finals []Final, prefixes []Result) {
	n, lo, hi := c.gather()
	if n == 0 {
		return nil, nil
	}
	c.indexed = lo <= hi && mem.Compact(lo, hi, n)
	if c.indexed {
		c.lo = lo
		c.tab.index(int(hi - lo + 1))
		c.stats.IndexedRefs += int64(n)
	} else {
		c.tab.reset(minSlots)
	}
	c.finals = c.finals[:0]
	c.prefixes = c.prefixes[:0]
	add := c.kind == isa.ADD
	apply := isa.EvalFn(c.kind)
	// acc is the accumulator of the reference before, most often this one's
	// too; while the address repeats its value is carried in v.
	var acc *Final
	var v int64
	for i := range c.refs {
		ref := &c.refs[i]
		if a := &ref.addr; a.Lanes == nil && a.Stride == 0 {
			if acc == nil || acc.Addr != a.Base {
				if acc != nil {
					acc.Val = v
				}
				acc = c.accumulator(a.Base, read)
				v = acc.Val
			}
			v = c.fold(v, &ref.val, ref.N, ref.prefix)
		} else {
			addrs, base := a.Lanes, a.Base
			if addrs == nil {
				// A form of another stride: each lane its own address.
				c.unfolded = slices.Grow(c.unfolded[:0], ref.N)[:ref.N]
				isa.Ramp(c.unfolded, a.Base, a.Stride)
				addrs, base = c.unfolded, 0
			}
			vl, vb, vs, prefix := ref.val.Lanes, ref.val.Base, ref.val.Stride, ref.prefix
			for j, a := range addrs[:ref.N] {
				a += base
				x := vb + vs*int64(j)
				if vl != nil {
					x += vl[j]
				}
				if acc == nil || acc.Addr != a {
					if acc != nil {
						acc.Val = v
					}
					// A word met before is found inline; accumulator makes
					// a new one.
					if k := c.tab.slots[c.slot(a)]; k != 0 {
						acc = &c.finals[k-1]
					} else {
						acc = c.accumulator(a, read)
					}
					v = acc.Val
				}
				if prefix != nil {
					prefix[j] = v
				}
				if add {
					v += x
				} else {
					v = apply(v, x)
				}
			}
		}
		if ref.own && ref.prefix != nil {
			// Add's contributions: echo each prefix with its key and Dest.
			at := len(c.prefixes)
			c.prefixes = slices.Grow(c.prefixes, ref.N)[:at+ref.N]
			for j, p := range ref.prefix {
				c.prefixes[at+j] = Result{Key: ref.Key(j), Dest: c.dests[ref.off+j], Prefix: p}
			}
		}
	}
	acc.Val = v
	c.stats.Refs += int64(n)
	c.stats.Accumulators += int64(len(c.finals))
	c.Reset()
	return c.finals, c.prefixes
}

// slot returns the slot of address a: its offset in the step's interval when
// it is indexed, and where its probe of the hashed table ends otherwise.
func (c *Combiner) slot(a int64) int {
	if c.indexed {
		return int(a - c.lo)
	}
	slots, mask := c.tab.slots, len(c.tab.slots)-1
	h := c.tab.home(a)
	for slots[h] != 0 && c.finals[slots[h]-1].Addr != a {
		h = (h + 1) & mask
	}
	return h
}

// accumulator returns the accumulator of address a, made from read(a) when
// the step has not touched a before.
func (c *Combiner) accumulator(a int64, read func(int64) int64) *Final {
	h := c.slot(a)
	if k := c.tab.slots[h]; k != 0 {
		return &c.finals[k-1]
	}
	c.finals = append(c.finals, Final{Addr: a, Val: read(a)})
	c.tab.slots[h] = int32(len(c.finals))
	if !c.indexed && 2*len(c.finals) > len(c.tab.slots) {
		c.tab.rehash(c.finals)
	}
	return &c.finals[len(c.finals)-1]
}

// fold folds the n values val into v, one address's running value, writing
// the value each reference meets into prefix when it is set, and returns the
// result. A value is read before its prefix is written.
func (c *Combiner) fold(v int64, val *Operand, n int, prefix []int64) int64 {
	if val.Lanes != nil && val.Base == 0 && val.Stride == 0 {
		lanes := val.Lanes[:n]
		switch {
		case prefix == nil:
			return isa.Reduce(c.kind, v, lanes)
		case c.kind == isa.ADD:
			prefix = prefix[:n]
			for j, x := range lanes {
				prefix[j] = v
				v += x
			}
			return v
		}
	}
	apply := isa.EvalFn(c.kind)
	for j := range n {
		x := val.at(j)
		if prefix != nil {
			prefix[j] = v
		}
		v = apply(v, x)
	}
	return v
}

// gather fills c.refs with the step's runs in the order to fold them, each
// with its sides where they lie, and returns the number of their references
// and the interval [lo, hi] their addresses lie in — empty, lo > hi, when a
// log is not bounded throughout.
func (c *Combiner) gather() (n int, lo, hi int64) {
	c.refs = c.refs[:0]
	if c.own.Len() > 0 {
		// Room for the prefixes Add's contributions asked for.
		c.pvals = slices.Grow(c.pvals[:0], c.own.Len())[:c.own.Len()]
		c.logs = append(c.logs, &c.own)
	}
	prefix, ordered, bounded := false, true, true
	lo, hi = math.MaxInt64, math.MinInt64
	var end Key // of the run before
	for _, l := range c.logs {
		own := l == &c.own
		// Where the next copied side or form starts in each column, the next
		// side's lanes in refs, and the next reference of the log.
		var ai, vi, ri, off int
		for i := range l.Runs {
			r := &l.Runs[i]
			ref := runRef{Issue: r.Issue, prefix: r.Prefix, own: own, off: off}
			ref.addr = l.operand(r.addr, l.Addrs, &ai, &ri, r.N)
			ref.val = l.operand(r.val, l.Vals, &vi, &ri, r.N)
			if own && r.Prefix != nil {
				ref.prefix = c.pvals[off : off+r.N]
			}
			prefix = prefix || ref.prefix != nil
			ordered = ordered && (len(c.refs) == 0 || !ref.first().Less(end))
			end = ref.last()
			c.refs = append(c.refs, ref)
			off += r.N
		}
		n += off
		bounded = bounded && l.bounded == off
		lo, hi = min(lo, l.lo), max(hi, l.hi)
	}
	if prefix && !ordered {
		c.sortRefs()
	}
	if !bounded {
		return n, 1, 0
	}
	return n, lo, hi
}

// operand returns the side s of n lanes whose words start at col[*at], and, when it
// has lanes, whose lanes are refs[*ri]; it advances both past it.
func (l *Log) operand(s side, col []int64, at, ri *int, n int) Operand {
	if s == copied {
		*at += n
		return Operand{Lanes: col[*at-n : *at]}
	}
	o := Operand{Base: col[*at], Stride: col[*at+1]}
	*at += 2
	if s == withLanes {
		o.Lanes = l.refs[*ri]
		*ri++
	}
	return o
}

// sortRefs puts c.refs in key order. Runs whose key ranges interleave (one
// flow's threads at two sequences, never issued by the engine) are first
// taken apart into runs of one reference.
func (c *Combiner) sortRefs() {
	byFirst := func(a, b runRef) int { return a.first().Compare(b.first()) }
	slices.SortFunc(c.refs, byFirst)
	for i := 1; i < len(c.refs); i++ {
		if c.refs[i].first().Less(c.refs[i-1].last()) {
			whole := slices.Clone(c.refs)
			c.refs = c.refs[:0]
			for _, ref := range whole {
				for j := 0; j < ref.N; j++ {
					one := ref
					one.Issue = mem.Issue{Flow: ref.Flow, Seq: ref.Seq, Thread0: ref.Thread0 + j, N: 1}
					one.addr, one.val, one.off = ref.addr.from(j), ref.val.from(j), ref.off+j
					if ref.prefix != nil {
						one.prefix = ref.prefix[j : j+1]
					}
					c.refs = append(c.refs, one)
				}
			}
			slices.SortFunc(c.refs, byFirst)
			return
		}
	}
}

// Identity returns the identity element of the combining operator, the value
// an empty combining subtree contributes.
func Identity(kind isa.Op) int64 {
	switch kind {
	case isa.ADD:
		return 0
	case isa.AND:
		return -1 // all ones
	case isa.OR:
		return 0
	case isa.MAX:
		return -1 << 63
	case isa.MIN:
		return 1<<63 - 1
	}
	panic(fmt.Sprintf("multiop: invalid combining operator %s", kind))
}
