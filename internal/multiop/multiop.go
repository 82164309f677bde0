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
// consecutive entries of the log's columns, by threads Thread0 … Thread0+N-1
// of Flow at sequence Seq, their keys derived as for a mem.Issue. A multiprefix
// run carries where its results go: Prefix[i] receives the running value the
// i-th reference met. A multioperation run has a nil Prefix.
type Run struct {
	mem.Issue
	Prefix []int64
}

func (r *Run) first() Key { return r.Key(0) }
func (r *Run) last() Key  { return r.Key(r.N - 1) }

// Log is a step's combining traffic for one operator at the granularity the
// model issues it: one Run per instruction and two columns, addresses and
// values, holding the runs' references back to back in arrival order. Whoever
// generates a step owns its logs; Combiner.AddLog retains a pointer until
// Resolve, so the owner empties a log only when the next step begins.
//
// The filler may report, run by run, the interval its addresses span (Bound),
// which it learns while filling the column; a log whose every run is bounded
// gives Resolve the interval without another pass over the addresses.
type Log struct {
	Addrs, Vals []int64
	Runs        []Run
	// lo and hi bound the addresses of the first bounded references.
	lo, hi  int64
	bounded int
}

// Len returns the number of references.
func (l *Log) Len() int { return len(l.Addrs) }

// Reset empties the log, keeping its arrays and dropping the runs' hold on
// their prefix destinations.
func (l *Log) Reset() {
	clear(l.Runs)
	l.Addrs, l.Vals, l.Runs = l.Addrs[:0], l.Vals[:0], l.Runs[:0]
	l.bounded = 0
}

// Bound reports that the addresses of the run opened last lie in [lo, hi].
// It is a promise Resolve relies on: an address outside it panics there.
func (l *Log) Bound(lo, hi int64) { l.widen(lo, hi, l.Runs[len(l.Runs)-1].N) }

// widen counts n more references as bounded, within [lo, hi].
func (l *Log) widen(lo, hi int64, n int) {
	if l.bounded == 0 {
		l.lo, l.hi = lo, hi
	} else {
		l.lo, l.hi = min(l.lo, lo), max(l.hi, hi)
	}
	l.bounded += n
}

// Open records the run r and returns its stretch of each column, r.N long,
// for the caller to fill, every word of it.
func (l *Log) Open(r Run) (addrs, vals []int64) {
	at := len(l.Addrs)
	l.Runs = append(l.Runs, r)
	l.Addrs = slices.Grow(l.Addrs, r.N)[:at+r.N]
	l.Vals = slices.Grow(l.Vals, r.N)[:at+r.N]
	return l.Addrs[at:], l.Vals[at:]
}

// runRef is one run in the order Resolve folds it: its header and where its
// references lie.
type runRef struct {
	Run
	log *Log
	off int
}

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
// An address finds its accumulator by its offset in the step's interval when
// every log is bounded and the interval is compact (mem.Compact), as the
// write commit's tabled words do, and by its hash otherwise, in a table that
// grows with the addresses met.
func (c *Combiner) Resolve(read func(addr int64) int64) (finals []Final, prefixes []Result) {
	n, lo, hi := c.gather()
	if n == 0 {
		return nil, nil
	}
	indexed := lo <= hi && mem.Compact(lo, hi, n)
	var slots []int32
	if indexed {
		slots = c.tab.index(int(hi - lo + 1))
		c.stats.IndexedRefs += int64(n)
	} else {
		slots = c.tab.reset(minSlots)
	}
	mask := len(slots) - 1
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
		addrs, vals := ref.log.Addrs[ref.off:ref.off+ref.N], ref.log.Vals[ref.off:ref.off+ref.N]
		for j, a := range addrs {
			if acc == nil || acc.Addr != a {
				if acc != nil {
					acc.Val = v
				}
				var h int
				if indexed {
					h = int(a - lo)
				} else {
					h = c.tab.home(a)
					for slots[h] != 0 && c.finals[slots[h]-1].Addr != a {
						h = (h + 1) & mask
					}
				}
				if k := slots[h]; k != 0 {
					acc = &c.finals[k-1]
				} else {
					c.finals = append(c.finals, Final{Addr: a, Val: read(a)})
					slots[h] = int32(len(c.finals))
					acc = &c.finals[len(c.finals)-1]
					if !indexed && 2*len(c.finals) > len(slots) {
						slots = c.tab.rehash(c.finals)
						mask = len(slots) - 1
					}
				}
				v = acc.Val
			}
			if ref.Prefix != nil {
				ref.Prefix[j] = v
			}
			if add {
				v += vals[j]
			} else {
				v = apply(v, vals[j])
			}
		}
		if ref.log == &c.own && ref.Prefix != nil {
			// Add's contributions: echo each prefix with its key and Dest.
			at := len(c.prefixes)
			c.prefixes = slices.Grow(c.prefixes, ref.N)[:at+ref.N]
			for j, p := range ref.Prefix {
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

// gather fills c.refs with the step's runs in the order to fold them and
// returns the number of their references and the interval [lo, hi] their
// addresses lie in — empty, lo > hi, when a log is not bounded throughout.
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
		off := 0
		for _, r := range l.Runs {
			if l == &c.own && r.Prefix != nil {
				r.Prefix = c.pvals[off : off+r.N]
			}
			prefix = prefix || r.Prefix != nil
			ordered = ordered && (len(c.refs) == 0 || !r.first().Less(end))
			end = r.last()
			c.refs = append(c.refs, runRef{Run: r, log: l, off: off})
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
					one := runRef{Run: Run{Issue: mem.Issue{Flow: ref.Flow, Seq: ref.Seq, Thread0: ref.Thread0 + j, N: 1}}, log: ref.log, off: ref.off + j}
					if ref.Prefix != nil {
						one.Prefix = ref.Prefix[j : j+1]
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
