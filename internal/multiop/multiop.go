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

// Run heads the combining references one instruction issued in a step and
// says where its sides lie in its log (mem.Run). A multiprefix run carries
// where its results go: Prefix[i] receives the running value the i-th
// reference met, after its own address and value were read, so Prefix may be
// the very lanes a side refers to. A multioperation run has a nil Prefix.
type Run struct {
	mem.Run
	Prefix []int64
}

// Log is a step's combining traffic for one operator (mem.Log).
type Log = mem.Log[Run, *Run]

// runRef is one run in the order Resolve folds it: its header and both of its
// sides where they lie; for a run of the combiner's own log, off is where its
// references' Dests start.
type runRef struct {
	mem.Issue
	prefix    []int64
	addr, val mem.Operand
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
	// their offset from lo.
	indexed bool
	lo      int64

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
	if last := len(l.Runs) - 1; last < 0 || !l.Runs[last].Continues(ct.Key) || (l.Runs[last].Prefix != nil) != ct.WantPrefix {
		// An empty run, for Append to continue.
		r, _, _ := l.Open(mem.Issue{Flow: ct.Key.Flow, Seq: ct.Key.Seq, Thread0: ct.Key.Thread})
		if ct.WantPrefix {
			r.Prefix = wanted
		}
	}
	l.Append(ct.Addr, ct.Val, ct.Key)
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
			addr, val, prefix := ref.addr, ref.val, ref.prefix
			for j := range ref.N {
				a, x := addr.At(j), val.At(j)
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
func (c *Combiner) fold(v int64, val *mem.Operand, n int, prefix []int64) int64 {
	if val.Lanes != nil && val.Base == 0 {
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
		x := val.At(j)
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
		cur, off := l.Cursor(), 0 // off: the log's next reference
		for i := range l.Runs {
			r := &l.Runs[i]
			ref := runRef{Issue: r.Issue, prefix: r.Prefix, own: own, off: off}
			cur.Addr(&r.Run, &ref.addr)
			cur.Val(&r.Run, &ref.val)
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
		llo, lhi, ok := l.Bounds()
		bounded = bounded && ok
		lo, hi = min(lo, llo), max(hi, lhi)
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
					one := ref
					one.Issue = mem.Issue{Flow: ref.Flow, Seq: ref.Seq, Thread0: ref.Thread0 + j, N: 1}
					one.addr, one.val, one.off = ref.addr.From(j), ref.val.From(j), ref.off+j
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
