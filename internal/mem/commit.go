package mem

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The step commit. A step's stores reach ApplyStep as write logs, one run per
// instruction, and are resolved where they lie. One pass per run (scan)
// learns whether its addresses are in range and strictly ascending, and the
// interval they span. A run that is both has at most one write per address;
// if its interval also meets no other run's, nothing else in the step writes
// there either, so every one of its writes is the only writer of its word and
// wins under any policy: the run is stored straight into the pages (direct).
// All other traffic — overlapping runs, addresses that repeat or descend,
// out-of-range words to drop — resolves in buffering order through a table of
// claims, one per word (tabled): indexed by a − lo when the tabled words'
// interval [lo, hi] is compact, at most indexSpread words per tabled word,
// and hashed otherwise. A Common disagreement found there goes to a stable
// sort, so winners, the equal-key rule (the write buffered first wins),
// counters and conflicts are those of sorting everything by (address, key).
// Which route a run takes is a property of its addresses alone. Each side of
// a run is read where it lies (Operand): the direct route stores from there,
// and only a run that goes to the table has a side that is not plain lanes —
// a form, a bank plus an offset — written out first (unfold).

// CommitStats counts what ApplyStep has done since the memory was built or
// Reset: the runs it was handed, the in-range words it stored directly and
// resolved through the table — IndexedWords of those through the index — the
// steps a Common disagreement sent to the sorted scan, and the in-range words
// whose addresses were a form of stride 1 (dense) and whose values it read
// where they lay, rather than from a log's columns. Host-side bookkeeping
// only: it is in no snapshot and no simulated statistic.
type CommitStats struct {
	Runs, DirectWords, TabledWords, IndexedWords, SortedFallbacks int64
	DenseWords, RefWords                                          int64
}

// CommitStats returns the commit's route counters.
func (s *Shared) CommitStats() CommitStats { return s.commits }

func (c CommitStats) String() string {
	return fmt.Sprintf("commit: runs=%d direct_words=%d tabled_words=%d indexed_words=%d sorted_fallbacks=%d dense_words=%d ref_words=%d",
		c.Runs, c.DirectWords, c.TabledWords, c.IndexedWords, c.SortedFallbacks, c.DenseWords, c.RefWords)
}

// span is one run as the commit sees it: its header, its two sides where they
// lie — until unfold writes out those of a tabled run — and what the first
// pass learns about it: how many of its words are in range, and the interval
// [lo, hi] those cover.
type span struct {
	run       *Run
	addr, val Operand
	lo, hi    int64
	words     int
	direct    bool
}

// spanLo is a span by index with its lo: what markOverlaps sorts.
type spanLo struct {
	lo int64
	i  int32
}

// claim is the lowest-keyed write to one word seen so far in the step: the
// span (index+1, zero marking no write yet) and the offset in it that give
// its key. Its value is the word in memory.
type claim struct{ span, at int32 }

// winner is a slot of the hashed route's table: a claim and its word.
type winner struct {
	addr int64
	claim
}

// indexSpread is how many words of interval per tabled word the indexed
// route may clear: beyond it the hash is cheaper.
const indexSpread = 4

// Compact reports whether n references to addresses in [lo, hi], lo ≤ hi,
// resolve by index rather than by hash: at most indexSpread words of
// interval each. The combiners of internal/multiop decide by it too.
func Compact(lo, hi int64, n int) bool {
	return uint64(hi-lo) < indexSpread*uint64(n)
}

// resetTable empties the hashed route's table — open addressing, linear
// probing, at most half full — sized for addrs ≥ 1 addresses: a power of two,
// at least twice as many. It returns the shift that takes a hash to its home
// slot.
func (s *Shared) resetTable(addrs int) (shift uint) {
	b := bits.Len(uint(2*addrs - 1))
	if size := 1 << b; cap(s.table) < size {
		s.table = make([]winner, size)
	} else {
		s.table = s.table[:size]
		clear(s.table)
	}
	return uint(64 - b)
}

// resetIndex empties the indexed route's claims for an interval of n words.
func (s *Shared) resetIndex(n int) {
	if cap(s.index) < n {
		s.index = make([]claim, n)
	} else {
		s.index = s.index[:n]
		clear(s.index)
	}
}

// BufferLog hands the memory a step's log, to be committed by ApplyStep in
// the order of the calls. The log is retained, not copied: it must stay as it
// is until ApplyStep, Reset or DiscardStep.
func (s *Shared) BufferLog(l *WriteLog) {
	switch {
	case l.Len() == 0:
	case s.own.Len() > 0:
		// Behind stores that came through BufferWrite: keep buffering order.
		s.own.appendLog(l)
	default:
		s.logs = append(s.logs, l)
	}
}

// BufferWrite records a store to be applied at the end of the step.
// Out-of-range stores are dropped. It is BufferLog for callers that hold
// single writes: consecutive writes of one flow and sequence by ascending
// threads become one run of the memory's own log.
func (s *Shared) BufferWrite(addr, val int64, key Key) {
	if s.InRange(addr) {
		s.own.Append(addr, val, key)
	}
}

// BufferWrites is BufferWrite for each element of ws in order, with the
// columns grown once.
func (s *Shared) BufferWrites(ws []Write) {
	l := &s.own
	n := l.Len()
	addrs := slices.Grow(l.Addrs, len(ws))[:n+len(ws)]
	vals := slices.Grow(l.Vals, len(ws))[:n+len(ws)]
	for i := range ws {
		if w := &ws[i]; s.InRange(w.Addr) {
			l.extend(w.Key, 1)
			addrs[n], vals[n] = w.Addr, w.Val
			n++
		}
	}
	l.Addrs, l.Vals = addrs[:n], vals[:n]
}

// PendingWrites returns the number of stores buffered and not yet committed.
func (s *Shared) PendingWrites() int {
	n := s.own.Len()
	for _, l := range s.logs {
		n += l.Len()
	}
	return n
}

// DiscardStep drops the buffered stores uncommitted: a step that stopped
// between buffering and ApplyStep must leave nothing to the next.
func (s *Shared) DiscardStep() {
	clear(s.logs)
	s.logs = s.logs[:0]
	s.own.Reset()
}

// ApplyStep resolves the buffered writes of the step against the policy and
// applies the winners: per address the write with the lowest key, and among
// writes of equal key the one buffered first. It returns the Common-policy
// conflicts (empty under Arbitrary/Priority), ordered by address and then by
// key. The buffered logs are released.
func (s *Shared) ApplyStep() []Conflict {
	if !s.classify() {
		return nil
	}
	return s.commit(routeAuto)
}

// route is how commit resolves the tabled words: by the interval's spread, or
// — for tests that hold the routes to each other — always one way.
type route uint8

const (
	routeAuto route = iota
	routeIndexed
	routeHashed
)

// classify fills s.spans from the buffered logs and decides each run's
// route. It reports whether the step buffered anything.
func (s *Shared) classify() bool {
	if s.own.Len() > 0 {
		s.logs = append(s.logs, &s.own)
	}
	if len(s.logs) == 0 {
		return false
	}
	runs := 0
	for _, l := range s.logs {
		runs += len(l.Runs)
	}
	s.spans = slices.Grow(s.spans[:0], runs)[:runs]
	// Runs that arrive in ascending, disjoint intervals — one run, or flows
	// storing to their own regions in flow order — need no further look.
	words, ascending, top := 0, true, int64(-1)
	k := 0
	for _, l := range s.logs {
		rd := l.Cursor()
		for i := range l.Runs {
			r, sp := &l.Runs[i], &s.spans[k]
			sp.run = r
			rd.Addr(r, &sp.addr)
			rd.Val(r, &sp.val)
			s.scan(sp) // sets the rest
			if sp.words > 0 {
				words, ascending, top = words+sp.words, ascending && sp.lo > top, max(top, sp.hi)
			}
			k++
		}
	}
	switch {
	case ascending:
	case words > runs*bits.Len(uint(runs)):
		s.markOverlaps()
	default:
		// Putting the runs in order would take more comparisons than the
		// table takes probes for their words: many flows, a few lanes each.
		for i := range s.spans {
			s.spans[i].direct = false
		}
	}
	return true
}

// scan is the first pass over one run. direct is set for a run in range and
// strictly ascending; markOverlaps may yet clear it. An address form in range
// needs no pass: its interval is its span, and it ascends when its stride is
// positive.
func (s *Shared) scan(sp *span) {
	a, n := &sp.addr, sp.run.N
	if n == 0 {
		sp.words, sp.direct = 0, false
		return
	}
	if a.Lanes == nil {
		if lo, hi, ok := a.Span(n); ok && s.InRange(lo) && s.InRange(hi) {
			sp.lo, sp.hi, sp.words, sp.direct = lo, hi, n, a.Stride > 0 || n == 1
			return
		}
	} else {
		lanes, base := a.Lanes[:n], a.Base
		i, prev := 0, int64(-1)
		for ; i < n && lanes[i]+base > prev && lanes[i]+base < s.size; i++ {
			prev = lanes[i] + base
		}
		if i == n {
			sp.lo, sp.hi, sp.words, sp.direct = lanes[0]+base, prev, n, true
			return
		}
	}
	lo, hi, words := int64(math.MaxInt64), int64(-1), 0
	for i := range n {
		if v := a.At(i); s.InRange(v) {
			lo, hi, words = min(lo, v), max(hi, v), words+1
		}
	}
	sp.lo, sp.hi, sp.words, sp.direct = lo, hi, words, false
}

// markOverlaps clears direct on every run whose interval meets another's.
// In order of lo, a run meets an earlier one exactly if its lo does not
// exceed the highest hi before it; marking it and the run holding that hi
// marks every member of every overlapping pair: the earlier member either
// holds the highest hi when its successor arrives, or an even earlier run
// reaches past it and it was marked on its own arrival.
func (s *Shared) markOverlaps() {
	s.order = s.order[:0]
	for i := range s.spans {
		if s.spans[i].words > 0 {
			s.order = append(s.order, spanLo{lo: s.spans[i].lo, i: int32(i)})
		}
	}
	slices.SortFunc(s.order, func(a, b spanLo) int { return cmp.Compare(a.lo, b.lo) })
	top, holder := int64(-1), int32(0)
	for _, o := range s.order {
		sp := &s.spans[o.i]
		if o.lo <= top {
			sp.direct, s.spans[holder].direct = false, false
		}
		if sp.hi > top {
			top, holder = sp.hi, o.i
		}
	}
}

// commit stores the classified runs, counts the step and releases its logs.
func (s *Shared) commit(r route) []Conflict {
	// addrs bounds the distinct addresses of the tabled words: a run has no
	// more of them than words, nor than its interval is long. It sizes the
	// hashed table, so that contended traffic resolves in one that stays in
	// cache. [lo, hi] is the tabled words' interval, and unfolded counts the
	// words unfold writes out.
	issued, tabled, addrs, unfolded := 0, 0, 0, 0
	lo, hi := int64(math.MaxInt64), int64(-1)
	for i := range s.spans {
		sp := &s.spans[i]
		issued += sp.words
		if sp.addr.Lanes == nil && sp.addr.Stride == 1 {
			s.commits.DenseWords += int64(sp.words)
		}
		if sp.run.val != copied {
			s.commits.RefWords += int64(sp.words)
		}
		if sp.direct {
			s.storeRun(sp)
		} else if sp.words > 0 {
			tabled += sp.words
			addrs += int(min(int64(sp.words), sp.hi-sp.lo+1))
			lo, hi = min(lo, sp.lo), max(hi, sp.hi)
			if !sp.addr.plain() {
				unfolded += sp.run.N
			}
			if !sp.val.plain() {
				unfolded += sp.run.N
			}
		}
	}
	done := int64(issued - tabled)
	var conflicts []Conflict
	if tabled > 0 {
		if unfolded > 0 {
			s.unfold(unfolded)
		}
		indexed := r == routeIndexed || r == routeAuto && Compact(lo, hi, tabled)
		if indexed {
			s.commits.IndexedWords += int64(tabled)
		}
		distinct, agreed := s.resolveTabled(indexed, addrs, lo, hi)
		if !agreed {
			distinct, conflicts = s.resolveSorted(tabled)
			s.commits.SortedFallbacks++
		}
		done += distinct
	}
	s.commits.Runs += int64(len(s.spans))
	s.commits.DirectWords += int64(issued - tabled)
	s.commits.TabledWords += int64(tabled)
	s.writesDone += done
	s.stepWrites += int64(issued)
	s.DiscardStep()
	return conflicts
}

// unfold writes out, into s.unfolded, every side of a tabled run that is not
// plain lanes — a form, a bank plus an offset —, n words, so that the tabled
// routes read every run from lanes. A bank, or a copied side, needs no copy.
func (s *Shared) unfold(n int) {
	buf := slices.Grow(s.unfolded[:0], n)[:n]
	s.unfolded = buf
	for i := range s.spans {
		if sp := &s.spans[i]; !sp.direct && sp.words > 0 {
			for _, o := range [2]*Operand{&sp.addr, &sp.val} {
				if !o.plain() {
					lanes := buf[:sp.run.N]
					o.read(lanes, 0)
					*o, buf = Operand{Lanes: lanes}, buf[sp.run.N:]
				}
			}
		}
	}
}

// storeRun stores a direct run, every word of which is in range: page-wise
// ramps or copies of its values when its addresses are consecutive —
// ascending over an interval exactly as long as the run, as a dense run's
// are — indexed stores otherwise.
func (s *Shared) storeRun(sp *span) {
	n := sp.run.N
	if sp.hi-sp.lo == int64(n-1) {
		for a := sp.lo; a <= sp.hi; {
			pg := s.ensurePage(a)[a&(PageWords-1):]
			pg = pg[:min(int64(len(pg)), sp.hi-a+1)]
			sp.val.read(pg, int(a-sp.lo))
			a += int64(len(pg))
		}
		return
	}
	pgIdx, pg := int64(-1), []int64(nil)
	for i := range n {
		a := sp.addr.At(i)
		if idx := a >> PageShift; idx != pgIdx {
			pgIdx, pg = idx, s.ensurePage(a)
		}
		pg[a&(PageWords-1)] = sp.val.At(i)
	}
}

// resolveTabled resolves the in-range words of the tabled runs — those not
// stored directly that have any, unfolded — which lie in [lo, hi], in
// buffering order: through s.index over that interval when indexed, and
// otherwise through the hashed table sized for addrs addresses. A run with no
// word in range is skipped whole: unfold left its sides where they lie. Each
// word's claim holds its winning write so far; a later write replaces it only
// with a strictly lower key — never one of the same run, whose keys ascend
// with the lane — and every new winner is stored at once, so memory ends
// holding the final winners. It returns the number of distinct addresses
// written, and false when, under Common, two writes to one address disagree:
// the caller then resolves again from sorted order, which stores the same
// winners.
func (s *Shared) resolveTabled(indexed bool, addrs int, lo, hi int64) (distinct int64, agreed bool) {
	var shift uint
	if indexed {
		s.resetIndex(int(hi - lo + 1))
	} else {
		shift = s.resetTable(addrs)
	}
	index, slots := s.index, s.table
	mask := len(slots) - 1
	common := s.policy == Common
	pgIdx, pg := int64(-1), []int64(nil) // the page stored to last
	for i := range s.spans {
		sp := &s.spans[i]
		if sp.direct || sp.words == 0 {
			continue
		}
		vals := sp.val.Lanes
		for j, a := range sp.addr.Lanes {
			var c *claim
			if indexed {
				// The interval holds every in-range word and no other.
				k := uint64(a - lo)
				if k >= uint64(len(index)) {
					continue
				}
				c = &index[k]
			} else {
				if !s.InRange(a) {
					continue
				}
				// Fibonacci hashing spreads strided addresses over the table.
				h := int(uint64(a) * 0x9E3779B97F4A7C15 >> shift)
				for slots[h].span != 0 && slots[h].addr != a {
					h = (h + 1) & mask
				}
				slots[h].addr = a
				c = &slots[h].claim
			}
			if c.span == 0 {
				distinct++
			} else {
				won := &s.spans[c.span-1]
				if common && won.val.Lanes[c.at] != vals[j] {
					return distinct, false
				}
				if int(c.span) == i+1 || !sp.run.Key(j).Less(won.run.Key(int(c.at))) {
					continue
				}
			}
			c.span, c.at = int32(i+1), int32(j)
			if idx := a >> PageShift; idx != pgIdx {
				pgIdx, pg = idx, s.ensurePage(a)
			}
			pg[a&(PageWords-1)] = vals[j]
		}
	}
	return distinct, true
}

// resolveSorted resolves the tabled runs' n in-range words the long way —
// stable sort by (address, key), one scan over the address runs, the first
// write of each winning — and reports every Common disagreement with the
// winner. Only a step that is about to fail comes here.
func (s *Shared) resolveSorted(n int) (distinct int64, conflicts []Conflict) {
	ws := make([]Write, 0, n)
	for i := range s.spans {
		sp := &s.spans[i]
		if sp.direct || sp.words == 0 {
			continue
		}
		for j, a := range sp.addr.Lanes {
			if s.InRange(a) {
				ws = append(ws, Write{Addr: a, Val: sp.val.Lanes[j], Key: sp.run.Key(j)})
			}
		}
	}
	slices.SortStableFunc(ws, compareWrites)
	for i, w := range ws {
		if i == 0 || ws[i-1].Addr != w.Addr {
			s.Poke(w.Addr, w.Val)
			distinct++
		} else if won := s.Peek(w.Addr); s.policy == Common && w.Val != won {
			conflicts = append(conflicts, Conflict{Addr: w.Addr, A: won, B: w.Val})
		}
	}
	return distinct, conflicts
}
