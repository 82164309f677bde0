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
// out-of-range words to drop — resolves through a hash table in buffering
// order (tabled), and a Common disagreement found there through a stable
// sort, so winners, the equal-key rule (the write buffered first wins),
// counters and conflicts are those of sorting everything by (address, key).
// Which route a run takes is a property of its addresses alone.

// CommitStats counts what ApplyStep has done since the memory was built or
// Reset: the runs it was handed, the in-range words it stored directly and
// resolved through the table, and the steps a Common disagreement sent to the
// sorted scan. Host-side bookkeeping only: it is in no snapshot and no
// simulated statistic.
type CommitStats struct {
	Runs, DirectWords, TabledWords, SortedFallbacks int64
}

// CommitStats returns the commit's route counters.
func (s *Shared) CommitStats() CommitStats { return s.commits }

func (c CommitStats) String() string {
	return fmt.Sprintf("commit: runs=%d direct_words=%d tabled_words=%d sorted_fallbacks=%d",
		c.Runs, c.DirectWords, c.TabledWords, c.SortedFallbacks)
}

// span is one run as the commit sees it: its header, its stretch of its log's
// columns and what the first pass learns about it — how many of its words
// are in range, and the interval [lo, hi] those cover.
type span struct {
	run         *Run
	addrs, vals []int64
	lo, hi      int64
	words       int
	direct      bool
}

// spanLo is a span by index with its lo: what markOverlaps sorts.
type spanLo struct {
	lo int64
	i  int32
}

// winner is a slot of the tabled route's table: the lowest-keyed write to addr
// seen so far, as the span (index+1, zero marking an empty slot) and the
// offset in it that give its key. Its value is the word in memory.
type winner struct {
	addr     int64
	span, at int32
}

// resetTable empties the tabled route's table — open addressing, linear
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

// BufferLog hands the memory a step's log, to be committed by ApplyStep in
// the order of the calls. The log is retained, not copied: it must stay as it
// is until ApplyStep, Reset or DiscardStep.
func (s *Shared) BufferLog(l *WriteLog) {
	switch {
	case l.Len() == 0:
	case s.own.Len() > 0:
		// Behind stores that came through BufferWrite: keep buffering order.
		s.own.AppendLog(l)
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
	return s.commit()
}

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
		off := 0
		for i := range l.Runs {
			r, sp := &l.Runs[i], &s.spans[k]
			sp.run, sp.addrs, sp.vals = r, l.Addrs[off:off+r.N], l.Vals[off:off+r.N]
			s.scan(sp) // sets the rest
			if sp.words > 0 {
				words, ascending, top = words+sp.words, ascending && sp.lo > top, max(top, sp.hi)
			}
			off, k = off+r.N, k+1
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
// strictly ascending; markOverlaps may yet clear it.
func (s *Shared) scan(sp *span) {
	addrs := sp.addrs
	i, prev := 0, int64(-1)
	for ; i < len(addrs) && addrs[i] > prev && addrs[i] < s.size; i++ {
		prev = addrs[i]
	}
	if i == len(addrs) && i > 0 {
		sp.lo, sp.hi, sp.words, sp.direct = addrs[0], prev, i, true
		return
	}
	lo, hi, words := int64(math.MaxInt64), int64(-1), 0
	for _, a := range addrs {
		if s.InRange(a) {
			lo, hi, words = min(lo, a), max(hi, a), words+1
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
func (s *Shared) commit() []Conflict {
	// addrs bounds the distinct addresses of the tabled words: a run has no
	// more of them than words, nor than its interval is long. It sizes the
	// table, so that contended traffic resolves in one that stays in cache.
	issued, tabled, addrs := 0, 0, 0
	for i := range s.spans {
		sp := &s.spans[i]
		issued += sp.words
		if sp.direct {
			s.storeRun(sp)
		} else if sp.words > 0 {
			tabled += sp.words
			addrs += int(min(int64(sp.words), sp.hi-sp.lo+1))
		}
	}
	done := int64(issued - tabled)
	var conflicts []Conflict
	if tabled > 0 {
		distinct, agreed := s.resolveTabled(addrs)
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

// storeRun stores a direct run: page-wise copies when its addresses are
// consecutive (ascending over an interval exactly as long as the run),
// indexed stores otherwise.
func (s *Shared) storeRun(sp *span) {
	addrs, vals := sp.addrs, sp.vals
	if sp.hi-sp.lo == int64(len(addrs)-1) {
		for a := sp.lo; len(vals) > 0; {
			n := copy(s.ensurePage(a)[a&(PageWords-1):], vals)
			vals, a = vals[n:], a+int64(n)
		}
		return
	}
	pgIdx, pg := int64(-1), []int64(nil)
	for i, a := range addrs {
		if idx := a >> PageShift; idx != pgIdx {
			pgIdx, pg = idx, s.ensurePage(a)
		}
		pg[a&(PageWords-1)] = vals[i]
	}
}

// resolveTabled resolves the in-range words, on at most addrs addresses, of
// the runs not stored directly, in buffering order. The table maps each
// address to its winning write so far, a later write replaces it only with a
// strictly lower key, and every new winner is stored at once, so memory ends
// holding the final winners. It returns the number of distinct addresses
// written, and false when, under Common, two writes to one address disagree:
// the caller then resolves again from sorted order, which stores the same
// winners.
func (s *Shared) resolveTabled(addrs int) (distinct int64, agreed bool) {
	shift := s.resetTable(addrs)
	slots := s.table
	mask := len(slots) - 1
	common := s.policy == Common
	pgIdx, pg := int64(-1), []int64(nil) // the page stored to last
	for i := range s.spans {
		sp := &s.spans[i]
		if sp.direct {
			continue
		}
		vals := sp.vals
		for j, a := range sp.addrs {
			if !s.InRange(a) {
				continue
			}
			// Fibonacci hashing spreads strided addresses over the table.
			h := int(uint64(a) * 0x9E3779B97F4A7C15 >> shift)
			for slots[h].span != 0 && slots[h].addr != a {
				h = (h + 1) & mask
			}
			if idx := a >> PageShift; idx != pgIdx {
				pgIdx, pg = idx, s.ensurePage(a)
			}
			if best := &slots[h]; best.span == 0 {
				best.addr = a
				distinct++
			} else if common && pg[a&(PageWords-1)] != vals[j] {
				return distinct, false
			} else if !sp.run.Key(j).Less(s.spans[best.span-1].run.Key(int(best.at))) {
				continue
			}
			slots[h].span, slots[h].at = int32(i+1), int32(j)
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
		if sp.direct {
			continue
		}
		for j, a := range sp.addrs {
			if s.InRange(a) {
				ws = append(ws, Write{Addr: a, Val: sp.vals[j], Key: sp.run.Key(j)})
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
