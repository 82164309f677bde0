package mem

import (
	"math"
	"sync"
	"sync/atomic"
)

// frontierNone marks a page with no uncommitted writes.
const frontierNone = math.MaxInt64

// Frontier tracks, per shared-memory page, the read/write frontier the
// dataflow scheduler synchronizes on: which step numbers have published
// buffered writes to the page that have not yet committed. A group executing
// step n may read a page only once every write to it from steps < n has
// committed — that is the only shared-memory dependency edge PRAM step
// semantics actually require between groups, so it is the only place an
// asynchronous group ever blocks on memory.
//
// The protocol has three parties:
//
//   - runners call Publish(step, pages) after generating a step, before
//     announcing the step's packet (so a later reader that has observed the
//     packet also observes the pending writes);
//   - the committer calls Commit(step, pages) after applying the step's
//     writes to the backing store;
//   - readers call WaitRead(page, step) before peeking a page, blocking
//     until no write from a step < their own remains uncommitted.
//
// The fast path is one atomic load per read: minPending[page] holds the
// lowest uncommitted step writing the page (frontierNone when clean), with
// release/acquire ordering against the page contents written under Commit.
type Frontier struct {
	npages  int
	stopped atomic.Bool

	// minPending[p] is the lowest step with published-but-uncommitted
	// writes to page p, or frontierNone. Stored atomically under mu;
	// loaded lock-free on the read fast path.
	minPending []atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	pending [][]int64 // per page, ascending pending steps (guarded by mu)
}

// NewFrontier builds a frontier covering a shared memory of the given word
// count.
func NewFrontier(words int) *Frontier {
	np := (words + PageWords - 1) >> PageShift
	if np < 1 {
		np = 1
	}
	f := &Frontier{
		npages:     np,
		minPending: make([]atomic.Int64, np),
		pending:    make([][]int64, np),
	}
	for i := range f.minPending {
		f.minPending[i].Store(frontierNone)
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Pages returns the number of tracked pages.
func (f *Frontier) Pages() int { return f.npages }

// PageOf maps a word address to its page index, or -1 for out-of-range
// addresses (which are never written and need no gating).
func (f *Frontier) PageOf(addr int64) int {
	p := int(addr >> PageShift)
	if addr < 0 || p >= f.npages {
		return -1
	}
	return p
}

// Publish records that step has buffered (not yet committed) writes to the
// given pages. Steps must be published in nondecreasing order per page —
// guaranteed by the dataflow watermark: a group generates step n only after
// every group has published step n-1.
func (f *Frontier) Publish(step int64, pages []int32) {
	if len(pages) == 0 {
		return
	}
	f.mu.Lock()
	for _, pg := range pages {
		f.pending[pg] = append(f.pending[pg], step)
		if len(f.pending[pg]) == 1 {
			f.minPending[pg].Store(step)
		}
	}
	f.mu.Unlock()
}

// Commit marks step's writes to the given pages as applied to the backing
// store. The committer applies steps strictly in order, so step is always
// the head of each page's pending list. Waiting readers are released.
func (f *Frontier) Commit(step int64, pages []int32) {
	if len(pages) == 0 {
		return
	}
	f.mu.Lock()
	for _, pg := range pages {
		q := f.pending[pg]
		// Drop every entry for this step (multiple groups may have
		// published the same step against the page).
		i := 0
		for i < len(q) && q[i] == step {
			i++
		}
		q = q[:copy(q, q[i:])]
		f.pending[pg] = q
		if len(q) == 0 {
			f.minPending[pg].Store(frontierNone)
		} else {
			f.minPending[pg].Store(q[0])
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// WaitRead blocks until page has no published-but-uncommitted writes from
// any step < step (i.e. the reader, executing step, sees exactly the
// pre-step image lockstep execution would). page -1 (out of range) returns
// immediately, as does a stopped frontier — the run is aborting and its
// results are discarded.
func (f *Frontier) WaitRead(page int, step int64) {
	if page < 0 {
		return
	}
	if f.minPending[page].Load() >= step {
		return
	}
	f.mu.Lock()
	for f.minPending[page].Load() < step && !f.stopped.Load() {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Stop releases every waiting reader unconditionally: the run is stopping
// (error, cancellation) and whatever the readers compute next is discarded.
func (f *Frontier) Stop() {
	f.stopped.Store(true)
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
}
