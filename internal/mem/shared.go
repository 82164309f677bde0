// Package mem implements the memory system of the extended PRAM-NUMA
// machine: a word-addressable shared memory partitioned into P modules with
// PRAM step semantics (reads observe the state at step start, writes are
// buffered and resolved deterministically at step end), plus per-group local
// memory blocks with immediate semantics for NUMA-mode execution.
package mem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBadSize reports a nonpositive memory size or module count. The
// constructors return it (wrapped, with the offending value) instead of
// panicking: machine shapes arrive from untrusted requests on the serve
// path, so a bad size must fail the one request, not the process.
var ErrBadSize = errors.New("mem: nonpositive size")

// Policy selects the concurrent-write resolution rule of the CRCW PRAM.
type Policy int

const (
	// Arbitrary resolves concurrent writes to one deterministic winner:
	// the write with the lowest (flow, thread, seq) key. The model allows
	// any winner; fixing the lowest key keeps simulation reproducible.
	Arbitrary Policy = iota
	// Priority lets the lowest-keyed write win and is the classic
	// PRIORITY CRCW rule (lower flow/thread index = higher priority).
	Priority
	// Common requires all concurrent writes to a word within a step to
	// carry the same value; differing values are reported as conflicts.
	Common
)

func (p Policy) String() string {
	switch p {
	case Arbitrary:
		return "arbitrary"
	case Priority:
		return "priority"
	case Common:
		return "common"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Key identifies one thread's reference within a step and orders it against
// the others: lower (Flow, Thread, Seq) wins a concurrent write under
// Priority (and is the deterministic choice under Arbitrary) and combines
// earlier in a multioperation — the ordered multiprefix of the paper's
// prefix(...) primitive. multiop.Key is this type.
//
// The engine gives every reference of a step its own key. Should two writes
// to one address carry equal keys all the same, the one buffered earlier
// wins.
type Key struct {
	Flow   int // flow id
	Thread int // thread index within the flow
	Seq    int // issue sequence within the thread (NUMA bunches issue many)
}

// Compare orders keys lexicographically. It and CompareRefs are written to
// inline into the step's resolution loops.
func (k Key) Compare(o Key) int {
	a, b := k.Seq, o.Seq
	if k.Flow != o.Flow {
		a, b = k.Flow, o.Flow
	} else if k.Thread != o.Thread {
		a, b = k.Thread, o.Thread
	}
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// Less reports whether k orders before o.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// CompareRefs is the order a step's buffered references resolve in: by
// address, then by key, so the first reference of each address run is the
// winning write, and a combining run folds in key order.
func CompareRefs(aAddr int64, aKey Key, bAddr int64, bKey Key) int {
	if aAddr != bAddr {
		if aAddr < bAddr {
			return -1
		}
		return 1
	}
	return aKey.Compare(bKey)
}

// Write is one buffered shared-memory store.
type Write struct {
	Addr int64
	Val  int64
	Key  Key
}

func compareWrites(a, b Write) int { return CompareRefs(a.Addr, a.Key, b.Addr, b.Key) }

// Conflict records a Common-policy violation: two same-step writes to Addr
// with different values.
type Conflict struct {
	Addr int64
	A, B int64
}

func (c Conflict) String() string {
	return fmt.Sprintf("common-CRCW conflict at %d: %d vs %d", c.Addr, c.A, c.B)
}

// PageWords is the granularity of the lazily allocated backing store: pages
// materialize on first write (or preload), so a machine whose program touches
// a few hundred words never pays for zeroing the whole address space. 1024
// words = 8 KiB per page, small enough to stay in the allocator's size
// classes (32 KiB pages fell into the large-object path, whose span setup
// dominated short-lived machines).
const (
	PageShift = 10
	PageWords = 1 << PageShift
)

// HomeModule returns the module addr interleaves onto in a memory of the
// given module count: low-order interleaving (addr mod modules, Euclidean,
// so negative addresses land on a module too). Power-of-two counts mask
// instead of dividing — two's-complement AND is exactly the Euclidean
// remainder — because this sits on the path of every shared reference.
func HomeModule(addr int64, modules int) int {
	m := int64(modules)
	if m&(m-1) == 0 {
		return int(addr & (m - 1))
	}
	return int(((addr % m) + m) % m)
}

// Shared is the emulated shared memory: Words words spread over Modules
// modules with low-order interleaving (module = addr mod Modules), the
// standard ESM address hashing approximation.
//
// The backing store is paged and lazily allocated: unwritten pages read as
// zero without ever being materialized.
//
// A step's stores stay in the write logs of whoever generated them
// (WriteLog); ApplyStep resolves the retained logs in place (commit.go).
type Shared struct {
	// pages holds, by page index, the PageWords-sized pages written since the
	// memory was built or Reset, and written lists their indices: all that may
	// hold a non-zero word, and all that Reset clears. A page that is not there
	// reads as zero. clean are the pages earlier runs materialized, zeroed,
	// for the next first write to whatever address.
	pages   [][]int64
	written []int32
	clean   [][]int64
	size    int64 // total words
	modules int
	policy  Policy

	// logs are the step's write logs in buffering order, retained by pointer
	// from BufferLog until ApplyStep (or Reset, or DiscardStep) drops them;
	// own is the log BufferWrite(s) fill, resolved behind them. The rest is
	// ApplyStep's retained scratch (commit.go).
	logs     []*WriteLog
	own      WriteLog
	spans    []span
	order    []spanLo
	table    []winner
	index    []claim
	unfolded []int64
	commits  CommitStats

	// Counters.
	reads      int64
	writesDone int64
	stepWrites int64
}

// NewShared allocates a shared memory of size words over modules modules.
// Nonpositive sizes return an error wrapping ErrBadSize.
func NewShared(words, modules int, policy Policy) (*Shared, error) {
	if words <= 0 {
		return nil, fmt.Errorf("shared memory size %d must be positive: %w", words, ErrBadSize)
	}
	if modules <= 0 {
		return nil, fmt.Errorf("module count %d must be positive: %w", modules, ErrBadSize)
	}
	// The page table itself materializes on first write: a machine whose
	// program never touches shared memory pays nothing for it.
	return &Shared{
		size:    int64(words),
		modules: modules, policy: policy,
	}, nil
}

// Reset restores the memory to its zeroed initial state while keeping the
// materialized pages and the commit's scratch — the reuse that makes pooled
// machines cheap. The pages written since the last Reset are zeroed and set
// aside (the others are zero already), a step left uncommitted is dropped,
// and all counters clear. The resulting state is observably identical to a
// fresh NewShared.
func (s *Shared) Reset() {
	for _, i := range s.written {
		clear(s.pages[i])
		s.clean = append(s.clean, s.pages[i])
		s.pages[i] = nil
	}
	s.written = s.written[:0]
	if ResetAudit.Load() {
		for i, p := range s.pages {
			if p != nil {
				panic(fmt.Sprintf("mem: Reset left shared page %d in place: a page materialized past the written list", i))
			}
		}
		for _, p := range s.clean {
			auditZero("a shared page set aside", p)
		}
	}
	s.DiscardStep()
	clear(s.spans[:cap(s.spans)]) // they refer to register banks the next run may not keep
	s.commits = CommitStats{}
	s.reads, s.writesDone, s.stepWrites = 0, 0, 0
}

// ResetAudit makes every Reset of a Shared or a Local check, after it cleared
// what it has listed as written, that no materialized word is left non-zero,
// and panic if one is: the oracle of the lists, for tests that reuse memories
// to switch on. A word that survives a Reset is one tenant's data in the next
// tenant's run.
var ResetAudit atomic.Bool

func auditZero(what string, words []int64) {
	for i, w := range words {
		if w != 0 {
			panic(fmt.Sprintf("mem: Reset left %s word %d = %d: a write that went past the written list", what, i, w))
		}
	}
}

// Size returns the number of words.
func (s *Shared) Size() int { return int(s.size) }

// Modules returns the number of memory modules.
func (s *Shared) Modules() int { return s.modules }

// ModuleOf returns the module serving addr (HomeModule).
func (s *Shared) ModuleOf(addr int64) int { return HomeModule(addr, s.modules) }

// MaxOverRun returns the largest of cur and weight[ModuleOf(a)] over the n
// consecutive addresses a from addr on. Words interleave over the modules one
// by one, so the first Modules() addresses of a run meet every module the run
// meets; that is for this file, which defines the interleaving, to know.
func (s *Shared) MaxOverRun(weight []int, cur int, addr int64, n int) int {
	for i := 0; i < min(n, s.modules); i++ {
		cur = max(cur, weight[s.ModuleOf(addr+int64(i))])
	}
	return cur
}

// InRange reports whether addr is a valid word address.
func (s *Shared) InRange(addr int64) bool { return addr >= 0 && addr < s.size }

// page returns the page backing addr, or nil if it was never written.
func (s *Shared) page(addr int64) []int64 {
	if s.pages == nil {
		return nil
	}
	return s.pages[addr>>PageShift]
}

// ensurePage returns the page backing addr for writing: every store to a page
// goes through here. The first one since the last Reset puts a zeroed page in
// place and lists it; the first one ever builds the page table.
func (s *Shared) ensurePage(addr int64) []int64 {
	if p := s.page(addr); p != nil {
		return p
	}
	if s.pages == nil {
		s.pages = make([][]int64, (s.size+PageWords-1)>>PageShift)
	}
	var p []int64
	if k := len(s.clean) - 1; k >= 0 {
		p, s.clean[k] = s.clean[k], nil
		s.clean = s.clean[:k]
	} else {
		p = make([]int64, PageWords)
	}
	i := addr >> PageShift
	s.pages[i] = p
	s.written = append(s.written, int32(i))
	return p
}

// Read returns the word at addr as of the start of the current step.
// Out-of-range reads return 0, like the trap-free simulated hardware.
func (s *Shared) Read(addr int64) int64 {
	s.reads++
	return s.Peek(addr)
}

// Peek reads without counting (for inspection and tests).
func (s *Shared) Peek(addr int64) int64 {
	if !s.InRange(addr) {
		return 0
	}
	p := s.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&(PageWords-1)]
}

// Reader is a page-cached read cursor for dense read runs: Peek through a
// Reader resolves the page table only when the address crosses a page
// boundary. Value type, zero-allocation; reads see the same pre-step image
// as Shared.Peek.
type Reader struct {
	s     *Shared
	pgIdx int64
	pg    []int64
}

// Reader returns a fresh read cursor over s.
func (s *Shared) Reader() Reader { return Reader{s: s, pgIdx: -1} }

// Peek reads without counting, caching the last-touched page.
func (r *Reader) Peek(addr int64) int64 {
	if !r.s.InRange(addr) {
		return 0
	}
	if idx := addr >> PageShift; idx != r.pgIdx {
		r.pgIdx, r.pg = idx, nil
		if r.s.pages != nil {
			r.pg = r.s.pages[idx]
		}
	}
	if r.pg == nil {
		return 0
	}
	return r.pg[addr&(PageWords-1)]
}

// PeekRun is Peek over the consecutive in-range addresses addr, addr+1, …,
// one per word of dst, page-wise: the read-side twin of the commit's storeRun.
func (s *Shared) PeekRun(dst []int64, addr int64) {
	for len(dst) > 0 {
		off := int(addr & (PageWords - 1))
		n := min(len(dst), PageWords-off)
		if p := s.page(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+int64(n)
	}
}

// Poke writes immediately without buffering (program loading, tests).
func (s *Shared) Poke(addr int64, val int64) {
	if s.InRange(addr) {
		s.ensurePage(addr)[addr&(PageWords-1)] = val
	}
}

// Load preloads a data segment, page-wise.
func (s *Shared) Load(addr int64, words []int64) error {
	if addr < 0 || addr+int64(len(words)) > s.size {
		return fmt.Errorf("mem: data segment [%d,%d) out of range [0,%d)", addr, addr+int64(len(words)), s.size)
	}
	for len(words) > 0 {
		p := s.ensurePage(addr)
		n := copy(p[addr&(PageWords-1):], words)
		words = words[n:]
		addr += int64(n)
	}
	return nil
}

// Stats reports cumulative access counts.
func (s *Shared) Stats() (reads, committedWrites, issuedWrites int64) {
	return s.reads, s.writesDone, s.stepWrites
}

// Snapshot copies words [addr, addr+n) for inspection. The range is clamped
// to the address space once; out-of-range (and never-written) words read as
// zero. Materialized pages are copied wholesale instead of word by word.
func (s *Shared) Snapshot(addr int64, n int) []int64 {
	out := make([]int64, n)
	if n <= 0 || addr >= s.size || addr+int64(n) <= 0 {
		return out
	}
	// Clamp to the valid window [lo, hi); everything outside stays zero.
	lo, hi := addr, addr+int64(n)
	if lo < 0 {
		lo = 0
	}
	if hi > s.size {
		hi = s.size
	}
	s.PeekRun(out[lo-addr:hi-addr], lo)
	return out
}
