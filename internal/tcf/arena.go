package tcf

import (
	"math/bits"
	"sync/atomic"

	"tcfpram/internal/isa"
)

// RegArena is the register-file storage of one machine: the header tables,
// vector banks and call stacks of its flows come from it and go back to it,
// so that a machine which runs program after program allocates its register
// file once. A bank's length is what the flow asked for and is architectural
// (the snapshot, the state digest and RegWordsPeak count it); its capacity,
// where it lies and how long its flow's table is are the arena's business
// alone. A nil *RegArena allocates everything and keeps nothing.
//
// Storage comes in two kinds, with minBank the one boundary between them.
// Banks of minBank words or more are lent one by one from a stack of free
// banks: a growing register hands back the bank it replaces once its lanes are
// copied out, Recycle takes back the banks of the run's registers. Everything
// shorter — thin banks, call stacks, header tables — is bumped off chunked
// regions that Recycle truncates without visiting what was handed out.
//
// The arena is bounded: Recycle keeps no chunk and no bank the run before it
// did not use, never more words in banks than that run's registers held, and
// never more than limit words in all. Storage changes hands per register, not
// per step, and a bank is in the free stack only while no register refers to
// it. The arena is not safe for concurrent use: the machine grows registers on
// the one goroutine that steps it.
type RegArena struct {
	free  [][]int64 // last in, first out
	words int       // capacity held in free
	limit int
	// lent are the registers that hold a bank of the free stack's kind: all
	// that Recycle has to visit, one word of a flow each, however many flows
	// the run made. A lent register's header does not move: it lies in a flow
	// or in a table of full length (Flow.growBank).
	lent []*[]int64

	thin    region[int64]   // banks under minBank, call stacks
	headers region[[]int64] // header tables
	kept    int             // words in the regions' chunks at the last Recycle

	counts ArenaCounts
}

// PoisonBanks makes the arena fill every bank of minBank lanes or more that it
// lends, new ones too, with Poison before it zeroes what it must: the oracle
// of the unzeroed banks Flow.Dest takes, for tests to switch on. A run reads
// the same with it as without, or a lane of an earlier run's bank could reach
// a program — one tenant's data in the next tenant's run.
var PoisonBanks atomic.Bool

// Poison is the word PoisonBanks fills lent banks with: 0xDEADBEEFDEADBEEF.
const Poison int64 = -0x2152411021524111

// minBank is the shortest bank, in words, that is lent and taken back on its
// own. Handing a bank back costs one visit to its register at Reset, whatever
// its size: 2048 flows handing back 6000 banks of four lanes took a Reset from
// 5 to 130 µs. Leaving the short ones to the allocator instead — its size
// classes were thought to be a free list as good as any — made them a third
// of the host time of a run of many thin flows (allocation, clearing and
// collection of three objects a flow), which is why they are bumped.
const minBank = 64

// headerWords is what one bank header counts against the arena's limit.
const headerWords = 3

// ArenaCounts is what the flows drew from an arena since it was built or last
// recycled — banks of minBank lanes or more lent out again and allocated, words
// bumped for shorter banks and call stacks, header tables attached (one that
// grows counts again) — the columns of its flows' registers that affine forms
// left unwritten (Flow.SetAffine) and that were materialised after all, one
// per instruction, and the words it holds that no flow refers to: the free
// stack and the chunks Recycle kept.
type ArenaCounts struct {
	BanksReused, BanksAllocated         int64
	ThinWords, Tables                   int64
	ColumnsSkipped, ColumnsMaterialised int64
	HeldWords                           int64
}

// NewRegArena returns an empty arena that retains at most limit words.
func NewRegArena(limit int) *RegArena {
	return &RegArena{limit: limit, thin: region[int64]{first: 16}, headers: region[[]int64]{first: 4}}
}

// Counts returns the arena's counters.
func (a *RegArena) Counts() ArenaCounts {
	c := a.counts
	c.HeldWords = int64(a.words + a.kept)
	return c
}

// grow puts into the register *reg a bank of n >= 1 lanes that starts with
// the lanes it has and is zero beyond: the one definition of growth, for
// vector registers and call stacks of either kind of storage. A bank with
// room to spare is extended where it is. Otherwise a short one is bumped,
// with capacity to double in before it is bumped again; a long one is the
// newest free bank if that is large enough — it is whenever the run asks as
// the run before it did, see Recycle — and the bank it replaces becomes free
// after the lanes are out of it. Without zero, a register that holds no bank
// is given a lent one as it comes, for a caller that writes every lane of it
// before anything reads one (Flow.Dest).
func (a *RegArena) grow(reg *[]int64, n int, zero bool) {
	old := *reg
	if cap(old) >= n {
		*reg = old[:n]
		clear((*reg)[len(old):])
		return
	}
	var v []int64
	switch {
	case a == nil:
	case n < minBank:
		room := min(1<<bits.Len(uint(n-1)), minBank-1)
		v = a.thin.take(room)[:n]
		a.counts.ThinWords += int64(room)
	default:
		v = a.take(reg, n)
	}
	dirty := v != nil // storage another register used: cleared unless written whole
	if v == nil {
		v = make([]int64, n)
	}
	if n >= minBank && PoisonBanks.Load() {
		isa.Fill(v, Poison)
		dirty = true
	}
	if dirty && zero {
		clear(v[len(old):])
	}
	copy(v, old)
	*reg = v
	if a != nil && cap(old) >= minBank {
		a.keep(old)
	}
}

// attach puts into *table a header table of want headers or more that starts
// with the headers it has and holds no bank beyond. The table it replaces is
// left where it is: none of its banks is lent (Flow.growBank).
func (a *RegArena) attach(table *[][]int64, want int) {
	n := min(max(4, 1<<bits.Len(uint(want-1))), isa.NumVRegs)
	var t [][]int64
	if a == nil {
		t = make([][]int64, n)
	} else {
		t = a.headers.take(n)
		a.counts.Tables++
		clear(t)
	}
	copy(t, *table)
	*table = t
}

// take notes that *reg is about to hold a bank of the arena's, if it does not
// hold one yet, and returns the newest free bank cut to n lanes, or nil if
// that bank is too small or there is none.
func (a *RegArena) take(reg *[]int64, n int) (v []int64) {
	if cap(*reg) < minBank {
		a.lent = append(a.lent, reg) // once: a register's bank never shrinks
	}
	k := len(a.free) - 1
	if k < 0 || cap(a.free[k]) < n {
		a.counts.BanksAllocated++
		return nil
	}
	v, a.free[k] = a.free[k][:n], nil
	a.free = a.free[:k]
	a.words -= cap(v)
	a.counts.BanksReused++
	return v
}

// keep retains v unless it would take the arena past its limit.
func (a *RegArena) keep(v []int64) {
	if a.kept+a.words+cap(v) <= a.limit {
		a.free = append(a.free, v)
		a.words += cap(v)
	}
}

// Adopt makes a the arena of a flow that was not created on it — one decoded
// from a snapshot, with a table, banks and a call stack of its own.
func (a *RegArena) Adopt(f *Flow) {
	f.Regs = a
	if cap(f.CallStack) >= minBank {
		a.lent = append(a.lent, &f.CallStack)
	}
	for r := range f.vectors {
		if cap(f.vectors[r]) >= minBank {
			a.lent = append(a.lent, &f.vectors[r])
		}
	}
}

// Recycle ends a run: the banks the arena still holds — which the run did not
// need — are dropped, the banks of the run's registers are taken back, as far
// as the bound allows, and the registers are left without any; the regions
// are truncated to the chunks the run reached. Not to be called concurrently
// with anything that uses the flows or the arena.
func (a *RegArena) Recycle() {
	clear(a.free)
	a.free = a.free[:0]
	a.words, a.kept, a.counts = 0, 0, ArenaCounts{}
	used := 0
	// Last lent, first kept: a rerun of the program, asking in the order it
	// asked before, then finds each of its banks on top of the stack.
	for i := len(a.lent) - 1; i >= 0; i-- {
		reg := a.lent[i]
		// Capacity beyond what the run used is kept only against the words
		// of banks that were dropped.
		if used += len(unveil(*reg)); a.words+cap(*reg) <= used {
			a.keep(*reg)
		}
		*reg = nil
	}
	clear(a.lent)
	a.lent = a.lent[:0]
	// The regions have what the banks leave of the limit: they are small where
	// banks are large, and cheap to build again where they are not.
	thin, dropped := a.thin.truncate(a.limit - a.words)
	tables, _ := a.headers.truncate((a.limit - a.words - thin) / headerWords)
	a.kept = thin + tables*headerWords
	if dropped {
		// A table some earlier run left may refer into a chunk that went.
		for _, c := range a.headers.chunks {
			clear(c)
		}
	}
}

// region is a bump allocator over chunks that double in size, the first of
// first elements: what it hands out never moves, and truncating it makes all
// of it free again without visiting any of it.
type region[T any] struct {
	chunks   [][]T
	first    int
	cur, off int // the next piece starts at chunks[cur][off]
}

// take returns n elements that hold whatever they were left with.
func (r *region[T]) take(n int) []T {
	for ; r.cur < len(r.chunks); r.cur, r.off = r.cur+1, 0 {
		if c := r.chunks[r.cur]; len(c)-r.off >= n {
			r.off += n
			return c[r.off-n : r.off : r.off]
		}
	}
	c := make([]T, max(n, r.first<<min(len(r.chunks), 24)))
	r.chunks = append(r.chunks, c)
	r.off = n
	return c[:n:n]
}

// truncate frees everything taken. It keeps the chunks that pieces were taken
// from since the last truncation, as far as they hold no more than budget
// elements between them, and drops the others; it returns the elements kept
// and whether a chunk went.
func (r *region[T]) truncate(budget int) (kept int, dropped bool) {
	n := 0
	for n < len(r.chunks) && n <= r.cur && kept+len(r.chunks[n]) <= budget {
		kept += len(r.chunks[n])
		n++
	}
	dropped = n < len(r.chunks)
	clear(r.chunks[n:])
	r.chunks = r.chunks[:n]
	r.cur, r.off = 0, 0
	return kept, dropped
}
