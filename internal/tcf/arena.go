package tcf

import "sync"

// RegArena is the register-file storage of one machine: the vector banks of
// its flows come from it and go back to it — a bank a growing register
// replaces once its lanes are copied out, the banks of a run's flows at
// Recycle — so that a machine which runs program after program allocates its
// register file once. A bank's length is what the flow asked for and is
// architectural (the snapshot, the state digest and RegWordsPeak count it);
// its capacity is the arena's business alone. A nil *RegArena allocates every
// bank and keeps none.
//
// Banks shorter than minBank are not the arena's: the allocator's size classes
// already are a free list for them, as cheap to take from, and a run of
// thousands of thin flows would otherwise end in a Reset that walks thousands
// of registers to save a few words each.
//
// The arena is bounded: Recycle keeps no bank the run before it did not use,
// never more words than that run's registers held, and never more than limit.
// Flows of different groups grow registers concurrently under Config.Parallel,
// hence the lock; banks change hands per register, not per step, and a bank
// is in the free stack only while no register refers to it.
type RegArena struct {
	mu    sync.Mutex
	free  [][]int64 // last in, first out
	words int       // capacity held in free
	limit int
	// lent are the registers that hold a bank: all that Recycle has to visit,
	// one word of a flow each, however many flows the run made.
	lent []*[]int64

	reused, allocated int64
}

// minBank is the shortest bank, in words, the arena lends and takes back.
// Handing a bank back costs one visit to its register at Reset, whatever its
// size, and saves allocating, clearing and collecting its words: measured on
// 2048 flows with three banks each, the two break even between 16 and 64
// lanes.
const minBank = 64

// NewRegArena returns an empty arena that retains at most limit words.
func NewRegArena(limit int) *RegArena { return &RegArena{limit: limit} }

// Counts returns how many banks of minBank lanes or more the arena handed out
// again and how many it had to allocate, since it was built or last recycled.
func (a *RegArena) Counts() (reused, allocated int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reused, a.allocated
}

// grow puts into the register *reg a bank of n >= 1 lanes that starts with
// the lanes it has and is zero beyond. A bank with room to spare is extended
// where it is; otherwise the newest free bank serves if it is large enough —
// it is whenever the run asks as the run before it did, see Recycle — and the
// replaced bank becomes free after the lanes are out of it, not before:
// another group may take a free bank and clear it at any moment.
func (a *RegArena) grow(reg *[]int64, n int) {
	old := *reg
	var v []int64
	if cap(old) >= n {
		v = old[:n]
	} else if a != nil && n >= minBank {
		v = a.take(reg, n)
	}
	if v == nil {
		v = make([]int64, n)
	} else {
		clear(v[len(old):])
	}
	copy(v, old)
	*reg = v
	if a != nil && cap(old) >= minBank && cap(old) < n {
		a.mu.Lock()
		a.keep(old)
		a.mu.Unlock()
	}
}

// take notes that *reg is about to hold a bank of the arena's, if it does not
// hold one yet, and returns the newest free bank cut to n lanes, or nil if
// that bank is too small or there is none.
func (a *RegArena) take(reg *[]int64, n int) (v []int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cap(*reg) < minBank {
		a.lent = append(a.lent, reg) // once: a register's bank never shrinks
	}
	k := len(a.free) - 1
	if k < 0 || cap(a.free[k]) < n {
		a.allocated++
		return nil
	}
	v, a.free[k] = a.free[k][:n], nil
	a.free = a.free[:k]
	a.words -= cap(v)
	a.reused++
	return v
}

// keep retains v unless it would take the arena past its limit.
func (a *RegArena) keep(v []int64) {
	if a.words+cap(v) <= a.limit {
		a.free = append(a.free, v)
		a.words += cap(v)
	}
}

// Adopt makes a the arena of a flow that was not created on it — one decoded
// from a snapshot, with banks of its own.
func (a *RegArena) Adopt(f *Flow) {
	f.Regs = a
	for r := range f.vectors {
		if cap(f.vectors[r]) >= minBank {
			a.lent = append(a.lent, &f.vectors[r])
		}
	}
}

// Recycle ends a run: the banks the arena still holds — which the run did not
// need — are dropped, the banks of the run's registers are taken back, as far
// as the bound allows, and the registers are left without any. Not to be
// called concurrently with anything that uses the flows or the arena.
func (a *RegArena) Recycle() {
	a.mu.Lock()
	defer a.mu.Unlock()
	clear(a.free)
	a.free = a.free[:0]
	a.words, a.reused, a.allocated = 0, 0, 0
	used := 0
	// Last lent, first kept: a rerun of the program, asking in the order it
	// asked before, then finds each of its banks on top of the stack.
	for i := len(a.lent) - 1; i >= 0; i-- {
		reg := a.lent[i]
		// Capacity beyond what the run used is kept only against the words
		// of banks that were dropped.
		if used += len(*reg); a.words+cap(*reg) <= used {
			a.keep(*reg)
		}
		*reg = nil
	}
	clear(a.lent)
	a.lent = a.lent[:0]
}
