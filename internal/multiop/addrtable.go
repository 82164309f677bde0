package multiop

import "math/bits"

// addrTable is the scratch of a step's sort-free combining: slots from the
// addresses of one batch of references to the positions of their
// accumulators, either an index over the batch's interval or an
// open-addressing table (linear probing, at most half full) that doubles with
// the addresses met. A slot holds index+1, zero is empty, and the caller walks
// the probe sequence itself because only it knows which address an index
// stands for. The backing array is retained across steps and grows to the
// largest batch seen. (The write commit of internal/mem keeps its winners in
// the slots themselves: mem.Shared.table and mem.Shared.index.)
type addrTable struct {
	slots []int32
	shift uint
}

// minSlots is the hashed table's size when a batch starts: its first
// addresses are met in a table that stays in cache.
const minSlots = 16

// reset empties the table and returns its slots as a hash table of n
// rounded up to a power of two.
func (t *addrTable) reset(n int) []int32 {
	b := bits.Len(uint(n - 1))
	t.shift = uint(64 - b)
	return t.index(1 << b)
}

// index empties the table and returns its slots, n of them: as an index of n
// words, or for reset.
func (t *addrTable) index(n int) []int32 {
	if cap(t.slots) < n {
		t.slots = make([]int32, n)
	} else {
		t.slots = t.slots[:n]
		clear(t.slots)
	}
	return t.slots
}

// rehash doubles the hashed table and puts back the accumulators met so far.
func (t *addrTable) rehash(finals []Final) []int32 {
	slots := t.reset(2 * len(t.slots))
	mask := len(slots) - 1
	for i, f := range finals {
		h := t.home(f.Addr)
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(i + 1)
	}
	return slots
}

// home returns the slot where addr's probe sequence starts; it continues at
// (h+1) & (len(slots)-1). Fibonacci hashing spreads strided addresses over
// the table.
func (t *addrTable) home(addr int64) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> t.shift)
}
