package multiop

import "math/bits"

// addrTable is the scratch of a step's sort-free combining: an open-addressing
// table (linear probing, at most half full) from the addresses of one batch of
// references to the positions of their accumulators. A slot holds index+1,
// zero is empty, and the caller walks the probe sequence itself because only
// it knows which address an index stands for. The backing array is retained
// across steps and grows to the largest batch seen. (The write commit of
// internal/mem keeps its winners in the slots themselves: mem.tableWorker.)
type addrTable struct {
	slots []int32
	shift uint
}

// reset empties the table and returns its slots, sized for a batch of n ≥ 1
// references: a power of two, at least 2n.
func (t *addrTable) reset(n int) []int32 {
	b := bits.Len(uint(2*n - 1))
	if size := 1 << b; cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - b)
	return t.slots
}

// home returns the slot where addr's probe sequence starts; it continues at
// (h+1) & (len(slots)-1). Fibonacci hashing spreads strided addresses over
// the table.
func (t *addrTable) home(addr int64) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> t.shift)
}
