package regcache

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Lines: 0, Ways: 1, LaneBlock: 1},
		{Lines: 7, Ways: 2, LaneBlock: 1},
		{Lines: 8, Ways: 2, LaneBlock: 0},
		{Lines: 8, Ways: 2, LaneBlock: 1, MissPenalty: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, _ := New(Config{Lines: 8, Ways: 2, LaneBlock: 4, MissPenalty: 10})
	if cost := c.Touch(0, 1, 0); cost != 10 {
		t.Fatalf("cold access cost %d, want 10", cost)
	}
	if cost := c.Touch(0, 1, 0); cost != 0 {
		t.Fatalf("warm access cost %d, want 0", cost)
	}
	h, m, _, rate := c.Stats()
	if h != 1 || m != 1 || rate != 0.5 {
		t.Fatalf("stats: %d/%d rate %f", h, m, rate)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped two-line cache: fill a set beyond its ways and the
	// least recently used line must leave.
	c, _ := New(Config{Lines: 2, Ways: 2, LaneBlock: 1, MissPenalty: 1})
	// All keys land in the single set (2 lines / 2 ways = 1 set).
	c.Touch(0, 0, 0) // miss
	c.Touch(0, 1, 0) // miss
	c.Touch(0, 0, 0) // hit (MRU: reg0, reg1)
	c.Touch(0, 2, 0) // miss, evicts reg1 (LRU); set is [r2, r0]
	if cost := c.Touch(0, 1, 0); cost != 1 {
		t.Fatal("reg1 should have been evicted")
	}
	// Re-touching reg1 evicted reg0; reg2 (still resident) must hit.
	if cost := c.Touch(0, 2, 0); cost != 0 {
		t.Fatal("reg2 should have survived")
	}
	_, _, ev, _ := c.Stats()
	if ev < 2 {
		t.Fatalf("evictions = %d", ev)
	}
}

func TestAccessInstrBlocks(t *testing.T) {
	c, _ := New(Config{Lines: 64, Ways: 4, LaneBlock: 8, MissPenalty: 5})
	// Thickness 20 -> 3 blocks per register; 2 registers -> 6 cold misses.
	if stall := c.AccessInstr(0, 20, 1, 2); stall != 30 {
		t.Fatalf("cold stall = %d, want 30", stall)
	}
	if stall := c.AccessInstr(0, 20, 1, 2); stall != 0 {
		t.Fatalf("warm stall = %d, want 0", stall)
	}
	if stall := c.AccessInstr(0, 0, 1); stall != 0 {
		t.Fatal("zero thickness should cost nothing")
	}
}

func TestReset(t *testing.T) {
	c, _ := New(DefaultConfig())
	c.AccessInstr(0, 64, 1, 2, 3)
	c.Reset()
	h, m, ev, _ := c.Stats()
	if h != 0 || m != 0 || ev != 0 {
		t.Fatal("reset did not clear counters")
	}
	if cost := c.Touch(0, 1, 0); cost == 0 {
		t.Fatal("reset did not clear contents")
	}
}

// Property: hit rate is within [0,1] and hits+misses equals total accesses.
func TestAccountingConsistency(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		c, _ := New(Config{Lines: 16, Ways: 4, LaneBlock: 4, MissPenalty: 3})
		accesses := int64(0)
		r := int(seed % 7)
		if r < 0 {
			r = -r
		}
		for i := 0; i < int(n); i++ {
			c.Touch(i%3, (i*r)%5, i%4)
			accesses++
		}
		h, m, _, rate := c.Stats()
		if h+m != accesses {
			return false
		}
		return rate >= 0 && rate <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// The Section 3.3 comparison: for kernels whose working set fits, the cached
// register file converges to near-zero cost per access — far below
// memory-to-memory — while local-memory operands sit at unit cost.
func TestStorageSchemeComparison(t *testing.T) {
	cfg := DefaultConfig()
	const memLatency = 12
	m2m, err := CostPerOp(MemoryToMemory, cfg, 64, 4, 50, memLatency)
	if err != nil {
		t.Fatal(err)
	}
	crf, err := CostPerOp(CachedRegisterFile, cfg, 64, 4, 50, memLatency)
	if err != nil {
		t.Fatal(err)
	}
	lmo, err := CostPerOp(LocalMemoryOperands, cfg, 64, 4, 50, memLatency)
	if err != nil {
		t.Fatal(err)
	}
	if m2m != memLatency {
		t.Fatalf("m2m = %f", m2m)
	}
	if lmo != 1 {
		t.Fatalf("lmo = %f", lmo)
	}
	if crf >= lmo {
		t.Fatalf("fitting cached register file (%.3f) should beat local memory (%.1f)", crf, lmo)
	}
	// When the thickness overflows the physical block, the cache thrashes
	// and the advantage collapses toward memory-to-memory.
	thrash, err := CostPerOp(CachedRegisterFile, cfg, 4096, 8, 10, memLatency)
	if err != nil {
		t.Fatal(err)
	}
	if thrash <= crf {
		t.Fatalf("thrashing cost %.3f should exceed fitting cost %.3f", thrash, crf)
	}
	for _, s := range []StorageScheme{MemoryToMemory, CachedRegisterFile, LocalMemoryOperands} {
		if s.String() == "" {
			t.Fatal("scheme must render")
		}
	}
	if _, err := CostPerOp(StorageScheme(9), cfg, 1, 1, 1, 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
