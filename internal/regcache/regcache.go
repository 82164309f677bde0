// Package regcache models the "cached register file" of Section 3.3: the
// in-principle unbounded thickness of TCFs needs somewhere to keep
// thread-wise intermediate results, and one of the paper's three options is
// a limited physical register block acting as a cache over the virtual
// (thickness-indexed) register space, backed by memory.
//
// The model is a set-associative cache of register lines; each line holds
// one virtual register's values for a block of consecutive implicit
// threads. Executing a thickness-u instruction touches ceil(u/LaneBlock)
// lines per thread-wise operand; misses cost a memory round trip. The
// experiments compare its effective cost per operation against the paper's
// two alternatives (memory-to-memory and local-memory operands).
package regcache

import "fmt"

// Config sizes the cache.
type Config struct {
	// Lines is the number of physical register lines.
	Lines int
	// Ways is the set associativity (Lines must divide by Ways).
	Ways int
	// LaneBlock is the number of consecutive lanes per line.
	LaneBlock int
	// MissPenalty is the cycles to fill a line from backing memory.
	MissPenalty int
}

// DefaultConfig is a small register block: 64 lines, 4-way, 8 lanes/line,
// 8-cycle fill.
func DefaultConfig() Config {
	return Config{Lines: 64, Ways: 4, LaneBlock: 8, MissPenalty: 8}
}

// key identifies a virtual register line: register r of flow f, lane block
// b.
type key struct {
	flow, reg, block int
}

// Cache is the register cache state.
type Cache struct {
	cfg  Config
	sets [][]entry // per set: slots ordered most-recently-used first

	hits      int64
	misses    int64
	evictions int64
}

type entry struct {
	k     key
	valid bool
}

// New builds a cache; Lines must be positive and divisible by Ways,
// LaneBlock and MissPenalty positive.
func New(cfg Config) (*Cache, error) {
	if cfg.Lines <= 0 || cfg.Ways <= 0 || cfg.Lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("regcache: need Lines > 0 divisible by Ways (have %d/%d)", cfg.Lines, cfg.Ways)
	}
	if cfg.LaneBlock <= 0 {
		return nil, fmt.Errorf("regcache: LaneBlock must be positive")
	}
	if cfg.MissPenalty < 0 {
		return nil, fmt.Errorf("regcache: negative MissPenalty")
	}
	nsets := cfg.Lines / cfg.Ways
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets}, nil
}

func (c *Cache) setOf(k key) int {
	h := k.flow*31 + k.reg*17 + k.block
	n := len(c.sets)
	return ((h % n) + n) % n
}

// Touch accesses one virtual register line, returning the cycle cost (0 on
// hit, MissPenalty on miss) and updating LRU state.
func (c *Cache) Touch(flow, reg, block int) int {
	k := key{flow, reg, block}
	set := c.sets[c.setOf(k)]
	for i := range set {
		if set[i].valid && set[i].k == k {
			// Move to MRU position.
			hit := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = hit
			c.hits++
			return 0
		}
	}
	c.misses++
	if set[len(set)-1].valid {
		c.evictions++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = entry{k: k, valid: true}
	return c.cfg.MissPenalty
}

// AccessInstr models one thickness-u instruction of flow f touching the
// given thread-wise registers; it returns the total stall cycles.
func (c *Cache) AccessInstr(flow, u int, regs ...int) int {
	if u <= 0 {
		return 0
	}
	blocks := (u + c.cfg.LaneBlock - 1) / c.cfg.LaneBlock
	stall := 0
	for _, r := range regs {
		for b := 0; b < blocks; b++ {
			stall += c.Touch(flow, r, b)
		}
	}
	return stall
}

// Stats reports hit/miss counts and the hit rate.
func (c *Cache) Stats() (hits, misses, evictions int64, hitRate float64) {
	total := c.hits + c.misses
	rate := 0.0
	if total > 0 {
		rate = float64(c.hits) / float64(total)
	}
	return c.hits, c.misses, c.evictions, rate
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = entry{}
		}
	}
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// StorageScheme compares the paper's three options for thread-wise
// intermediate results.
type StorageScheme int

const (
	// MemoryToMemory keeps every operand in shared memory: every access
	// pays the memory latency.
	MemoryToMemory StorageScheme = iota
	// CachedRegisterFile uses this package's model.
	CachedRegisterFile
	// LocalMemoryOperands keeps operands in the group's local memory at
	// unit cost but bounded by its size.
	LocalMemoryOperands
)

func (s StorageScheme) String() string {
	switch s {
	case MemoryToMemory:
		return "memory-to-memory"
	case CachedRegisterFile:
		return "cached-register-file"
	case LocalMemoryOperands:
		return "local-memory"
	}
	return fmt.Sprintf("StorageScheme(%d)", int(s))
}

// CostPerOp estimates the average extra cycles per thread-wise operand
// access for a kernel of the given thickness with `regsLive` live registers
// re-touched every instruction, under each scheme. memLatency is the shared
// round trip; the cached register file is simulated with cfg.
func CostPerOp(scheme StorageScheme, cfg Config, thickness, regsLive, instrs, memLatency int) (float64, error) {
	switch scheme {
	case MemoryToMemory:
		return float64(memLatency), nil
	case LocalMemoryOperands:
		return 1, nil
	case CachedRegisterFile:
		c, err := New(cfg)
		if err != nil {
			return 0, err
		}
		regs := make([]int, regsLive)
		for i := range regs {
			regs[i] = i
		}
		stall := 0
		for k := 0; k < instrs; k++ {
			stall += c.AccessInstr(0, thickness, regs...)
		}
		accesses := instrs * regsLive * ((thickness + cfg.LaneBlock - 1) / cfg.LaneBlock)
		if accesses == 0 {
			return 0, nil
		}
		return float64(stall) / float64(accesses), nil
	}
	return 0, fmt.Errorf("regcache: unknown scheme %v", scheme)
}
