package serve

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"unsafe"

	"tcfpram/internal/analysis"
	"tcfpram/internal/codegen"
	"tcfpram/internal/diag"
	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
	"tcfpram/internal/variant"
)

// cacheKey identifies one vet+compile result: the source hash plus the two
// options that change what the analyzer reports.
type cacheKey struct {
	srcHash    [sha256.Size]byte
	variant    variant.Kind
	discipline mem.Discipline
}

// cacheEntry is the memoized outcome of vetting and compiling one program:
// its diagnostics and the load image of the compiled program, nothing of the
// front end. Failures are cached exactly like successes so a hostile client
// resending a broken program pays one compile, total. The entry is immutable
// after done closes, except for the cost memo behind costMu.
type cacheEntry struct {
	done chan struct{}

	diags    string // rendered once, as every answer carries them
	rejected bool   // vet or frontend errors; compiled is nil
	frontend bool   // the rejection is a parse/sema failure, not an analyzer finding

	compiled *codegen.Compiled // a load image: Info is nil
	err      error             // codegen failure after a clean vet
	bytes    int64             // footprint, charged to the cache's byte budget

	// costs memoizes cost predictions per machine shape and budgets, made by
	// the first request's fuelled run of the already-compiled program (the
	// vet gate's single parse): predictive admission never re-parses source.
	costMu sync.Mutex
	costs  map[analysis.CostParams]*analysis.CostReport
}

// cost returns the memoized cost prediction of this entry's program for the
// given analysis parameters, or nil. The parameters are the memo key and so
// must be comparable: the default topology (nil), as every poolable config has.
func (e *cacheEntry) cost(params analysis.CostParams) *analysis.CostReport {
	e.costMu.Lock()
	defer e.costMu.Unlock()
	return e.costs[params]
}

// memoCost memoizes rep for params; concurrent misses store equal reports.
func (e *cacheEntry) memoCost(params analysis.CostParams, rep *analysis.CostReport) {
	e.costMu.Lock()
	defer e.costMu.Unlock()
	if e.costs == nil {
		e.costs = make(map[analysis.CostParams]*analysis.CostReport)
	}
	e.costs[params] = rep
}

// footprint is what a settled entry is charged against the cache's byte
// budget: its rendered diagnostics and its load image — instructions, side
// tables, labels and data words. It is computed from lengths and type
// sizes, not read off the heap, so equal programs cost the same everywhere.
func (e *cacheEntry) footprint() int64 {
	const str = int(unsafe.Sizeof("")) // a string header
	n := len(e.diags)
	if c := e.compiled; c != nil {
		p := c.Program
		n += len(p.Instrs) * int(unsafe.Sizeof(isa.Instr{}))
		for _, s := range p.Syms {
			n += str + len(s)
		}
		for _, arms := range p.Splits {
			n += int(unsafe.Sizeof(arms))
			for _, a := range arms {
				n += int(unsafe.Sizeof(a)) + len(a.Sym)
			}
		}
		for _, l := range p.Labels {
			n += int(unsafe.Sizeof(l)) + len(l.Name)
		}
		for _, d := range p.Data {
			n += 8 * len(d.Words)
		}
		for _, d := range c.LocalData {
			n += 8 * len(d.Words)
		}
	}
	return int64(n)
}

// ProgramCache memoizes vet+compile results keyed by source hash with
// single-flight semantics: concurrent requests for the same program share
// one compilation, with the followers blocking on the leader's done channel.
// It is bounded twice: by entries, and by the bytes its settled entries'
// footprints add up to.
type ProgramCache struct {
	mu       sync.Mutex
	entries  map[cacheKey]*cacheEntry
	max      int
	maxBytes int64
	bytes    int64 // footprints of the settled entries

	hits      int64
	misses    int64
	evictions int64
}

// entryBudget is the mean footprint per entry the byte bound allows: twice
// what a 1 000-instruction program's load image takes, so that typical
// programs stay bound by count and one huge program cannot hold the memory
// of hundreds.
const entryBudget = 64 << 10

// NewProgramCache builds a cache bounded to maxEntries programs
// (minimum 16) and to maxEntries × 64 KiB of footprint.
func NewProgramCache(maxEntries int) *ProgramCache {
	if maxEntries < 16 {
		maxEntries = 16
	}
	return &ProgramCache{entries: make(map[cacheKey]*cacheEntry), max: maxEntries, maxBytes: int64(maxEntries) * entryBudget}
}

// Get returns the vet+compile result for src, computing it exactly once per
// (source, variant, discipline) triple. Diagnostics are stamped with a
// content-derived file name so identical sources submitted under different
// client names share one entry byte for byte.
func (c *ProgramCache) Get(src string, vk variant.Kind, disc mem.Discipline) *cacheEntry {
	key := cacheKey{srcHash: sourceDigest(src), variant: vk, discipline: disc}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.done
		return e
	}
	c.misses++
	for len(c.entries) >= c.max || c.bytes > c.maxBytes {
		if !c.evictOne() {
			break // every entry is in flight
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	// One parse serves vet and compile: AnalyzeAndCompile type-checks the
	// source once, compiles that same checked program and returns its load
	// image, with the thickness ceiling the later cost passes need.
	name := fmt.Sprintf("%x.te", key.srcHash[:6])
	ds, compiled, err := analysis.AnalyzeAndCompile(name, src, analysis.Options{Discipline: disc, Variant: vk})
	e.diags, e.compiled, e.err = diag.Render(ds), compiled, err
	if compiled == nil && err == nil {
		e.rejected = true
		e.frontend = len(ds) == 1 && (ds[0].Check == "parse" || ds[0].Check == "sema")
	}
	e.bytes = e.footprint()
	c.mu.Lock()
	c.bytes += e.bytes // before done closes: a settled entry is counted
	c.mu.Unlock()
	close(e.done)
	return e
}

// evictOne evicts one settled entry, in map order, which is as good as
// random here, and reports whether there was one. c.mu is held.
func (c *ProgramCache) evictOne() bool {
	for k, e := range c.entries {
		select {
		case <-e.done:
		default:
			continue // never evict an in-flight compilation
		}
		delete(c.entries, k)
		c.bytes -= e.bytes
		c.evictions++
		return true
	}
	return false
}

// sourceDigest is the SHA-256 of src, hashed in place: the cache key is
// shared across tenants, so it must resist collisions one tenant could aim
// at another's program. sha256 only reads its input, and a []byte(src)
// conversion, or an io.WriteString into a hash.Hash, copies the whole source.
func sourceDigest(src string) [sha256.Size]byte {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(src), len(src)))
}

// CacheCounters is a point-in-time snapshot of the cache accounting.
type CacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"` // footprint of the settled entries
}

// Counters returns the cache accounting.
func (c *ProgramCache) Counters() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries), Bytes: c.bytes}
}
