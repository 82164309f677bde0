package serve

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tcfpram/internal/analysis"
	"tcfpram/internal/lang"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/variant"
)

// TestCacheSingleFlight: concurrent requests for one program share exactly
// one vet+compile.
func TestCacheSingleFlight(t *testing.T) {
	c := NewProgramCache(64)
	var wg sync.WaitGroup
	entries := make([]*cacheEntry, 16)
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i] = c.Get(validSrc, variant.SingleInstruction, mem.DisciplineCREW)
		}(i)
	}
	wg.Wait()
	first := entries[0]
	for i, e := range entries {
		if e != first {
			t.Fatalf("request %d got a different entry", i)
		}
	}
	if first.rejected || first.err != nil || first.compiled == nil {
		t.Fatalf("bad entry: %+v", first)
	}
	cc := c.Counters()
	if cc.Misses != 1 || cc.Hits != 15 || cc.Entries != 1 {
		t.Fatalf("counters: %+v", cc)
	}
}

// TestCacheMemoizesFailures: broken programs are compiled once and the
// rejection class (frontend vs analyzer) is preserved.
func TestCacheMemoizesFailures(t *testing.T) {
	c := NewProgramCache(64)
	for i := 0; i < 3; i++ {
		e := c.Get(vetBadSrc, variant.SingleInstruction, mem.DisciplineCREW)
		if !e.rejected || e.frontend {
			t.Fatalf("vet-bad entry: rejected=%v frontend=%v", e.rejected, e.frontend)
		}
		e = c.Get(parseBadSrc, variant.SingleInstruction, mem.DisciplineCREW)
		if !e.rejected || !e.frontend {
			t.Fatalf("parse-bad entry: rejected=%v frontend=%v", e.rejected, e.frontend)
		}
	}
	if cc := c.Counters(); cc.Misses != 2 || cc.Hits != 4 {
		t.Fatalf("counters: %+v", cc)
	}
}

// TestCacheKeyedByDiscipline: the same source vets differently under CRCW
// (where concurrent writes are legal) than under CREW.
func TestCacheKeyedByDiscipline(t *testing.T) {
	c := NewProgramCache(64)
	crew := c.Get(vetBadSrc, variant.SingleInstruction, mem.DisciplineCREW)
	crcw := c.Get(vetBadSrc, variant.SingleInstruction, mem.DisciplineCRCW)
	if !crew.rejected {
		t.Fatal("CREW accepted a concurrent write")
	}
	if crcw.rejected {
		t.Fatal("CRCW rejected a legal concurrent write")
	}
}

// TestCacheEntryHoldsLoadImage: a cache entry of cold.te, its cost memo
// filled by a served request, reaches nothing of the front end — no type of
// lang, sema or analysis but the values of a load image and a cost report —
// and its footprint stays within 40 KB (29 KB, 24 KB of it the 1 014
// instructions of 24 bytes).
func TestCacheEntryHoldsLoadImage(t *testing.T) {
	s := New(Options{})
	serveBody(t, s.Handler(), coldBodies(t, 1)[0])
	if n := s.cache.Counters().Entries; n != 1 {
		t.Fatalf("%d cache entries, want 1", n)
	}
	var e *cacheEntry
	for _, e = range s.cache.entries { // the one entry
	}
	if e.compiled == nil || e.compiled.ThickCeiling == 0 || len(e.costs) != 1 {
		t.Fatalf("entry without a program, its thickness ceiling or a memoized cost: %+v", e)
	}
	if e.bytes > 40<<10 || e.bytes != s.cache.Counters().Bytes {
		t.Fatalf("footprint %d bytes (cache counts %d), want at most 40 KB", e.bytes, s.cache.Counters().Bytes)
	}
	t.Logf("cold.te entry: %d instructions, footprint %d bytes", e.compiled.Program.Len(), e.bytes)
	allowed := map[reflect.Type]bool{
		reflect.TypeOf(sema.DataSeg{}):        true,
		reflect.TypeOf(lang.Pos{}):            true,
		reflect.TypeOf(analysis.CostParams{}): true,
		reflect.TypeOf(analysis.CostReport{}): true,
		reflect.TypeOf(analysis.Bound{}):      true,
	}
	frontEnd := map[string]bool{
		reflect.TypeOf(sema.Info{}).PkgPath():           true,
		reflect.TypeOf(lang.Program{}).PkgPath():        true,
		reflect.TypeOf(analysis.CostReport{}).PkgPath(): true,
	}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if frontEnd[v.Type().PkgPath()] && !allowed[v.Type()] {
			t.Fatalf("%s reaches a %v", path, v.Type())
		}
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem(), "(*"+path+")")
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key(), path+"{key}")
				walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
			}
		}
	}
	walk(reflect.ValueOf(e), "entry")
}

// TestCacheEvictsByBytes: a program whose load image outweighs the whole
// byte budget is evicted by the next miss although the count bound has
// room, and an in-flight compilation is never evicted.
func TestCacheEvictsByBytes(t *testing.T) {
	c := NewProgramCache(16)
	inFlight := &cacheEntry{done: make(chan struct{})}
	c.entries[cacheKey{}] = inFlight // no source hashes to the zero key
	hostile := c.Get("func main() {\n"+strings.Repeat("\tprint(1);\n", 100_000)+"}\n", variant.SingleInstruction, mem.DisciplineCREW)
	if hostile.compiled == nil || hostile.compiled.Program.Len() < 100_000 {
		t.Fatalf("the hostile program did not compile to 100k instructions: %+v", hostile)
	}
	if cc := c.Counters(); cc.Bytes != hostile.bytes || cc.Bytes <= c.maxBytes {
		t.Fatalf("a %d-instruction entry within a %d-byte budget: %+v", hostile.compiled.Program.Len(), c.maxBytes, cc)
	}
	c.Get(validSrc, variant.SingleInstruction, mem.DisciplineCREW)
	cc := c.Counters()
	if cc.Evictions != 1 || cc.Entries != 2 || cc.Bytes > c.maxBytes {
		t.Fatalf("the hostile entry was not evicted by bytes: %+v", cc)
	}
	if c.entries[cacheKey{}] != inFlight {
		t.Fatal("an in-flight compilation was evicted")
	}
}

// TestCacheEviction: the cache stays bounded, evicting settled entries.
func TestCacheEviction(t *testing.T) {
	c := NewProgramCache(16)
	for i := 0; i < 24; i++ {
		src := fmt.Sprintf(`func main() { print(%d); }`, i)
		if e := c.Get(src, variant.SingleInstruction, mem.DisciplineCREW); e.rejected || e.err != nil {
			t.Fatalf("program %d rejected", i)
		}
	}
	cc := c.Counters()
	if cc.Entries > 16 {
		t.Fatalf("cache grew past its bound: %+v", cc)
	}
	if cc.Evictions < 8 {
		t.Fatalf("expected at least 8 evictions: %+v", cc)
	}
}
