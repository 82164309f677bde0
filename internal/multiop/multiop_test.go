package multiop

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"tcfpram/internal/isa"
)

func TestApplyOperators(t *testing.T) {
	cases := []struct {
		kind isa.Op
		a, b int64
		want int64
	}{
		{isa.ADD, 3, 4, 7},
		{isa.AND, 0b1100, 0b1010, 0b1000},
		{isa.OR, 0b1100, 0b1010, 0b1110},
		{isa.MAX, 3, 9, 9},
		{isa.MAX, 9, 3, 9},
		{isa.MIN, 3, 9, 3},
		{isa.MIN, -5, 2, -5},
	}
	for _, c := range cases {
		if got := Apply(c.kind, c.a, c.b); got != c.want {
			t.Errorf("Apply(%s, %d, %d) = %d, want %d", c.kind, c.a, c.b, got, c.want)
		}
	}
}

func TestApplyPanicsOnBadOperator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Apply(isa.SUB, 1, 2)
}

func TestNewCombinerRejectsBadOperator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCombiner(isa.XOR)
}

func TestResolveEmpty(t *testing.T) {
	c := NewCombiner(isa.ADD)
	finals, prefixes := c.Resolve(func(int64) int64 { return 0 })
	if finals != nil || prefixes != nil {
		t.Fatal("empty resolve should return nils")
	}
}

func TestMultioperationSum(t *testing.T) {
	c := NewCombiner(isa.ADD)
	for i := 0; i < 8; i++ {
		c.Add(Contribution{Addr: 10, Val: int64(i + 1), Key: Key{Thread: i}})
	}
	finals, prefixes := c.Resolve(func(int64) int64 { return 100 })
	if len(prefixes) != 0 {
		t.Fatalf("no prefixes requested, got %d", len(prefixes))
	}
	if len(finals) != 1 || finals[0] != (Final{Addr: 10, Val: 100 + 36}) {
		t.Fatalf("finals = %v, want 136 at 10", finals)
	}
}

func TestMultiprefixOrderedByKey(t *testing.T) {
	c := NewCombiner(isa.ADD)
	// Insert in scrambled order; prefixes must follow key order.
	order := []int{3, 0, 2, 1}
	for _, i := range order {
		c.Add(Contribution{Addr: 5, Val: 1, Key: Key{Thread: i}, WantPrefix: true, Dest: i})
	}
	finals, prefixes := c.Resolve(func(int64) int64 { return 0 })
	if len(finals) != 1 || finals[0] != (Final{Addr: 5, Val: 4}) {
		t.Fatalf("finals = %v, want 4 at 5", finals)
	}
	if len(prefixes) != 4 {
		t.Fatalf("got %d prefixes", len(prefixes))
	}
	for i, p := range prefixes {
		if p.Key.Thread != i {
			t.Fatalf("prefix %d has key thread %d", i, p.Key.Thread)
		}
		if p.Prefix != int64(i) {
			t.Fatalf("prefix for thread %d = %d, want %d", i, p.Prefix, i)
		}
		if p.Dest != i {
			t.Fatalf("dest echo broken: %d", p.Dest)
		}
	}
}

func TestMultiprefixSeparateAddresses(t *testing.T) {
	c := NewCombiner(isa.ADD)
	c.Add(Contribution{Addr: 1, Val: 10, Key: Key{Thread: 0}, WantPrefix: true})
	c.Add(Contribution{Addr: 2, Val: 20, Key: Key{Thread: 1}, WantPrefix: true})
	finals, prefixes := c.Resolve(func(addr int64) int64 { return addr * 100 })
	if !slices.Equal(finals, []Final{{1, 110}, {2, 220}}) {
		t.Fatalf("finals = %v", finals)
	}
	if prefixes[0].Prefix != 100 || prefixes[1].Prefix != 200 {
		t.Fatalf("prefixes = %v", prefixes)
	}
}

func TestResolveClearsState(t *testing.T) {
	c := NewCombiner(isa.ADD)
	c.Add(Contribution{Addr: 1, Val: 1, Key: Key{Thread: 1}, WantPrefix: true})
	c.Add(Contribution{Addr: 1, Val: 1, Key: Key{Thread: 0}})
	if _, prefixes := c.Resolve(func(int64) int64 { return 0 }); len(prefixes) != 1 || prefixes[0].Prefix != 1 {
		t.Fatalf("prefixes = %v, want the one of thread 1 behind thread 0's contribution", prefixes)
	}
	if c.Len() != 0 {
		t.Fatal("combiner should be empty after resolve")
	}
	finals, _ := c.Resolve(func(int64) int64 { return 0 })
	if finals != nil {
		t.Fatal("second resolve should be empty")
	}
}

// Property: multiprefix over ADD equals the sequential exclusive prefix sum
// in key order, and the final is initial + total.
func TestMultiprefixMatchesSequentialScan(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		vals := make([]int64, count)
		for i := range vals {
			vals[i] = int64(rng.Intn(100) - 50)
		}
		c := NewCombiner(isa.ADD)
		perm := rng.Perm(count)
		for _, i := range perm {
			c.Add(Contribution{Addr: 7, Val: vals[i], Key: Key{Flow: i / 8, Thread: i % 8}, WantPrefix: true, Dest: i})
		}
		initial := int64(rng.Intn(1000))
		finals, prefixes := c.Resolve(func(int64) int64 { return initial })
		acc := initial
		for idx, p := range prefixes {
			i := idx // key order == construction order (flow-major then thread)
			if p.Prefix != acc {
				return false
			}
			if p.Dest != i {
				return false
			}
			acc += vals[i]
		}
		return len(finals) == 1 && finals[0] == Final{Addr: 7, Val: acc}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for every combining operator, the final value equals a left fold
// over key-sorted contributions.
func TestResolveEqualsFold(t *testing.T) {
	kinds := []isa.Op{isa.ADD, isa.AND, isa.OR, isa.MAX, isa.MIN}
	prop := func(seed int64, kindSel uint8) bool {
		kind := kinds[int(kindSel)%len(kinds)]
		rng := rand.New(rand.NewSource(seed))
		count := rng.Intn(20) + 1
		c := NewCombiner(kind)
		vals := make([]int64, count)
		for i := range vals {
			vals[i] = int64(rng.Intn(64))
			c.Add(Contribution{Addr: 3, Val: vals[i], Key: Key{Thread: i}})
		}
		initial := int64(rng.Intn(64))
		finals, _ := c.Resolve(func(int64) int64 { return initial })
		want := initial
		for _, v := range vals {
			want = Apply(kind, want, v)
		}
		return len(finals) == 1 && finals[0] == Final{Addr: 3, Val: want}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentity(t *testing.T) {
	for _, kind := range []isa.Op{isa.ADD, isa.AND, isa.OR, isa.MAX, isa.MIN} {
		id := Identity(kind)
		for _, v := range []int64{-17, 0, 3, 1 << 40} {
			if got := Apply(kind, id, v); got != v {
				t.Errorf("%s identity broken: Apply(id, %d) = %d", kind, v, got)
			}
		}
	}
}

func TestKeyOrderingTotal(t *testing.T) {
	prop := func(f1, t1, s1, f2, t2, s2 uint8) bool {
		a := Key{Flow: int(f1 % 4), Thread: int(t1 % 4), Seq: int(s1 % 4)}
		b := Key{Flow: int(f2 % 4), Thread: int(t2 % 4), Seq: int(s2 % 4)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunHeaderSize pins a combining run header: a mem.Run (its issue and
// where each of its two sides lies) and its prefix destination.
func TestRunHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(Run{}); n > 64 {
		t.Fatalf("multiop.Run is %d bytes, want at most 64", n)
	}
}
