package multiop

import (
	"math/rand"
	"slices"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
)

// resolveSorted is the oracle of Combiner.Resolve, the way it used to work:
// sort the step's contributions by (addr, key) and fold each address run in
// that order. It returns the final per address and the prefix per Dest.
func resolveSorted(kind isa.Op, cs []Contribution, read func(int64) int64) (finals, prefixes map[int64]int64) {
	cs = slices.Clone(cs)
	slices.SortFunc(cs, func(a, b Contribution) int { return mem.CompareRefs(a.Addr, a.Key, b.Addr, b.Key) })
	finals, prefixes = map[int64]int64{}, map[int64]int64{}
	for i, c := range cs {
		if i == 0 || cs[i-1].Addr != c.Addr {
			finals[c.Addr] = read(c.Addr)
		}
		if c.WantPrefix {
			prefixes[int64(c.Dest)] = finals[c.Addr]
		}
		finals[c.Addr] = Apply(kind, finals[c.Addr], c.Val)
	}
	return finals, prefixes
}

// FuzzResolveVsSorted holds Resolve to the sort-and-fold oracle over the five
// kinds × prefix/plain mixes × one/few/many addresses × in-order/out-of-order
// keys: identical finals (each address once, in first-touch order) and
// identical prefix routing, over two steps so the retained table,
// accumulators and arrival-order state are reused.
func FuzzResolveVsSorted(f *testing.F) {
	for k := range Kinds {
		f.Add(int64(k), uint8(k), uint8(k), uint8(k*60), k%2 == 0, uint16(40*(k+1)))
	}
	f.Add(int64(9), uint8(0), uint8(0), uint8(255), false, uint16(3000))
	f.Add(int64(10), uint8(3), uint8(2), uint8(128), true, uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, addrSel, prefixShare uint8, shuffle bool, n uint16) {
		kind := Kinds[int(kindSel)%len(Kinds)]
		rng := rand.New(rand.NewSource(seed))
		addrs := []int{1, 5, 1 << 20}[int(addrSel)%3]
		read := func(addr int64) int64 { return addr*7 - 3 }
		c := NewCombiner(kind)
		for step := 0; step < 2; step++ {
			// Keys are unique per reference, as the engine's are, and arrive
			// ascending unless shuffled; the second step always arrives in
			// order, so a stale out-of-order flag would only cost a sort.
			cs := make([]Contribution, int(n)%4096+1)
			for i := range cs {
				cs[i] = Contribution{
					Addr:       int64(rng.Intn(addrs)),
					Val:        int64(rng.Intn(2000) - 1000),
					Key:        Key{Flow: i / 64, Thread: i % 64, Seq: step},
					WantPrefix: rng.Intn(256) < int(prefixShare),
					Dest:       i,
				}
			}
			if shuffle && step == 0 {
				rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
			}
			wantFinals, wantPrefixes := resolveSorted(kind, cs, read)
			for _, ct := range cs {
				c.Add(ct)
			}
			finals, prefixes := c.Resolve(read)
			if c.Len() != 0 {
				t.Fatalf("%d contributions left after Resolve", c.Len())
			}

			if len(finals) != len(wantFinals) {
				t.Fatalf("%d finals, want %d", len(finals), len(wantFinals))
			}
			var firstTouch []int64
			for _, ct := range cs {
				if !slices.Contains(firstTouch, ct.Addr) {
					firstTouch = append(firstTouch, ct.Addr)
				}
				if len(firstTouch) == len(finals) || len(firstTouch) > 8 {
					break
				}
			}
			for i, fin := range finals {
				if want, ok := wantFinals[fin.Addr]; !ok || fin.Val != want {
					t.Fatalf("final at %d = %d, want %d (touched %v)", fin.Addr, fin.Val, want, ok)
				}
				delete(wantFinals, fin.Addr) // a second final for the address fails above
				// Without the key sort, finals come in first-touch order.
				if !shuffle && i < len(firstTouch) && fin.Addr != firstTouch[i] {
					t.Fatalf("final %d is address %d, first touched was %d", i, fin.Addr, firstTouch[i])
				}
			}

			if len(prefixes) != len(wantPrefixes) {
				t.Fatalf("%d prefixes, want %d", len(prefixes), len(wantPrefixes))
			}
			for _, p := range prefixes {
				if want, ok := wantPrefixes[int64(p.Dest)]; !ok || p.Prefix != want {
					t.Fatalf("prefix routed to %d = %d, want %d (wanted %v)", p.Dest, p.Prefix, want, ok)
				}
				if cs0 := (Key{Flow: p.Dest / 64, Thread: p.Dest % 64, Seq: step}); p.Key != cs0 {
					t.Fatalf("prefix routed to %d carries key %v, want %v", p.Dest, p.Key, cs0)
				}
				delete(wantPrefixes, int64(p.Dest))
			}
		}
	})
}

// BenchmarkResolve times Add+Resolve on 2^17 references of the probe shapes
// of bench/probes.go — few_addr (histogram: 256 addresses, no prefixes),
// one_addr (scan: one address, every lane wants its prefix) — and on
// many_addr (every reference its own address) and unordered_prefix (one_addr
// arriving in reverse key order, the one case that still sorts).
func BenchmarkResolve(b *testing.B) {
	const T = 1 << 17
	read := func(int64) int64 { return 0 }
	for _, c := range []struct {
		name string
		ref  func(t int) Contribution
	}{
		{"few_addr", func(t int) Contribution {
			return Contribution{Addr: int64((t * 40503) & 255), Val: 1, Key: Key{Thread: t}}
		}},
		{"one_addr", func(t int) Contribution {
			return Contribution{Addr: 7, Val: int64(t & 1023), Key: Key{Thread: t}, WantPrefix: true, Dest: t}
		}},
		{"many_addr", func(t int) Contribution {
			return Contribution{Addr: int64(t * 40503), Val: 1, Key: Key{Thread: t}}
		}},
		{"unordered_prefix", func(t int) Contribution {
			return Contribution{Addr: 7, Val: int64(t & 1023), Key: Key{Thread: T - t}, WantPrefix: true, Dest: t}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			comb := NewCombiner(isa.ADD)
			step := func() {
				for t := 0; t < T; t++ {
					comb.Add(c.ref(t))
				}
				comb.Resolve(read)
			}
			step() // grow the arenas once, outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/T, "ns/ref")
		})
	}
}
