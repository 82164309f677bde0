package multiop

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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

// logRuns hands c the contributions cs in arrival order as the engine would:
// in one to three logs (groups fold theirs in order), consecutive
// contributions of one flow and sequence by ascending threads — alike in
// wanting a prefix, their Dests consecutive — as one run or, at the rng's
// whim, as several. A multiprefix run delivers into got, at its Dests.
func logRuns(rng *rand.Rand, c *Combiner, cs []Contribution, got []int64) {
	logs := make([]*Log, 1+rng.Intn(3))
	for i := range logs {
		logs[i] = new(Log)
	}
	for from := 0; from < len(cs); {
		to := from + 1
		for to < len(cs) && rng.Intn(16) > 0 && cs[to].WantPrefix == cs[from].WantPrefix &&
			cs[to].Dest == cs[from].Dest+to-from &&
			cs[to].Key == (Key{Flow: cs[from].Key.Flow, Thread: cs[from].Key.Thread + to - from, Seq: cs[from].Key.Seq}) {
			to++
		}
		k := cs[from].Key
		run := Run{Run: mem.Run{Flow: k.Flow, Seq: k.Seq, Thread0: k.Thread, N: to - from}}
		if cs[from].WantPrefix {
			run.Prefix = got[cs[from].Dest:][:to-from]
		}
		addrs, vals := logs[from*len(logs)/len(cs)].Open(run)
		for i, ct := range cs[from:to] {
			addrs[i], vals[i] = ct.Addr, ct.Val
		}
		from = to
	}
	for _, l := range logs {
		c.AddLog(l)
	}
}

// FuzzResolveVsSorted holds Resolve to the sort-and-fold oracle over the five
// kinds × prefix/plain mixes × one/few/many addresses × in-order/out-of-order
// keys × single contributions through Add / runs through logs: identical
// finals (each address once, in first-touch order) and identical prefixes —
// returned as Results to Add's callers, delivered in place to a log's runs —
// over two steps so the retained table, accumulators and run order are reused.
func FuzzResolveVsSorted(f *testing.F) {
	for k := range Kinds {
		f.Add(int64(k), uint8(k), uint8(k), uint8(k*60), k%2 == 0, k%2 == 1, uint16(40*(k+1)))
		f.Add(int64(k), uint8(k), uint8(k), uint8(k*60), k%2 == 1, true, uint16(90*(k+1)))
	}
	f.Add(int64(9), uint8(0), uint8(0), uint8(255), false, false, uint16(3000))
	f.Add(int64(10), uint8(3), uint8(2), uint8(128), true, false, uint16(3000))
	f.Add(int64(11), uint8(0), uint8(0), uint8(255), true, true, uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, addrSel, prefixShare uint8, shuffle, logged bool, n uint16) {
		kind := Kinds[int(kindSel)%len(Kinds)]
		rng := rand.New(rand.NewSource(seed))
		addrs := []int{1, 5, 1 << 20}[int(addrSel)%3]
		read := func(addr int64) int64 { return addr*7 - 3 }
		c := NewCombiner(kind)
		for step := 0; step < 2; step++ {
			// Keys are unique per reference, as the engine's are, and arrive
			// ascending unless shuffled — by whole flows, as the arms of a
			// parallel statement on different groups do, or reference by
			// reference; the second step always arrives in order, so stale
			// run-order state would show. A stretch of lanes wants its
			// prefixes or does not, as an instruction does.
			cs := make([]Contribution, int(n)%4096+1)
			want := false
			for i := range cs {
				if i%16 == 0 {
					want = rng.Intn(256) < int(prefixShare)
				}
				cs[i] = Contribution{
					Addr:       int64(rng.Intn(addrs)),
					Val:        int64(rng.Intn(2000) - 1000),
					Key:        Key{Flow: i / 64, Thread: i % 64, Seq: step},
					WantPrefix: want,
					Dest:       i,
				}
			}
			if shuffle && step == 0 {
				if logged {
					flows := (len(cs) + 63) / 64
					perm := rng.Perm(flows)
					byFlow := make([]Contribution, 0, len(cs))
					for _, fl := range perm {
						byFlow = append(byFlow, cs[fl*64:min(len(cs), fl*64+64)]...)
					}
					cs = byFlow
				} else {
					rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
				}
			}
			wantFinals, wantPrefixes := resolveSorted(kind, cs, read)
			got := make([]int64, len(cs))
			if logged {
				logRuns(rng, c, cs, got)
			} else {
				for _, ct := range cs {
					c.Add(ct)
				}
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

			if logged {
				if len(prefixes) != 0 {
					t.Fatalf("%d Results for traffic that never came through Add", len(prefixes))
				}
				for dest, want := range wantPrefixes {
					if got[dest] != want {
						t.Fatalf("prefix delivered to %d = %d, want %d", dest, got[dest], want)
					}
				}
				continue
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

// TestResolveInterleavedRuns: two runs of one flow whose key ranges interleave
// (its threads at two sequences) and arrive out of order are folded reference
// by reference in key order.
func TestResolveInterleavedRuns(t *testing.T) {
	c := NewCombiner(isa.ADD)
	var l Log
	late, early := make([]int64, 3), make([]int64, 3)
	for _, r := range []Run{
		{Run: mem.Run{Flow: 2, Seq: 1, Thread0: 0, N: 3}, Prefix: late},
		{Run: mem.Run{Flow: 2, Seq: 0, Thread0: 0, N: 3}, Prefix: early},
	} {
		addrs, vals := l.Open(r)
		for i := range addrs {
			addrs[i], vals[i] = 40, 1
		}
	}
	c.AddLog(&l)
	finals, _ := c.Resolve(func(int64) int64 { return 100 })
	if !slices.Equal(finals, []Final{{Addr: 40, Val: 106}}) {
		t.Fatalf("finals = %v", finals)
	}
	// Key order is (thread, seq) within the flow: 0/0, 0/1, 1/0, 1/1, 2/0, 2/1.
	if !slices.Equal(early, []int64{100, 102, 104}) || !slices.Equal(late, []int64{101, 103, 105}) {
		t.Fatalf("prefixes seq 0 %v, seq 1 %v", early, late)
	}
}

// BenchmarkResolve times a step's combining traffic from the log to its
// finals — the column fills, AddLog, Resolve — on 2^17 references shaped as
// the engine issues them: few_addr (histogram: one madd run onto 256
// addresses), one_addr_prefix (scan: one mpadd run onto one word, every lane's
// prefix delivered in place) and two_flows_one_addr (the same from two flows
// of half the thickness, the higher flow's run arriving first). B/ref is what
// a step buffers per reference: two column words and its share of a header.
func BenchmarkResolve(b *testing.B) {
	const T = 1 << 17
	read := func(int64) int64 { return 0 }
	dest := make([]int64, T)
	run := func(l *Log, flow, n int, prefix []int64, addr func(t int) int64) {
		addrs, vals := l.Open(Run{Run: mem.Run{Flow: flow, N: n}, Prefix: prefix})
		for t := range addrs {
			addrs[t], vals[t] = addr(t), int64(t&1023)
		}
	}
	for _, c := range []struct {
		name string
		fill func(l *Log)
	}{
		{"few_addr", func(l *Log) { run(l, 0, T, nil, func(t int) int64 { return int64((t * 40503) & 255) }) }},
		{"one_addr_prefix", func(l *Log) { run(l, 0, T, dest, func(int) int64 { return 7 }) }},
		{"two_flows_one_addr", func(l *Log) {
			run(l, 1, T/2, dest[T/2:], func(int) int64 { return 7 })
			run(l, 0, T/2, dest[:T/2], func(int) int64 { return 7 })
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			comb := NewCombiner(isa.ADD)
			var l Log
			step := func() {
				l.Reset()
				c.fill(&l)
				comb.AddLog(&l)
				comb.Resolve(read)
			}
			step() // grow the arenas once, outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/T, "ns/ref")
			b.ReportMetric((16*T+float64(len(l.Runs))*float64(unsafe.Sizeof(Run{})))/T, "B/ref")
		})
	}
}
