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
// whim, as several, most of them bounded by the interval of their addresses.
// A multiprefix run delivers into got, at its Dests. A run is copied into the
// columns (the reference's filler) or, at the rng's whim, referred to where
// it lies (the engine's): its addresses a form when they are one — one
// address, or affine — and otherwise a bank plus an offset, its values a form
// when they are one and otherwise a bank; a multiprefix run's bank may be its
// destination itself, got (x = mpadd(&s, x)).
func logRuns(rng *rand.Rand, c *Combiner, cs []Contribution, got []int64) {
	logs := make([]*Log, 1+rng.Intn(3))
	for i := range logs {
		logs[i] = new(Log)
	}
	for from := 0; from < len(cs); {
		to := from + 1
		for to < len(cs) && rng.Intn(16) > 0 && (to%16 != 0 || rng.Intn(2) > 0) && cs[to].WantPrefix == cs[from].WantPrefix &&
			cs[to].Dest == cs[from].Dest+to-from &&
			cs[to].Key == (Key{Flow: cs[from].Key.Flow, Thread: cs[from].Key.Thread + to - from, Seq: cs[from].Key.Seq}) {
			to++
		}
		k := cs[from].Key
		is := mem.Issue{Flow: k.Flow, Seq: k.Seq, Thread0: k.Thread, N: to - from}
		var dest []int64
		if cs[from].WantPrefix {
			dest = got[cs[from].Dest:][:to-from]
		}
		l := logs[from*len(logs)/len(cs)]
		addrs, vals := make([]int64, to-from), make([]int64, to-from)
		for i, ct := range cs[from:to] {
			addrs[i], vals[i] = ct.Addr, ct.Val
		}
		bound := rng.Intn(8) > 0
		if rng.Intn(3) == 0 {
			r, as, vs := l.Open(is)
			r.Prefix = dest
			copy(as, addrs)
			copy(vs, vals)
		} else {
			a, v := formOf(addrs), formOf(vals)
			if a.Lanes != nil && rng.Intn(2) == 0 {
				// A bank plus the instruction's offset.
				a.Base = int64(rng.Intn(2000) - 1000)
				for i := range addrs {
					a.Lanes[i] -= a.Base
				}
			}
			switch alias := rng.Intn(3); {
			case dest == nil:
			case alias == 0 && (v.Lanes != nil || rng.Intn(2) == 0):
				v = mem.Operand{Lanes: dest}
				copy(dest, vals)
			case alias == 1 && a.Lanes != nil:
				copy(dest, a.Lanes)
				a.Lanes = dest
			}
			l.Refer(is, &a, &v).Prefix = dest
		}
		if bound {
			l.Bound(slices.Min(addrs), slices.Max(addrs))
		}
		from = to
	}
	for _, l := range logs {
		c.AddLog(l)
	}
}

// formOf returns the lanes w as an Operand: the form they lie in, when they
// lie in one, and a bank of their own otherwise.
func formOf(w []int64) mem.Operand {
	o := mem.Operand{Base: w[0]}
	if len(w) > 1 {
		o.Stride = w[1] - w[0]
	}
	for i, x := range w {
		if x != o.Base+o.Stride*int64(i) {
			return mem.Operand{Lanes: slices.Clone(w)}
		}
	}
	return o
}

// FuzzResolveVsSorted holds Resolve to the sort-and-fold oracle over the five
// kinds × prefix/plain mixes × one/few/some/many addresses anywhere in the
// int64 range × in-order/out-of-order keys × single contributions through
// Add / runs through logs: identical finals (each address once, in
// first-touch order) and identical prefixes — returned as Results to Add's
// callers, delivered in place to a log's runs — over two steps so the
// retained table, accumulators and run order are reused. Few addresses make a
// compact interval, which resolves by index when every log is bounded, and
// many a sparse one; so do some once there are more than a few hundred
// references.
func FuzzResolveVsSorted(f *testing.F) {
	for k := range Kinds {
		f.Add(int64(k), uint8(k), uint8(k), uint8(k*60), k%2 == 0, k%2 == 1, uint16(40*(k+1)))
		f.Add(int64(k), uint8(k), uint8(k), uint8(k*60), k%2 == 1, true, uint16(90*(k+1)))
	}
	f.Add(int64(9), uint8(0), uint8(0), uint8(255), false, false, uint16(3000))
	f.Add(int64(10), uint8(3), uint8(2), uint8(128), true, false, uint16(3000))
	f.Add(int64(11), uint8(0), uint8(0), uint8(255), true, true, uint16(3000))
	f.Add(int64(12), uint8(3), uint8(2), uint8(0), false, true, uint16(2000))  // MAX, compact
	f.Add(int64(13), uint8(4), uint8(2), uint8(90), true, true, uint16(100))   // MIN, sparse
	f.Add(int64(14), uint8(1), uint8(3), uint8(200), false, true, uint16(900)) // AND, many
	f.Add(int64(15), uint8(2), uint8(0), uint8(255), true, true, uint16(4000)) // OR, prefixes onto one word
	f.Add(int64(16), uint8(0), uint8(0), uint8(255), false, true, uint16(600)) // ADD, x = mpadd(&s, x) among the runs
	f.Add(int64(17), uint8(3), uint8(1), uint8(255), false, true, uint16(600)) // MAX, prefixes into the address or value bank
	f.Fuzz(func(t *testing.T, seed int64, kindSel, addrSel, prefixShare uint8, shuffle, logged bool, n uint16) {
		kind := Kinds[int(kindSel)%len(Kinds)]
		rng := rand.New(rand.NewSource(seed))
		addrs := []int{1, 5, 700, 1 << 20}[int(addrSel)%4]
		base := []int64{0, -350, 1 << 40, -1 << 63, 1<<63 - 700}[rng.Intn(5)]
		if addrs == 1<<20 {
			base = 0
		}
		read := func(addr int64) int64 { return addr*7 - 3 }
		c := NewCombiner(kind)
		for step := 0; step < 2; step++ {
			// Keys are unique per reference, as the engine's are, and arrive
			// ascending unless shuffled — by whole flows, as the arms of a
			// parallel statement on different groups do, or reference by
			// reference; the second step always arrives in order, so stale
			// run-order state would show. A stretch of lanes wants its
			// prefixes or does not, as an instruction does.
			// A stretch of 16 references takes an address and a value shape:
			// scattered, one for all, or affine.
			cs := make([]Contribution, int(n)%4096+1)
			want := false
			var addrShape, valShape, a0, v0, as, vs int64
			for i := range cs {
				if i%16 == 0 {
					want = rng.Intn(256) < int(prefixShare)
					addrShape, a0, as = int64(rng.Intn(3)), int64(rng.Intn(addrs)), int64(rng.Intn(7)-3)
					valShape, v0, vs = int64(rng.Intn(3)), int64(rng.Intn(2000)-1000), int64(rng.Intn(41)-20)
				}
				addr, val := base+int64(rng.Intn(addrs)), int64(rng.Intn(2000)-1000)
				switch j := int64(i % 16); {
				case addrShape == 1:
					addr = base + a0
				case addrShape == 2:
					addr = base + a0 + as*j
				}
				switch j := int64(i % 16); {
				case valShape == 1:
					val = v0
				case valShape == 2:
					val = v0 + vs*j
				}
				cs[i] = Contribution{
					Addr:       addr,
					Val:        val,
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
	for seq, prefix := range [][]int64{late, early} {
		r, addrs, vals := l.Open(mem.Issue{Flow: 2, Seq: 1 - seq, Thread0: 0, N: 3})
		r.Prefix = prefix
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

// TestResolveRoutes: a step's traffic resolves by index exactly when every
// log is bounded and the interval compact — 300 references on 64 words
// through a bounded log or through Add — and by hash otherwise: a log not
// bounded, or the same references spread 1000 words apart; the counters say
// which, and both routes fold to the same finals and prefixes.
func TestResolveRoutes(t *testing.T) {
	var want []int64
	for _, tc := range []struct {
		name           string
		spread         int64
		bound, viaAdd  bool
		indexed, accum int64
	}{
		{"bounded", 1, true, false, 300, 64},
		{"add", 1, false, true, 300, 64},
		{"unbounded", 1, false, false, 0, 64},
		{"sparse", 1000, true, false, 0, 64}, // reads as the others: 1000 % 3 == 1
	} {
		c := NewCombiner(isa.MAX)
		got := make([]int64, 300)
		var l Log
		for r := 0; r < 3; r++ {
			if tc.viaAdd {
				for i := 0; i < 100; i++ {
					c.Add(Contribution{Addr: 5 + int64((i*7+r)%64)*tc.spread, Val: int64(i ^ r), Key: Key{Flow: r, Thread: i}, WantPrefix: true, Dest: 100*r + i})
				}
				continue
			}
			run, addrs, vals := l.Open(mem.Issue{Flow: r, N: 100})
			run.Prefix = got[100*r : 100*r+100]
			for i := range addrs {
				addrs[i], vals[i] = 5+int64((i*7+r)%64)*tc.spread, int64(i^r)
			}
			if tc.bound {
				l.Bound(slices.Min(addrs), slices.Max(addrs))
			}
		}
		c.AddLog(&l)
		finals, prefixes := c.Resolve(func(a int64) int64 { return a % 3 })
		for _, p := range prefixes {
			got[p.Dest] = p.Prefix
		}
		if st := c.Stats(); st != (Stats{Refs: 300, Accumulators: tc.accum, IndexedRefs: tc.indexed}) {
			t.Errorf("%s: %v", tc.name, st)
		}
		for _, f := range finals {
			got = append(got, f.Val)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("%s: prefixes and finals %v, want %v", tc.name, got, want)
		}
	}
}

// BenchmarkResolve times a step's combining traffic from the issue to its
// finals — the run header and the read-only pass that bounds the addresses,
// AddLog, Resolve — on 2^17 references shaped as the engine issues them, by
// reference to the registers' banks: few_addr (engine-thick's histogram: one
// madd run onto 256 addresses), one_addr_prefix (its scan: one mpadd run onto
// one word, every lane's prefix delivered in place), two_flows_one_addr (the
// same from two flows of half the thickness, the higher flow's run arriving
// first) and few_addr_sparse (256 addresses 4096 words apart, which the hash
// resolves); few_addr_copied is few_addr with both columns filled, as the
// reference machine issues it. B/ref is what a step buffers per reference:
// the words a run keeps in the log's columns and its share of a header.
func BenchmarkResolve(b *testing.B) {
	const T = 1 << 17
	read := func(int64) int64 { return 0 }
	dest := make([]int64, T)
	column := func(v func(t int) int64) []int64 {
		c := make([]int64, T)
		for t := range c {
			c[t] = v(t)
		}
		return c
	}
	few, vals := column(func(t int) int64 { return int64((t * 40503) & 255) }), column(func(t int) int64 { return int64(t & 1023) })
	sparse := column(func(t int) int64 { return int64((t*40503)&255) << 12 })
	// refer issues one run as the engine does: an address bank bounded in a
	// read-only pass, or a flow-common address, and the values' bank.
	refer := func(l *Log, flow int, prefix []int64, addrs []int64, one bool, vals []int64) {
		is := mem.Issue{Flow: flow, N: len(vals)}
		if one {
			l.Refer(is, &mem.Operand{Base: 7}, &mem.Operand{Lanes: vals}).Prefix = prefix
			return
		}
		l.Refer(is, &mem.Operand{Lanes: addrs}, &mem.Operand{Lanes: vals}).Prefix = prefix
		lo, hi := addrs[0], addrs[0]
		for _, a := range addrs {
			lo, hi = min(lo, a), max(hi, a)
		}
		l.Bound(lo, hi)
	}
	for _, c := range []struct {
		name string
		fill func(l *Log)
	}{
		{"few_addr", func(l *Log) { refer(l, 0, nil, few, false, vals) }},
		{"one_addr_prefix", func(l *Log) { refer(l, 0, dest, nil, true, vals) }},
		{"two_flows_one_addr", func(l *Log) {
			refer(l, 1, dest[T/2:], nil, true, vals[T/2:])
			refer(l, 0, dest[:T/2], nil, true, vals[:T/2])
		}},
		{"few_addr_sparse", func(l *Log) { refer(l, 0, nil, sparse, false, vals) }},
		{"few_addr_copied", func(l *Log) {
			_, addrs, vs := l.Open(mem.Issue{N: T})
			lo, hi := few[0], few[0]
			for t, a := range few {
				addrs[t], vs[t] = a, vals[t]
				lo, hi = min(lo, a), max(hi, a)
			}
			l.Bound(lo, hi)
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
			b.ReportMetric((8*float64(len(l.Addrs)+len(l.Vals))+float64(len(l.Runs))*float64(unsafe.Sizeof(Run{})))/T, "B/ref")
		})
	}
}
