package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// sortedStep is what one step's writes must leave behind: the reference
// resolveSorted computes it the way ApplyStep used to, by sorting.
type sortedStep struct {
	words     []int64
	done      int64
	issued    int64
	conflicts []Conflict
}

// resolveSorted is the oracle of ApplyStep: stable-sort the in-range writes
// by (addr, key) — stable, so writes of equal key stay in buffering order —
// and scan the address runs; the first write of a run wins, and under Common
// every later one of a different value is a conflict with it.
func resolveSorted(policy Policy, words int, ws []Write) sortedStep {
	ws = slices.DeleteFunc(slices.Clone(ws), func(w Write) bool { return w.Addr < 0 || w.Addr >= int64(words) })
	slices.SortStableFunc(ws, compareWrites)
	out := sortedStep{words: make([]int64, words), issued: int64(len(ws))}
	for i, w := range ws {
		if i == 0 || ws[i-1].Addr != w.Addr {
			out.words[w.Addr] = w.Val
			out.done++
		} else if policy == Common && w.Val != out.words[w.Addr] {
			out.conflicts = append(out.conflicts, Conflict{Addr: w.Addr, A: out.words[w.Addr], B: w.Val})
		}
	}
	return out
}

// check compares a fresh memory that has applied the step (returning
// conflicts) with the oracle: every word, both write counters, and the
// conflict report element for element.
func (want sortedStep) check(tb testing.TB, s *Shared, conflicts []Conflict) {
	tb.Helper()
	if !slices.Equal(conflicts, want.conflicts) {
		tb.Fatalf("conflicts %v, want %v", conflicts, want.conflicts)
	}
	for i, got := range s.Snapshot(0, len(want.words)) {
		if got != want.words[i] {
			tb.Fatalf("word %d = %d, want %d", i, got, want.words[i])
		}
	}
	if _, done, issued := s.Stats(); done != want.done || issued != want.issued {
		tb.Fatalf("write counters %d/%d, want %d/%d", done, issued, want.done, want.issued)
	}
	if n := s.PendingWrites(); n != 0 {
		tb.Fatalf("%d writes still buffered", n)
	}
}

// Arrival orders FuzzApplyStepVsSorted buffers a batch in.
const (
	arriveSorted      = iota // by (addr, key): the dense-store fast path
	arriveReversed           // the same, backwards
	arriveInterleaved        // flow by flow, each flow's lanes ascending: how groups fold
	arriveShuffled
	numArrivals
)

// FuzzApplyStepVsSorted holds ApplyStep to the sort-and-scan oracle over
// policy × module count × serial/parallel × arrival order, on batches with
// conflicting, out-of-range and equal-keyed writes, over two steps so the
// retained tables are reused.
func FuzzApplyStepVsSorted(f *testing.F) {
	for arrival := 0; arrival < numArrivals; arrival++ {
		for policy := 0; policy < 3; policy++ {
			f.Add(int64(arrival*3+policy), uint8(policy), uint8(1+arrival*2), arrival%2 == 0, uint8(arrival), uint16(300*(1+policy)), uint8(5*policy))
		}
	}
	f.Add(int64(77), uint8(0), uint8(4), true, uint8(arriveShuffled), uint16(6000), uint8(0))
	f.Add(int64(78), uint8(2), uint8(7), true, uint8(arriveInterleaved), uint16(5000), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, policySel, modules uint8, par bool, arrival uint8, n uint16, spread uint8) {
		const words = 1 << 12
		policy := Policy(policySel % 3)
		rng := rand.New(rand.NewSource(seed))
		s := mustShared(t, words, 1+int(modules%16), policy)
		s.SetParallel(par)
		var total sortedStep
		for step := 0; step < 2; step++ {
			// spread 0 keeps every value equal (Common never conflicts) and
			// the addresses few; larger spreads widen both.
			addrs := 1 + (int(spread)*37+step)%words
			batch := make([]Write, int(n)%8192+step)
			for i := range batch {
				batch[i] = Write{
					Addr: int64(rng.Intn(addrs+2) - 1), // -1 and addrs may be out of range
					Val:  int64(rng.Intn(1 + int(spread))),
					Key:  Key{Flow: rng.Intn(6), Thread: rng.Intn(1 + int(n)/4), Seq: rng.Intn(2)},
				}
			}
			switch arrival % numArrivals {
			case arriveSorted:
				slices.SortStableFunc(batch, compareWrites)
			case arriveReversed:
				slices.SortStableFunc(batch, compareWrites)
				slices.Reverse(batch)
			case arriveInterleaved:
				slices.SortStableFunc(batch, func(a, b Write) int { return a.Key.Compare(b.Key) })
			}
			want := resolveSorted(policy, words, batch)
			// The oracle starts from zeroed memory; carry the words no write
			// of this step touched, and the counters, over from the step before.
			if step > 0 {
				touched := make(map[int64]bool)
				for _, w := range batch {
					touched[w.Addr] = true
				}
				for a, v := range total.words {
					if !touched[int64(a)] {
						want.words[a] = v
					}
				}
				want.done += total.done
				want.issued += total.issued
			}
			if step == 0 {
				s.BufferWrites(batch)
			} else {
				for _, w := range batch {
					s.BufferWrite(w.Addr, w.Val, w.Key)
				}
			}
			want.check(t, s, s.ApplyStep())
			total = want
		}
	})
}

// TestApplyStepParallelSteadyStateAllocs holds the parallel branch to its
// retained arena: no per-step result slices, tables or counters.
func TestApplyStepParallelSteadyStateAllocs(t *testing.T) {
	s := mustShared(t, 1<<14, 4, Arbitrary)
	s.SetParallel(true)
	ws := conflictWrites(1 << 13)
	step := func() {
		s.BufferWrites(ws)
		s.ApplyStep()
	}
	step()
	if got := testing.AllocsPerRun(50, step); got >= 1 {
		t.Fatalf("parallel ApplyStep allocates %.1f objects per step", got)
	}
}

// conflictWrites is tcfbench's scatter-crcw probe shape (bench/probes.go):
// n writes by n threads onto n/8 scattered addresses, about eight writers
// each, in thread order.
func conflictWrites(n int) []Write {
	ws := make([]Write, n)
	for t := range ws {
		ws[t] = Write{Addr: int64(16384 + ((t*40503)^(t>>4))&(n/8-1)), Val: int64(3 * t), Key: Key{Thread: t}}
	}
	return ws
}

// BenchmarkApplyStep times BufferWrites+ApplyStep on 2^17 writes of the
// probe shapes of bench/probes.go — disjoint (saxpy-loop's dense store,
// arriving sorted), conflict (scatter-crcw) — and on the disjoint set
// arriving backwards, which neither fast path serves.
func BenchmarkApplyStep(b *testing.B) {
	const T = 1 << 17
	disjoint := make([]Write, T)
	for t := range disjoint {
		disjoint[t] = Write{Addr: int64(16384 + t), Val: int64(t), Key: Key{Thread: t}}
	}
	reversed := slices.Clone(disjoint)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name string
		ws   []Write
	}{{"disjoint", disjoint}, {"conflict", conflictWrites(T)}, {"reversed", reversed}} {
		b.Run(c.name, func(b *testing.B) {
			s := mustShared(b, 16384+T, 4, Arbitrary)
			step := func() {
				s.BufferWrites(c.ws)
				s.ApplyStep()
			}
			step() // grow the shards and tables once, outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/T, "ns/ref")
		})
	}
}
