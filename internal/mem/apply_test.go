package mem

import (
	"io"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"tcfpram/internal/checkpoint"
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

// Arrival orders FuzzApplyStepVsSorted buffers a batch of single writes in.
const (
	arriveSorted      = iota // by (addr, key)
	arriveReversed           // the same, backwards
	arriveInterleaved        // flow by flow, each flow's lanes ascending: how groups fold
	arriveShuffled
	numArrivals
)

// scatterBatch is n single writes onto addrs addresses (and one below and one
// above them, which may be out of range) in the given arrival order; spread 0
// keeps every value equal, so that Common never conflicts.
func scatterBatch(rng *rand.Rand, n, addrs int, spread, arrival uint8) []Write {
	batch := make([]Write, n)
	for i := range batch {
		batch[i] = Write{
			Addr: int64(rng.Intn(addrs+2) - 1),
			Val:  int64(rng.Intn(1 + int(spread))),
			Key:  Key{Flow: rng.Intn(6), Thread: rng.Intn(1 + n/4), Seq: rng.Intn(2)},
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
	return batch
}

// instrBatch is the stores of a few thick instructions, flattened in issue
// order, and where each instruction's begin: strides 0, 1, 2 and -1 and
// scattered addresses, by up to three flows, the second and later
// instructions starting adjacent to, inside or away from the one before, some
// reaching out of range at either end of memory, some repeating the keys of
// the one before.
func instrBatch(rng *rand.Rand, words, n int, spread uint8) (flat []Write, starts []int) {
	base := int64(rng.Intn(words+16) - 8)
	var key Key
	for k, instrs := 0, 1+rng.Intn(5); k < instrs; k++ {
		if k == 0 || rng.Intn(4) > 0 { // else the keys of the one before: the earlier position must win
			key = Key{Flow: rng.Intn(3), Thread: rng.Intn(4), Seq: rng.Intn(2)}
		}
		stride := []int64{0, 1, 1, 2, -1, 99}[rng.Intn(6)]
		lanes := rng.Intn(n + 1)
		starts = append(starts, len(flat))
		for j := 0; j < lanes; j++ {
			addr := base + int64(j)*stride
			if stride == 99 {
				addr = base + int64(rng.Intn(2*lanes))
			}
			flat = append(flat, Write{Addr: addr, Val: int64(rng.Intn(1 + int(spread))), Key: Key{Flow: key.Flow, Thread: key.Thread + j, Seq: key.Seq}})
		}
		switch rng.Intn(4) {
		case 0: // adjacent to what a unit stride just wrote
			base += int64(lanes)
		case 1: // inside it
			base += int64(lanes / 2)
		case 2: // elsewhere
			base = int64(rng.Intn(words+16) - 8)
		}
	}
	return flat, starts
}

// bufferInstrs buffers flat, instruction by instruction, into one to three
// logs (as groups fold theirs in order), each instruction as one run, as lane
// chunks merged back, or store by store.
func bufferInstrs(rng *rand.Rand, s *Shared, flat []Write, starts []int) {
	logs := make([]*WriteLog, 1+rng.Intn(3))
	for i := range logs {
		logs[i] = new(WriteLog)
	}
	fill := func(l *WriteLog, ws []Write) {
		if len(ws) == 0 {
			return
		}
		addrs, vals := l.Open(ws[0].Key.Flow, ws[0].Key.Seq, ws[0].Key.Thread, len(ws))
		for i, w := range ws {
			addrs[i], vals[i] = w.Addr, w.Val
		}
	}
	for k, from := range starts {
		to := len(flat)
		if k+1 < len(starts) {
			to = starts[k+1]
		}
		ws, l := flat[from:to], logs[k*len(logs)/len(starts)]
		switch rng.Intn(3) {
		case 0:
			fill(l, ws)
		case 1:
			cut := rng.Intn(len(ws) + 1)
			fill(l, ws[:cut])
			var chunk WriteLog
			fill(&chunk, ws[cut:])
			l.AppendLog(&chunk)
		case 2:
			for _, w := range ws {
				l.Append(w.Addr, w.Val, w.Key)
			}
		}
	}
	for _, l := range logs {
		s.BufferLog(l)
	}
}

// applyStepTabled is ApplyStep with every run sent through the table: what
// the direct route must agree with.
func applyStepTabled(s *Shared) []Conflict {
	if !s.classify() {
		return nil
	}
	for i := range s.spans {
		s.spans[i].direct = false
	}
	return s.commit()
}

// FuzzApplyStepVsSorted holds ApplyStep to the sort-and-scan oracle over
// policy × module count × serial/parallel, on single writes in four arrival
// orders (conflicting, out-of-range and equal-keyed) through BufferWrite(s)
// and on instruction-shaped traffic through write logs with fuzzed run
// structure, over two steps so the retained scratch is reused; and the direct
// route to the tabled one on a second memory fed the same.
func FuzzApplyStepVsSorted(f *testing.F) {
	for arrival := 0; arrival < numArrivals; arrival++ {
		for policy := 0; policy < 3; policy++ {
			f.Add(int64(arrival*3+policy), uint8(policy), uint8(1+arrival*2), arrival%2 == 0, uint8(arrival), uint16(300*(1+policy)), uint8(5*policy))
			f.Add(int64(arrival*3+policy), uint8(policy), uint8(1+arrival*2), arrival%2 == 1, uint8(numArrivals+arrival), uint16(700*(1+policy)), uint8(3*policy))
		}
	}
	f.Add(int64(77), uint8(0), uint8(4), true, uint8(arriveShuffled), uint16(6000), uint8(0))
	f.Add(int64(78), uint8(2), uint8(7), true, uint8(arriveInterleaved), uint16(5000), uint8(1))
	f.Add(int64(79), uint8(1), uint8(4), true, uint8(numArrivals), uint16(8000), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, policySel, modules uint8, par bool, shape uint8, n uint16, spread uint8) {
		const words = 1 << 12
		policy := Policy(policySel % 3)
		rng := rand.New(rand.NewSource(seed))
		s := mustShared(t, words, 1+int(modules%16), policy)
		tabled := mustShared(t, words, 1+int(modules%16), policy)
		s.SetParallel(par)
		tabled.SetParallel(par)
		var total sortedStep
		for step := 0; step < 2; step++ {
			var batch []Write
			var starts []int
			if shape >= numArrivals {
				batch, starts = instrBatch(rng, words, int(n)%8192+step, spread)
			} else {
				// spread 0 keeps the addresses few; larger spreads widen them.
				batch = scatterBatch(rng, int(n)%8192+step, 1+(int(spread)*37+step)%words, spread, shape)
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
			for _, m := range []*Shared{s, tabled} {
				switch {
				case starts != nil:
					bufferInstrs(rand.New(rand.NewSource(seed+int64(step))), m, batch, starts)
				case step == 0:
					m.BufferWrites(batch)
				default:
					for _, w := range batch {
						m.BufferWrite(w.Addr, w.Val, w.Key)
					}
				}
			}
			want.check(t, s, s.ApplyStep())
			want.check(t, tabled, applyStepTabled(tabled))
			if cs := s.CommitStats(); cs.DirectWords+cs.TabledWords != want.issued {
				t.Fatalf("commit routes count %d+%d words, %d were issued", cs.DirectWords, cs.TabledWords, want.issued)
			}
			total = want
		}
	})
}

// TestApplyRoutesAgree forces traffic the commit stores directly — unit
// stride, stride 2, two flows on adjacent ranges, a run per page — through the
// table as well: both routes must leave the same memory and counters, and the
// unforced one must really have gone direct.
func TestApplyRoutesAgree(t *testing.T) {
	const words = 1 << 14
	shapes := map[string]func(l *WriteLog){
		"unit_stride": func(l *WriteLog) { strideRun(l, 0, 100, 1, 5000) },
		"stride_2":    func(l *WriteLog) { strideRun(l, 0, 100, 2, 5000) },
		"adjacent_flows": func(l *WriteLog) {
			strideRun(l, 1, 3000, 1, 1500)
			strideRun(l, 0, 1500, 1, 1500)
		},
		"run_per_page": func(l *WriteLog) {
			for f := 0; f < 8; f++ {
				strideRun(l, f, int64(f)*PageWords+1000, 1, 48) // each crosses a page boundary
			}
		},
	}
	for name, build := range shapes {
		for _, par := range []bool{false, true} {
			direct, tabled := mustShared(t, words, 4, Common), mustShared(t, words, 4, Common)
			var l WriteLog
			build(&l)
			for _, s := range []*Shared{direct, tabled} {
				s.SetParallel(par)
				s.BufferLog(&l)
			}
			if c := direct.ApplyStep(); c != nil {
				t.Fatalf("%s: direct route reports conflicts %v", name, c)
			}
			if c := applyStepTabled(tabled); c != nil {
				t.Fatalf("%s: tabled route reports conflicts %v", name, c)
			}
			if cs := direct.CommitStats(); cs.DirectWords != int64(l.Len()) || cs.TabledWords != 0 {
				t.Fatalf("%s: %+v, want all %d words direct", name, cs, l.Len())
			}
			if cs := tabled.CommitStats(); cs.TabledWords != int64(l.Len()) || cs.DirectWords != 0 {
				t.Fatalf("%s: %+v, want all %d words tabled", name, cs, l.Len())
			}
			if !slices.Equal(direct.Snapshot(0, words), tabled.Snapshot(0, words)) {
				t.Fatalf("%s: the routes left different memory", name)
			}
			_, dd, di := direct.Stats()
			_, td, ti := tabled.Stats()
			if dd != td || di != ti || dd != int64(l.Len()) {
				t.Fatalf("%s: write counters %d/%d direct, %d/%d tabled, want %d", name, dd, di, td, ti, l.Len())
			}
		}
	}
}

// TestSnapshotRefusesPendingLog: a log retained for a step that has not
// committed is not state to serialize, however it was buffered.
func TestSnapshotRefusesPendingLog(t *testing.T) {
	s := mustShared(t, 1<<12, 4, Arbitrary)
	var l WriteLog
	strideRun(&l, 0, 100, 1, 8)
	s.BufferLog(&l)
	if n := s.PendingWrites(); n != 8 {
		t.Fatalf("PendingWrites() = %d with a log of 8 retained", n)
	}
	if err := s.EncodeTo(checkpoint.NewEncoder(io.Discard, "TEST", 1)); err == nil {
		t.Fatal("snapshot with a retained log accepted")
	}
	s.DiscardStep()
	if err := s.EncodeTo(checkpoint.NewEncoder(io.Discard, "TEST", 1)); err != nil {
		t.Fatalf("snapshot after DiscardStep: %v", err)
	}
	if got := s.Peek(100); got != 0 {
		t.Fatalf("a discarded store reached memory: %d", got)
	}
}

// strideRun buffers one instruction of flow: n stores from base on, stride
// apart, lane j storing j+1.
func strideRun(l *WriteLog, flow int, base, stride int64, n int) {
	addrs, vals := l.Open(flow, 0, 0, n)
	for j := range addrs {
		addrs[j], vals[j] = base+int64(j)*stride, int64(j+1)
	}
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

// BenchmarkApplyStep times a step's stores from the write log to memory —
// the column fills, BufferLog, ApplyStep — on 2^17 references (2^13 for the
// thin shape) shaped as the engine issues them: one dense run (saxpy-loop), a
// stride-2 run, two flows on adjacent and on overlapping ranges, tcfbench's
// scatter-crcw, and 2048 flows of thickness 4 storing side by side. B/ref is
// what a step buffers per store: two column words and its share of a header.
func BenchmarkApplyStep(b *testing.B) {
	const T = 1 << 17
	scatter := conflictWrites(T)
	for _, c := range []struct {
		name string
		fill func(l *WriteLog)
	}{
		{"unit_stride", func(l *WriteLog) { strideRun(l, 0, 16384, 1, T) }},
		{"stride_2", func(l *WriteLog) { strideRun(l, 0, 16384, 2, T) }},
		{"two_runs_disjoint", func(l *WriteLog) {
			strideRun(l, 0, 16384, 1, T/2)
			strideRun(l, 1, 16384+T/2, 1, T/2)
		}},
		{"two_runs_overlap", func(l *WriteLog) {
			strideRun(l, 0, 16384, 1, T/2)
			strideRun(l, 1, 16384+T/4, 1, T/2)
		}},
		{"scatter_8way", func(l *WriteLog) {
			addrs, vals := l.Open(0, 0, 0, T)
			for i, w := range scatter {
				addrs[i], vals[i] = w.Addr, w.Val
			}
		}},
		{"thin_2048_runs_of_4", func(l *WriteLog) {
			for f := 0; f < 2048; f++ {
				strideRun(l, f, 16384+int64((f*1021)&2047)*4, 1, 4) // flows not in address order
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := mustShared(b, 16384+2*T, 4, Arbitrary)
			var l WriteLog
			step := func() {
				l.Reset()
				c.fill(&l)
				s.BufferLog(&l)
				s.ApplyStep()
			}
			step() // grow the log and the commit's scratch once, outside the measurement
			refs := float64(l.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/refs, "ns/ref")
			b.ReportMetric((16*refs+float64(len(l.Runs))*float64(unsafe.Sizeof(Run{})))/refs, "B/ref")
		})
	}
}
