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
// order, and where each instruction's begin: strides 0, 1, 2, -1 and 7 and
// scattered addresses, by up to three flows, the second and later
// instructions starting adjacent to, inside or away from the one before, some
// reaching out of range at either end of memory, some repeating the keys of
// the one before; a quarter of them store values in an affine form.
func instrBatch(rng *rand.Rand, words, n int, spread uint8) (flat []Write, starts []int) {
	base := int64(rng.Intn(words+16) - 8)
	var key Key
	for k, instrs := 0, 1+rng.Intn(5); k < instrs; k++ {
		if k == 0 || rng.Intn(4) > 0 { // else the keys of the one before: the earlier position must win
			key = Key{Flow: rng.Intn(3), Thread: rng.Intn(4), Seq: rng.Intn(2)}
		}
		stride := []int64{0, 1, 1, 2, -1, 7, 99}[rng.Intn(7)]
		lanes := rng.Intn(n + 1)
		starts = append(starts, len(flat))
		form, vbase, vstride := rng.Intn(4) == 0, int64(rng.Intn(1+int(spread))), int64(rng.Intn(3)-1)
		for j := 0; j < lanes; j++ {
			addr := base + int64(j)*stride
			if stride == 99 {
				addr = base + int64(rng.Intn(2*lanes))
			}
			val := int64(rng.Intn(1 + int(spread)))
			if form {
				val = vbase + vstride*int64(j)
			}
			flat = append(flat, Write{Addr: addr, Val: val, Key: Key{Flow: key.Flow, Thread: key.Thread + j, Seq: key.Seq}})
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
// logs (as groups fold theirs in order), each instruction as one run, as a
// run cut in two and appended back together, or store by store. A run is
// copied into both columns (Open) or referred to where it lies (Refer), as
// the engine's bulk store does: its addresses as their form when they are one
// — one address, ascending by one in range or out of it, or another stride,
// negative included — or as a bank plus an offset, its values as their form
// or as a bank, each bank one the test holds until the commit. A third of the
// steps buffer the first instruction through BufferWrite, so that every log
// reaches the memory by appendLog behind it.
func bufferInstrs(rng *rand.Rand, s *Shared, flat []Write, starts []int) {
	logs := make([]*WriteLog, 1+rng.Intn(3))
	for i := range logs {
		logs[i] = new(WriteLog)
	}
	fill := func(l *WriteLog, ws []Write) {
		if len(ws) == 0 {
			return
		}
		is := Issue{Flow: ws[0].Key.Flow, Seq: ws[0].Key.Seq, Thread0: ws[0].Key.Thread, N: len(ws)}
		addrs, vals := make([]int64, len(ws)), make([]int64, len(ws))
		for i, w := range ws {
			addrs[i], vals[i] = w.Addr, w.Val
		}
		if rng.Intn(4) == 0 {
			_, as, vs := l.Open(is)
			copy(as, addrs)
			copy(vs, vals)
			return
		}
		a, v := formOf(addrs), formOf(vals)
		if a.Lanes == nil && rng.Intn(4) == 0 || a.Lanes != nil && rng.Intn(4) > 0 {
			// A bank plus the instruction's offset.
			a = Operand{Lanes: addrs, Base: int64(rng.Intn(2000) - 1000)}
			for i := range addrs {
				addrs[i] -= a.Base
			}
		}
		if v.Lanes == nil && rng.Intn(4) == 0 {
			v = Operand{Lanes: vals}
		}
		l.Refer(is, &a, &v)
	}
	k := 0
	if rng.Intn(3) == 0 && len(starts) > 1 {
		for _, w := range flat[:starts[1]] {
			s.BufferWrite(w.Addr, w.Val, w.Key)
		}
		k = 1
	}
	for ; k < len(starts); k++ {
		from, to := starts[k], len(flat)
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
			l.appendLog(&chunk)
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

// applyStepVia is ApplyStep with every run sent through the table, indexed
// or hashed as r says: what the direct route and the other tabled one must
// agree with.
func applyStepVia(s *Shared, r route) []Conflict {
	if !s.classify() {
		return nil
	}
	for i := range s.spans {
		s.spans[i].direct = false
	}
	return s.commit(r)
}

// FuzzApplyStepVsSorted holds ApplyStep to the sort-and-scan oracle over
// policy × module count, on single writes in four arrival
// orders (conflicting, out-of-range and equal-keyed) through BufferWrite(s)
// and on instruction-shaped traffic through write logs with fuzzed run
// structure, every kind of side among copied runs (bufferInstrs), over two
// steps so the retained scratch is reused; and the route ApplyStep picks to both tabled routes,
// every run indexed and every run hashed, on two more memories fed the same. Few addresses for many writes
// make a compact interval, many for few a sparse one.
func FuzzApplyStepVsSorted(f *testing.F) {
	for arrival := 0; arrival < numArrivals; arrival++ {
		for policy := 0; policy < 3; policy++ {
			f.Add(int64(arrival*3+policy), uint8(policy), uint8(1+arrival*2), uint8(arrival), uint16(300*(1+policy)), uint8(5*policy))
			f.Add(int64(arrival*3+policy), uint8(policy), uint8(1+arrival*2), uint8(numArrivals+arrival), uint16(700*(1+policy)), uint8(3*policy))
		}
	}
	f.Add(int64(77), uint8(0), uint8(4), uint8(arriveShuffled), uint16(6000), uint8(0))
	f.Add(int64(78), uint8(2), uint8(7), uint8(arriveInterleaved), uint16(5000), uint8(1))
	f.Add(int64(79), uint8(1), uint8(4), uint8(numArrivals), uint16(8000), uint8(9))
	f.Add(int64(80), uint8(0), uint8(2), uint8(arriveShuffled), uint16(40), uint8(200))  // sparse
	f.Add(int64(81), uint8(2), uint8(2), uint8(arriveInterleaved), uint16(60), uint8(0)) // Common, one value, sparse
	f.Fuzz(func(t *testing.T, seed int64, policySel, modules, shape uint8, n uint16, spread uint8) {
		const words = 1 << 12
		policy := Policy(policySel % 3)
		rng := rand.New(rand.NewSource(seed))
		s := mustShared(t, words, 1+int(modules%16), policy)
		indexed := mustShared(t, words, 1+int(modules%16), policy)
		hashed := mustShared(t, words, 1+int(modules%16), policy)
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
			for _, m := range []*Shared{s, indexed, hashed} {
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
			want.check(t, indexed, applyStepVia(indexed, routeIndexed))
			want.check(t, hashed, applyStepVia(hashed, routeHashed))
			if cs := s.CommitStats(); cs.DirectWords+cs.TabledWords != want.issued || cs.IndexedWords > cs.TabledWords {
				t.Fatalf("commit routes count %d+%d words (%d indexed), %d were issued", cs.DirectWords, cs.TabledWords, cs.IndexedWords, want.issued)
			}
			if cs := indexed.CommitStats(); cs.IndexedWords != cs.TabledWords {
				t.Fatalf("forced index took %d of %d tabled words", cs.IndexedWords, cs.TabledWords)
			}
			total = want
		}
	})
}

// TestApplyRoutesAgree forces traffic each route would take — unit stride,
// stride 2, two flows on adjacent ranges, a run per page (direct); a scatter
// of eight writers a word, flows overlapping, and either beside a run whose
// bank plus offset lies wholly past the end (indexed); two flows interleaved
// at stride 13, a run's writers of a word far apart (hashed) — through both
// tabled routes as well, under each policy: all must leave the memory,
// conflicts and counters of the sorted oracle, and the unforced commit must
// really have taken its route.
func TestApplyRoutesAgree(t *testing.T) {
	const words = 1 << 14
	shapes := []struct {
		name, route string
		build       func(l *WriteLog)
	}{
		{"unit_stride", "direct", func(l *WriteLog) { strideRun(l, 0, 100, 1, 5000) }},
		{"stride_2", "direct", func(l *WriteLog) { strideRun(l, 0, 100, 2, 5000) }},
		{"adjacent_flows", "direct", func(l *WriteLog) {
			strideRun(l, 1, 3000, 1, 1500)
			strideRun(l, 0, 1500, 1, 1500)
		}},
		{"run_per_page", "direct", func(l *WriteLog) {
			for f := 0; f < 8; f++ {
				strideRun(l, f, int64(f)*PageWords+1000, 1, 48) // each crosses a page boundary
			}
		}},
		{"dense_by_ref", "direct", func(l *WriteLog) {
			denseRun(l, 0, 100, 5000)
			denseRun(l, 1, 5100, 3000)
		}},
		{"dense_overlapping", "indexed", func(l *WriteLog) {
			denseRun(l, 0, 100, 900)
			denseRun(l, 1, 500, 900)
		}},
		{"scatter_8way", "indexed", func(l *WriteLog) {
			_, addrs, vals := l.Open(Issue{N: 8192})
			for i, w := range conflictWrites(8192) {
				addrs[i], vals[i] = w.Addr-8192, w.Val%5
			}
		}},
		{"overlapping_flows", "indexed", func(l *WriteLog) {
			strideRun(l, 2, 600, 1, 900)
			strideRun(l, 0, 100, 1, 900)
			strideRun(l, 1, 400, 2, 300)
		}},
		{"strided_flows", "hashed", func(l *WriteLog) {
			strideRun(l, 0, 10, 13, 1000)
			strideRun(l, 1, 15, 13, 1000)
		}},
		{"far_repeats", "hashed", func(l *WriteLog) {
			_, addrs, vals := l.Open(Issue{Flow: 3, Seq: 1, Thread0: 5, N: 600})
			for i := range addrs {
				addrs[i], vals[i] = int64(i%300)*53-20, int64(i%7) // some below memory
			}
		}},
		{"past_end_form_vals", "indexed", func(l *WriteLog) {
			strideRun(l, 0, 0, 1, 900) // under the run's raw lanes
			strideRun(l, 1, 500, 1, 900)
			pastEnd(l, 2, words, Operand{Base: 7, Stride: 1})
		}},
		{"past_end_bank_vals", "indexed", func(l *WriteLog) {
			bank := make([]int64, 64)
			for j := range bank {
				bank[j] = 9
			}
			strideRun(l, 0, 0, 1, 900) // under the run's raw lanes
			pastEnd(l, 2, words, Operand{Lanes: bank})
			strideRun(l, 1, 500, 1, 900)
		}},
	}
	for _, sh := range shapes {
		for policy := Policy(0); policy < 3; policy++ {
			var l WriteLog
			sh.build(&l)
			oracle := resolveSorted(policy, words, logWrites(&l))
			auto := mustShared(t, words, 4, policy)
			indexed, hashed := mustShared(t, words, 4, policy), mustShared(t, words, 4, policy)
			for _, s := range []*Shared{auto, indexed, hashed} {
				s.BufferLog(&l)
			}
			conflicts := auto.ApplyStep()
			oracle.check(t, auto, conflicts)
			if c := applyStepVia(indexed, routeIndexed); !slices.Equal(c, conflicts) {
				t.Fatalf("%s: conflicts %v indexed, %v", sh.name, c, conflicts)
			}
			if c := applyStepVia(hashed, routeHashed); !slices.Equal(c, conflicts) {
				t.Fatalf("%s: conflicts %v hashed, %v", sh.name, c, conflicts)
			}
			cs := auto.CommitStats()
			var took string
			switch {
			case cs.TabledWords == 0:
				took = "direct"
			case cs.IndexedWords == cs.TabledWords && cs.DirectWords == 0:
				took = "indexed"
			case cs.IndexedWords == 0 && cs.DirectWords == 0:
				took = "hashed"
			}
			if cs.SortedFallbacks > 0 {
				took = "sorted"
			}
			want := sh.route
			if len(conflicts) > 0 {
				want = "sorted"
			}
			if took != want {
				t.Fatalf("%s: %+v, want every word %s", sh.name, cs, want)
			}
			for _, s := range []*Shared{indexed, hashed} {
				if c := s.CommitStats(); c.DirectWords != 0 || c.TabledWords != cs.DirectWords+cs.TabledWords || c.DenseWords != cs.DenseWords || c.RefWords != cs.RefWords {
					t.Fatalf("%s: %+v, want every in-range word tabled", sh.name, c)
				}
			}
			mem := auto.Snapshot(0, words)
			_, dd, di := auto.Stats()
			for r, s := range map[string]*Shared{"indexed": indexed, "hashed": hashed} {
				if !slices.Equal(s.Snapshot(0, words), mem) {
					t.Fatalf("%s: the %s route left different memory", sh.name, r)
				}
				if _, d, i := s.Stats(); d != dd || i != di {
					t.Fatalf("%s: write counters %d/%d %s, %d/%d %s", sh.name, d, i, r, dd, di, took)
				}
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
	_, addrs, vals := l.Open(Issue{Flow: flow, N: n})
	for j := range addrs {
		addrs[j], vals[j] = base+int64(j)*stride, int64(j+1)
	}
}

// denseRun buffers one instruction of flow as the machine's bulk store issues
// it: n stores from base on, their addresses a form of stride 1, lane j
// storing j+1 from a bank held by reference.
func denseRun(l *WriteLog, flow int, base int64, n int) {
	bank := make([]int64, n)
	for j := range bank {
		bank[j] = int64(j + 1)
	}
	l.Refer(Issue{Flow: flow, N: n}, &Operand{Base: base, Stride: 1}, &Operand{Lanes: bank})
}

// pastEnd buffers one instruction of flow whose addresses are a bank of
// in-range words plus an offset, words, that takes every one of them out of
// range, and whose values are vals: a run with no word to store.
func pastEnd(l *WriteLog, flow int, words int64, vals Operand) {
	bank := make([]int64, 64)
	for j := range bank {
		bank[j] = int64(j * 3 % 64)
	}
	l.Refer(Issue{Flow: flow, N: len(bank)}, &Operand{Lanes: bank, Base: words}, &vals)
}

// logWrites reads l's runs back as single writes, in buffering order: what
// the oracle resolves.
func logWrites(l *WriteLog) []Write {
	var ws []Write
	rd := l.Cursor()
	for i := range l.Runs {
		r := &l.Runs[i]
		var a, v Operand
		rd.Addr(r, &a)
		rd.Val(r, &v)
		for j := range r.N {
			ws = append(ws, Write{Addr: a.At(j), Val: v.At(j), Key: r.Key(j)})
		}
	}
	return ws
}

// formOf returns the lanes w as an Operand: the form they lie in, when they
// lie in one, and a bank of their own otherwise.
func formOf(w []int64) Operand {
	o := Operand{Base: w[0]}
	if len(w) > 1 {
		o.Stride = w[1] - w[0]
	}
	for i, x := range w {
		if x != o.Base+o.Stride*int64(i) {
			return Operand{Lanes: slices.Clone(w)}
		}
	}
	return o
}

// TestApplyStepSteadyStateAllocs holds the tabled route to its retained
// table: a scattered step allocates no per-step result slices, tables or
// counters.
func TestApplyStepSteadyStateAllocs(t *testing.T) {
	s := mustShared(t, 1<<14, 4, Arbitrary)
	ws := conflictWrites(1 << 13)
	step := func() {
		s.BufferWrites(ws)
		s.ApplyStep()
	}
	step()
	if got := testing.AllocsPerRun(50, step); got >= 1 {
		t.Fatalf("ApplyStep allocates %.1f objects per step", got)
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

// TestRunHeaderSize pins a run header: its issue and where each of its two
// sides lies. What a side held by reference needs — its form and its lanes —
// lies in the log, not in every header (a copied run carries none of it).
func TestRunHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(Run{}); n > 48 {
		t.Fatalf("mem.Run is %d bytes, want at most 48", n)
	}
}

// BenchmarkApplyStep times a step's stores from the write log to memory —
// the column fills, BufferLog, ApplyStep — on 2^17 references (2^13 for the
// thin shape) shaped as the engine issues them: one run of consecutive
// addresses (saxpy-loop) copied into both columns, as a dense form with its
// values written into a bank, and as a dense form with its values in a bank
// (by_ref, nothing filled: the engine's bulk store of a[tid] = x), a bank plus an
// offset with its values in a bank (bank_offset: a[b[tid]] = x), a stride-2
// run, two flows on adjacent and on overlapping ranges, tcfbench's
// scatter-crcw, and 2048 flows of thickness 4 storing side by side. B/ref is
// what a step buffers per store: its column words and its share of a header.
func BenchmarkApplyStep(b *testing.B) {
	const T = 1 << 17
	scatter := conflictWrites(T)
	bank, col := make([]int64, T), make([]int64, T)
	for j := range bank {
		bank[j] = int64(j + 1)
	}
	for _, c := range []struct {
		name string
		fill func(l *WriteLog)
	}{
		{"unit_stride", func(l *WriteLog) { strideRun(l, 0, 16384, 1, T) }},
		{"dense", func(l *WriteLog) {
			for j := range col {
				col[j] = int64(j + 1)
			}
			l.Refer(Issue{N: T}, &Operand{Base: 16384, Stride: 1}, &Operand{Lanes: col})
		}},
		{"by_ref", func(l *WriteLog) { l.Refer(Issue{N: T}, &Operand{Base: 16384, Stride: 1}, &Operand{Lanes: bank}) }},
		{"bank_offset", func(l *WriteLog) { l.Refer(Issue{N: T}, &Operand{Lanes: bank, Base: 16383}, &Operand{Lanes: bank}) }},
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
			_, addrs, vals := l.Open(Issue{N: T})
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
			b.ReportMetric((8*float64(len(l.Addrs)+len(l.Vals))+float64(len(l.Runs))*float64(unsafe.Sizeof(Run{})))/refs, "B/ref")
		})
	}
}
