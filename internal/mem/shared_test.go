package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSharedBasics(t *testing.T) {
	s := mustShared(t, 64, 4, Arbitrary)
	if s.Size() != 64 || s.Modules() != 4 {
		t.Fatalf("bad dimensions: %d words %d modules", s.Size(), s.Modules())
	}
	s.Poke(5, 42)
	if got := s.Read(5); got != 42 {
		t.Fatalf("Read(5) = %d, want 42", got)
	}
	if got := s.Read(1000); got != 0 {
		t.Fatalf("out-of-range read = %d, want 0", got)
	}
	if got := s.Read(-1); got != 0 {
		t.Fatalf("negative read = %d, want 0", got)
	}
}

func TestSharedModuleInterleaving(t *testing.T) {
	s := mustShared(t, 64, 4, Arbitrary)
	for addr := int64(0); addr < 64; addr++ {
		if got, want := s.ModuleOf(addr), int(addr%4); got != want {
			t.Fatalf("ModuleOf(%d) = %d, want %d", addr, got, want)
		}
	}
}

func TestStepSemanticsReadsSeePreStepState(t *testing.T) {
	s := mustShared(t, 16, 2, Arbitrary)
	s.Poke(3, 7)
	s.BufferWrite(3, 99, Key{Flow: 0, Thread: 0})
	if got := s.Read(3); got != 7 {
		t.Fatalf("mid-step read = %d, want pre-step 7", got)
	}
	s.ApplyStep()
	if got := s.Read(3); got != 99 {
		t.Fatalf("post-step read = %d, want 99", got)
	}
}

func TestArbitraryLowestKeyWins(t *testing.T) {
	s := mustShared(t, 16, 2, Arbitrary)
	s.BufferWrite(4, 30, Key{Flow: 2, Thread: 0})
	s.BufferWrite(4, 10, Key{Flow: 0, Thread: 5})
	s.BufferWrite(4, 20, Key{Flow: 0, Thread: 9})
	if c := s.ApplyStep(); len(c) != 0 {
		t.Fatalf("unexpected conflicts under Arbitrary: %v", c)
	}
	if got := s.Peek(4); got != 10 {
		t.Fatalf("winner = %d, want 10 (lowest key)", got)
	}
}

func TestPrioritySeqTieBreak(t *testing.T) {
	s := mustShared(t, 16, 2, Priority)
	s.BufferWrite(4, 2, Key{Flow: 1, Thread: 1, Seq: 1})
	s.BufferWrite(4, 1, Key{Flow: 1, Thread: 1, Seq: 0})
	s.ApplyStep()
	if got := s.Peek(4); got != 1 {
		t.Fatalf("winner = %d, want 1 (seq 0)", got)
	}
}

func TestCommonConflictDetection(t *testing.T) {
	s := mustShared(t, 16, 2, Common)
	s.BufferWrite(4, 5, Key{Flow: 0})
	s.BufferWrite(4, 5, Key{Flow: 1})
	if c := s.ApplyStep(); len(c) != 0 {
		t.Fatalf("same-value writes must not conflict: %v", c)
	}
	s.BufferWrite(4, 5, Key{Flow: 0})
	s.BufferWrite(4, 6, Key{Flow: 1})
	c := s.ApplyStep()
	if len(c) != 1 || c[0].Addr != 4 {
		t.Fatalf("expected one conflict at 4, got %v", c)
	}
	if c[0].String() == "" {
		t.Fatal("conflict should render")
	}
}

func TestOutOfRangeWritesDropped(t *testing.T) {
	s := mustShared(t, 8, 2, Arbitrary)
	s.BufferWrite(100, 1, Key{})
	s.BufferWrite(-3, 1, Key{})
	if s.PendingWrites() != 0 {
		t.Fatalf("out-of-range writes should be dropped, have %d pending", s.PendingWrites())
	}
	s.ApplyStep()
}

func TestLoadSegment(t *testing.T) {
	s := mustShared(t, 16, 2, Arbitrary)
	if err := s.Load(4, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := s.Snapshot(4, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("snapshot = %v", got)
	}
	if err := s.Load(15, []int64{1, 2}); err == nil {
		t.Fatal("expected out-of-range load error")
	}
	if err := s.Load(-1, []int64{1}); err == nil {
		t.Fatal("expected negative-address load error")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := mustShared(t, 16, 2, Arbitrary)
	s.Read(0)
	s.Read(1)
	s.BufferWrite(0, 1, Key{})
	s.BufferWrite(0, 2, Key{Flow: 1})
	s.ApplyStep()
	reads, committed, issued := s.Stats()
	if reads != 2 || committed != 1 || issued != 2 {
		t.Fatalf("stats = %d %d %d, want 2 1 2", reads, committed, issued)
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewShared(0, 1, Arbitrary); !errors.Is(err, ErrBadSize) {
		t.Errorf("NewShared(0,1): err = %v, want ErrBadSize", err)
	}
	if _, err := NewShared(8, 0, Arbitrary); !errors.Is(err, ErrBadSize) {
		t.Errorf("NewShared(8,0): err = %v, want ErrBadSize", err)
	}
	if _, err := NewLocal(0, 0); !errors.Is(err, ErrBadSize) {
		t.Errorf("NewLocal(0,0): err = %v, want ErrBadSize", err)
	}
}

// mustShared is the test-side constructor for known-good shapes.
func mustShared(tb testing.TB, words, modules int, policy Policy) *Shared {
	tb.Helper()
	s, err := NewShared(words, modules, policy)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// mustLocal is the test-side constructor for known-good shapes.
func mustLocal(tb testing.TB, group, words int) *Local {
	tb.Helper()
	l, err := NewLocal(group, words)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

func TestPolicyString(t *testing.T) {
	if Arbitrary.String() != "arbitrary" || Priority.String() != "priority" || Common.String() != "common" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

// Property: the winner of a write set is the value carried by the minimal
// key, for every address, independent of insertion order — and among writes
// of equal minimal key, the one buffered first.
func TestResolutionMatchesMinKey(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := mustShared(t, 8, 2, Arbitrary)
		count := int(n%40) + 1
		ws := make([]Write, count)
		for i := range ws {
			ws[i] = Write{
				Addr: int64(rng.Intn(8)),
				Val:  int64(rng.Intn(1000)),
				Key:  Key{Flow: rng.Intn(4), Thread: rng.Intn(4), Seq: rng.Intn(4)},
			}
			s.BufferWrite(ws[i].Addr, ws[i].Val, ws[i].Key)
		}
		s.ApplyStep()
		for addr := int64(0); addr < 8; addr++ {
			var best *Write
			for i := range ws {
				if x := &ws[i]; x.Addr == addr && (best == nil || x.Key.Less(best.Key)) {
					best = x // strictly lower only: the earliest of equal keys stays
				}
			}
			if best != nil && s.Peek(addr) != best.Val {
				return false
			}
		}
		return true
	}
	// A fixed source: the run of a lane losing a word its own lower lane
	// claimed shows in most draws, not all, and mutation record 25 must
	// die every time.
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: key ordering is a strict total order on distinct keys.
func TestKeyOrdering(t *testing.T) {
	prop := func(f1, t1, s1, f2, t2, s2 uint8) bool {
		a := Key{Flow: int(f1 % 8), Thread: int(t1 % 8), Seq: int(s1 % 8)}
		b := Key{Flow: int(f2 % 8), Thread: int(t2 % 8), Seq: int(s2 % 8)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalMemory(t *testing.T) {
	l := mustLocal(t, 2, 32)
	if l.Group() != 2 || l.Size() != 32 {
		t.Fatal("bad local dimensions")
	}
	l.Write(5, 11)
	if got := l.Read(5); got != 11 {
		t.Fatalf("local read = %d, want 11", got)
	}
	l.Write(100, 1) // dropped
	if got := l.Read(100); got != 0 {
		t.Fatalf("out-of-range local read = %d", got)
	}
	if err := l.Load(30, []int64{1, 2, 3}); err == nil {
		t.Fatal("expected out-of-range local load error")
	}
	if err := l.Load(0, []int64{9}); err != nil {
		t.Fatal(err)
	}
	if l.Peek(0) != 9 {
		t.Fatal("local load failed")
	}
	r, w := l.Stats()
	if r != 2 || w != 2 {
		t.Fatalf("local stats = %d %d", r, w)
	}
}

// TestMaxOverRunMatchesPerAddress: the shortcut for a run of consecutive
// addresses — look at one address per module — is the per-address maximum,
// for module counts that are and are not powers of two, for runs shorter and
// longer than the module count, and with the heaviest module at every index.
func TestMaxOverRunMatchesPerAddress(t *testing.T) {
	for _, modules := range []int{1, 4, 6, 7} {
		s := mustShared(t, 256, modules, Arbitrary)
		weight := make([]int, modules)
		for rot := 0; rot < modules; rot++ {
			for m := range weight {
				weight[m] = ((m+rot)*5 + 3) % 11
			}
			for addr := int64(0); addr < 20; addr++ {
				for n := 1; n <= 2*modules+1; n++ {
					want := 2
					for a := addr; a < addr+int64(n); a++ {
						want = max(want, weight[s.ModuleOf(a)])
					}
					if got := s.MaxOverRun(weight, 2, addr, n); got != want {
						t.Fatalf("%d modules, rotation %d, run of %d from %d: %d, want %d", modules, rot, n, addr, got, want)
					}
				}
			}
		}
	}
}

// TestSharedPagedBacking exercises the lazy page table: reads of untouched
// pages return zero without materializing anything, and writes land on the
// right page.
func TestSharedPagedBacking(t *testing.T) {
	s := mustShared(t, 3*PageWords+17, 4, Arbitrary)
	for _, p := range s.pages {
		if p != nil {
			t.Fatal("page materialized before any write")
		}
	}
	if got := s.Peek(2 * PageWords); got != 0 {
		t.Fatalf("untouched read = %d, want 0", got)
	}
	s.Poke(2*PageWords+5, 42)
	if s.pages[0] != nil || s.pages[1] != nil || s.pages[3] != nil {
		t.Fatal("Poke materialized an unrelated page")
	}
	if got := s.Peek(2*PageWords + 5); got != 42 {
		t.Fatalf("paged read = %d, want 42", got)
	}
	// The tail page is partial in the address space but full-size as a page;
	// the last valid word must be addressable.
	last := int64(s.Size() - 1)
	s.Poke(last, 7)
	if got := s.Peek(last); got != 7 {
		t.Fatalf("last-word read = %d, want 7", got)
	}
}

// TestSnapshotPagedAndClamped checks the direct-copy Snapshot across page
// boundaries, unmaterialized holes and the end of the address space.
func TestSnapshotPagedAndClamped(t *testing.T) {
	s := mustShared(t, 2*PageWords+8, 4, Arbitrary)
	s.Poke(PageWords-1, 11)
	s.Poke(PageWords, 22) // next page
	s.Poke(2*PageWords+7, 33)
	got := s.Snapshot(PageWords-2, 4)
	want := []int64{0, 11, 22, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot across pages = %v, want %v", got, want)
		}
	}
	// Past-the-end words read as zero, and the whole-range snapshot sees
	// unmaterialized middle words as zero.
	got = s.Snapshot(2*PageWords+6, 4)
	want = []int64{0, 33, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clamped Snapshot = %v, want %v", got, want)
		}
	}
	if out := s.Snapshot(-3, 2); out[0] != 0 || out[1] != 0 {
		t.Fatalf("negative-range Snapshot = %v, want zeros", out)
	}
}

// TestApplyStepTiesMatchSorted cross-checks ApplyStep against the
// sort-and-scan reference on random write batches, for every policy. The
// batches are full of writes with equal (addr, key) and different values, so
// the tie rule — earliest buffered wins — is what keeps the two in agreement.
func TestApplyStepTiesMatchSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, policy := range []Policy{Arbitrary, Priority, Common} {
		for round := 0; round < 20; round++ {
			n := 1 + rng.Intn(6000)
			batch := make([]Write, n)
			for i := range batch {
				batch[i] = Write{
					Addr: int64(rng.Intn(512)),
					Val:  int64(rng.Intn(4)), // collisions likely
					Key:  Key{Flow: rng.Intn(4), Thread: rng.Intn(8), Seq: rng.Intn(2)},
				}
			}
			want := resolveSorted(policy, 512, batch)
			s := mustShared(t, 512, 5, policy)
			for _, b := range batch {
				s.BufferWrite(b.Addr, b.Val, b.Key)
			}
			want.check(t, s, s.ApplyStep())
		}
	}
}
