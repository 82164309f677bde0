// Package gen builds the benchmark's inputs: the pinned 16-program corpus,
// a seeded generator of well-typed tcf-e programs, and the engine kernels.
// Every program carries the outputs and memory a correct run must produce,
// computed by a Go reference written against LANGUAGE.md — never by the
// compiler or machine under test. The same seed yields byte-identical
// programs, so results of two runs are comparable and the differential
// harness of ROADMAP item 4 can import the generator as it is.
package gen

import (
	"fmt"
	"math/rand"
)

// MaxPeekWords is the longest memory range a program asks to have checked;
// it equals the server's cap on one peek range, so every program can be
// verified through POST /run as well as through the facade.
const MaxPeekWords = 4096

// Range is a run of shared-memory words.
type Range struct {
	Addr int64
	N    int
}

// Program is one self-contained tcf-e program with its reference results.
// It needs no preloaded memory: seeded data is computed by the program
// itself, so the server and the facade can both run it.
type Program struct {
	Name   string
	Source string
	// SharedWords sizes the machine's shared memory (0 = the default 64Ki).
	SharedWords int
	// Discipline is the vet-gate memory model the program is written for
	// ("" = the server's CREW default; "crcw" where concurrent writes are
	// the point of the program).
	Discipline string
	// WantOutputs are the printed values in output order.
	WantOutputs []int64
	// PerThread marks a program without thickness statements, which the
	// thread-based variants run once per thread: its outputs may then
	// repeat, one copy per thread.
	PerThread bool
	// Peek lists the memory ranges to verify and WantMemory their contents.
	Peek       []Range
	WantMemory [][]int64
}

// Check compares a run's printed values and peeked memory with the
// reference. memory(i) returns the words of Peek[i].
func (p *Program) Check(outputs []int64, memory func(i int) []int64) error {
	if n := len(p.WantOutputs); len(outputs) != n && !(p.PerThread && n == 1 && len(outputs) > 0) {
		return fmt.Errorf("%s: printed %d values, want %d", p.Name, len(outputs), n)
	}
	for i, got := range outputs {
		if w := p.WantOutputs[i%len(p.WantOutputs)]; got != w {
			return fmt.Errorf("%s: output %d = %d, want %d", p.Name, i, got, w)
		}
	}
	for i, want := range p.WantMemory {
		got := memory(i)
		if len(got) != len(want) {
			return fmt.Errorf("%s: peek %d returned %d words, want %d", p.Name, i, len(got), len(want))
		}
		for j, w := range want {
			if got[j] != w {
				return fmt.Errorf("%s: word %d = %d, want %d", p.Name, p.Peek[i].Addr+int64(j), got[j], w)
			}
		}
	}
	return nil
}

// peek records [addr, addr+len(words)) — truncated to MaxPeekWords — as a
// range to verify.
func (p *Program) peek(addr int64, words []int64) {
	if len(words) > MaxPeekWords {
		words = words[:MaxPeekWords]
	}
	p.Peek = append(p.Peek, Range{Addr: addr, N: len(words)})
	p.WantMemory = append(p.WantMemory, append([]int64(nil), words...))
}

// newRand returns the generator's random source for a seed and a stream
// label, so independent streams of one seed do not share a sequence.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// Order returns a seeded permutation of 0..n-1.
func Order(seed int64, stream string, n int) []int { return newRand(seed, stream).Perm(n) }

func sum(vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}
