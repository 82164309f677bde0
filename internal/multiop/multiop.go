// Package multiop implements the step-granular combining memory operations
// of the (extended) PRAM-NUMA model: multioperations (all participating
// threads of a step combine into one shared-memory word) and multiprefixes
// (each thread additionally receives the running value before its own
// contribution, ordered by flow id and thread index).
//
// The model assumes the active-memory/combining hardware of ESM machines
// executes these with constant latency per step; this package reproduces the
// semantics and provides a combining-tree latency estimate for the cost
// model.
package multiop

import (
	"fmt"
	"slices"

	"tcfpram/internal/isa"
	"tcfpram/internal/mem"
)

// Contribution is one thread's participation in a combining operation on a
// word during a step.
type Contribution struct {
	Addr int64
	Val  int64
	Key  Key
	// WantPrefix marks multiprefix participants that receive the running
	// value; plain multioperation participants set it false.
	WantPrefix bool
	// Dest tags where the caller wants the prefix routed (opaque to this
	// package; the machine stores flow/thread indices here again, but the
	// combiner just echoes it).
	Dest int
}

// Key orders contributions: lower (Flow, Thread, Seq) combines earlier — the
// same key, in the same order, that arbitrates concurrent writes.
type Key = mem.Key

// Result delivers the prefix value for one WantPrefix contribution.
type Result struct {
	Key    Key
	Dest   int
	Prefix int64
}

// Final is the value a step's combining traffic leaves in one word.
type Final struct {
	Addr int64
	Val  int64
}

// Combiner accumulates one step's combining traffic for a single combining
// operator (ADD, AND, OR, MAX or MIN, expressed as the isa opcode).
type Combiner struct {
	kind isa.Op
	cs   []Contribution
	// wantPrefix and unordered record what Add saw this step: a multiprefix
	// participant, and a key lower than the one added before it. Only both
	// together make Resolve order the traffic first.
	wantPrefix, unordered bool
	// finals (the per-address accumulators, in first-touch order), their
	// address table and prefixes are reused across Resolve calls so
	// steady-state steps allocate nothing.
	finals   []Final
	tab      mem.AddrTable
	prefixes []Result
}

// Kinds lists the combining operators, expressed as isa opcodes, in the
// order a step resolves their traffic.
var Kinds = [...]isa.Op{isa.ADD, isa.AND, isa.OR, isa.MAX, isa.MIN}

// KindIndex returns the position of kind in Kinds. It panics for any other
// opcode.
func KindIndex(kind isa.Op) int {
	for i, k := range Kinds {
		if k == kind {
			return i
		}
	}
	panic(fmt.Sprintf("multiop: invalid combining operator %s", kind))
}

// NewCombiner returns a Combiner for the given combining operator.
func NewCombiner(kind isa.Op) *Combiner {
	KindIndex(kind) // panics on a non-combining opcode
	return &Combiner{kind: kind}
}

// NewCombinerBank builds one combiner per kind of Kinds, in that order, all
// backed by a single allocation (a machine carries the whole bank; fresh
// machines are built in hot harness loops).
func NewCombinerBank() [len(Kinds)]*Combiner {
	arr := new([len(Kinds)]Combiner)
	var out [len(Kinds)]*Combiner
	for i, kind := range Kinds {
		arr[i].kind = kind
		out[i] = &arr[i]
	}
	return out
}

// Kind returns the combining operator.
func (c *Combiner) Kind() isa.Op { return c.kind }

// Add records a contribution.
func (c *Combiner) Add(ct Contribution) {
	c.cs = append(c.cs, ct)
	c.note(len(c.cs)-1, 0)
}

// AddAll records cs as Add would one by one, shifting the Dest of every
// multiprefix participant by destBase: callers that gather traffic in
// several arenas number their routes per arena.
func (c *Combiner) AddAll(cs []Contribution, destBase int) {
	i := len(c.cs)
	c.cs = append(c.cs, cs...)
	for ; i < len(c.cs); i++ {
		c.note(i, destBase)
	}
}

// note records what the arrival of c.cs[i] tells Resolve.
func (c *Combiner) note(i, destBase int) {
	ct := &c.cs[i]
	if i > 0 && ct.Key.Less(c.cs[i-1].Key) {
		c.unordered = true
	}
	if ct.WantPrefix {
		c.wantPrefix = true
		ct.Dest += destBase
	}
}

// Len returns the number of recorded contributions.
func (c *Combiner) Len() int { return len(c.cs) }

// Reset discards any recorded contributions, keeping the backing arenas. A
// run that stops between Add and Resolve (quota abort, cancellation) leaves
// traffic behind; pooled machines clear it here before reuse.
func (c *Combiner) Reset() {
	c.cs = c.cs[:0]
	c.wantPrefix, c.unordered = false, false
}

// Apply combines a pair under the given operator: the ALU operation of that
// opcode, restricted to the combining kinds.
func Apply(kind isa.Op, a, b int64) int64 {
	KindIndex(kind) // panics on a non-combining opcode
	return isa.Eval(kind, a, b)
}

// Resolve combines all contributions against the read function (pre-step
// memory state), returning the final value per touched address, in the order
// the addresses were first touched, and the prefix results for WantPrefix
// contributions. The prefix a participant sees is the combined value of the
// memory word and all lower-keyed contributions to it. The operators are
// commutative and associative, so the finals need no order at all and one
// pass in arrival order folds them; prefixes need key order, which the
// engine's lanes arrive in — traffic is sorted by key only when a multiprefix
// participant is present and Add saw keys out of order. The step's traffic
// is cleared. The returned slices are owned by the Combiner and valid only
// until the next Resolve call.
func (c *Combiner) Resolve(read func(addr int64) int64) (finals []Final, prefixes []Result) {
	if len(c.cs) == 0 {
		return nil, nil
	}
	if c.wantPrefix && c.unordered {
		slices.SortFunc(c.cs, func(a, b Contribution) int { return a.Key.Compare(b.Key) })
	}
	slots := c.tab.Reset(len(c.cs))
	mask := len(slots) - 1
	c.finals = c.finals[:0]
	c.prefixes = c.prefixes[:0]
	apply := isa.EvalFn(c.kind)
	var acc *Final // the accumulator of the contribution before, most often this one's too
	for i := range c.cs {
		ct := &c.cs[i]
		if acc == nil || acc.Addr != ct.Addr {
			h := c.tab.Home(ct.Addr)
			for slots[h] != 0 && c.finals[slots[h]-1].Addr != ct.Addr {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				c.finals = append(c.finals, Final{Addr: ct.Addr, Val: read(ct.Addr)})
				slots[h] = int32(len(c.finals))
			}
			acc = &c.finals[slots[h]-1]
		}
		if ct.WantPrefix {
			c.prefixes = append(c.prefixes, Result{Key: ct.Key, Dest: ct.Dest, Prefix: acc.Val})
		}
		acc.Val = apply(acc.Val, ct.Val)
	}
	c.Reset()
	return c.finals, c.prefixes
}

// TreeLatency estimates the combining latency in cycles for n participants
// combined by a binary combining tree inside the network/memory modules:
// ceil(log2 n) levels, constant per step as the paper's architectures
// assume, but exposed so ablation benches can charge it explicitly.
func TreeLatency(n int) int {
	if n <= 1 {
		return 0
	}
	l := 0
	for p := 1; p < n; p <<= 1 {
		l++
	}
	return l
}

// Identity returns the identity element of the combining operator, the value
// an empty combining subtree contributes.
func Identity(kind isa.Op) int64 {
	switch kind {
	case isa.ADD:
		return 0
	case isa.AND:
		return -1 // all ones
	case isa.OR:
		return 0
	case isa.MAX:
		return -1 << 63
	case isa.MIN:
		return 1<<63 - 1
	}
	panic(fmt.Sprintf("multiop: invalid combining operator %s", kind))
}
