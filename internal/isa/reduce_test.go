package isa_test

import (
	"math"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/multiop"
)

// TestReduceAgreesWithEval holds Reduce, for each combining kind, to the fold
// the reductions are defined as: Eval lane after lane from the kind's
// identity (and from any other start), which an empty vector returns as is.
func TestReduceAgreesWithEval(t *testing.T) {
	grid := []int64{0, 1, -1, 7, -7, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, op := range []isa.Op{isa.RADD, isa.RAND, isa.ROR, isa.RMAX, isa.RMIN} {
		kind := op.CombineKind()
		for n := 0; n <= len(grid); n++ {
			for _, start := range []int64{multiop.Identity(kind), 5} {
				want := start
				for _, e := range grid[:n] {
					want = isa.Eval(kind, want, e)
				}
				if got := isa.Reduce(kind, start, grid[:n]); got != want {
					t.Errorf("Reduce(%s, %d, %v) = %d, want %d", kind, start, grid[:n], got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Reduce accepts a non-combining operator")
		}
	}()
	isa.Reduce(isa.SUB, 0, grid)
}
