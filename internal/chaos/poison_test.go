package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tcfpram/bench/gen"
	"tcfpram/internal/machine"
	"tcfpram/internal/tcf"
)

// TestPoisonedBanksLeakNothing: a register without a bank that an
// instruction writes whole, at 64 lanes or more, takes a lent bank unzeroed
// (tcf.Flow.Dest, a multiprefix's destination). Under tcf.PoisonBanks every
// bank the register arena lends comes filled with tcf.Poison, as a pooled
// machine's banks come with an earlier tenant's lanes, and the lattice's
// programs whose flows can be that thick — the corpus, the affine entry, the
// gen-tcfe programs — and the five engine-thick kernels at 2^10 lanes read
// the same flow digests after every step, and the same outputs, memory and
// Stats at the end, as without it: on a fresh machine, and on the same
// machine Reset and run again.
func TestPoisonedBanksLeakNothing(t *testing.T) {
	var es []entry
	for _, e := range programs(t) {
		if strings.HasSuffix(e.name, ".te") || e.name == "affine" || strings.HasPrefix(e.name, "gen-tcfe-") {
			es = append(es, e)
		}
	}
	for _, p := range gen.ThickKernels(1, gen.ThickShape{Thickness: 1 << 10, SharedWords: 1 << 15}) {
		words := p.SharedWords
		es = append(es, entry{name: p.Name, c: compileSrc(t, p.Name, p.Source),
			shapes: on(tcfKinds, func(c *machine.Config) { c.SharedWords = words; c.BalancedBound = 100 })})
	}
	for _, e := range es {
		for _, s := range e.shapes {
			cfg := machine.Default(s.kind)
			if s.tweak != nil {
				s.tweak(&cfg)
			}
			name := e.name + "/" + s.name
			clean, poisoned := buildRun(t, e.c, cfg), buildRun(t, e.c, cfg)
			for run := 0; run < 2; run++ {
				if err := lockstep(t, clean, poisoned); err != nil {
					t.Fatalf("%s, run %d with poisoned banks: %v", name, run, err)
				}
				for _, m := range []*machine.Machine{clean, poisoned} {
					m.Reset()
					if err := m.SetLimits(cfg.MaxSteps, cfg.MaxThickness); err != nil {
						t.Fatal(err)
					}
					loadInto(t, m, e.c)
				}
			}
		}
	}
}

// lockstep boots want and got and steps them together to the end of want's
// run, got under tcf.PoisonBanks and want without, holding got's flows to
// want's digests after every step and its outputs, memory and Stats to want's
// at the end.
func lockstep(t *testing.T, want, got *machine.Machine) error {
	poisoned := func(f func() error) error {
		tcf.PoisonBanks.Store(true)
		defer tcf.PoisonBanks.Store(false)
		return f()
	}
	if err := errors.Join(want.Boot(), poisoned(got.Boot)); err != nil {
		t.Fatal(err)
	}
	var wantErr, gotErr error
	for step := 1; !want.Done() && wantErr == nil; step++ {
		wantErr, gotErr = want.Step(), poisoned(got.Step)
		for id, f := range want.Flows() {
			if g := got.Flow(id); g == nil || g.StateDigest() != f.StateDigest() {
				return fmt.Errorf("step %d: flow %d diverges", step, id)
			}
		}
	}
	return compare(observe(got, gotErr), observe(want, wantErr), nil)
}
