package machine

import (
	"errors"
	"testing"
	"testing/quick"

	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// autosplitVecAdd is the thickness-64 vector add; with auto-splitting the
// machine fragments it across groups.
const autosplitVecAdd = `
main:
    LDI S0, 256
    SETTHICK S0
    TID V0
    LD V1, V0+1000
    ADD V2, V1, 5
    ST V0+2000, V2
    HALT
`

func prepVecAdd(t *testing.T, tweak func(*Config)) *Machine {
	t.Helper()
	cfg := Default(variant.SingleInstruction)
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(mustAsm(t, autosplitVecAdd)); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	if err := m.Shared().Load(1000, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func checkVecAdd64(t *testing.T, m *Machine) {
	t.Helper()
	got := m.Shared().Snapshot(2000, 256)
	for i := range got {
		if got[i] != int64(i*3+5) {
			t.Fatalf("c[%d] = %d, want %d", i, got[i], i*3+5)
		}
	}
}

func TestAutoSplitPreservesResults(t *testing.T) {
	m := prepVecAdd(t, func(c *Config) { c.AutoSplitThreshold = 64 })
	checkVecAdd64(t, m)
	s := m.Stats()
	if s.AutoSplits != 1 {
		t.Fatalf("auto splits = %d, want 1", s.AutoSplits)
	}
	// 256 lanes at threshold 64: four fragments plus the container.
	if len(m.Flows()) != 5 {
		t.Fatalf("flows = %d, want 5", len(m.Flows()))
	}
	for _, f := range m.Flows()[1:] {
		if !f.IsFragment || f.Parent != m.Flow(0) || f.Thickness != 64 {
			t.Fatalf("bad fragment: %+v", f)
		}
		if f.State != tcf.Done {
			t.Fatalf("fragment not done: %v", f)
		}
	}
	if m.Flow(0).State != tcf.Done {
		t.Fatal("container flow should be done after fragments join")
	}
}

func TestAutoSplitSpeedsUpThickFlows(t *testing.T) {
	plain := prepVecAdd(t, nil)
	split := prepVecAdd(t, func(c *Config) { c.AutoSplitThreshold = 64 })
	checkVecAdd64(t, plain)
	checkVecAdd64(t, split)
	// A 256-lane flow on one group versus 64-lane fragments on four groups:
	// the step makespan drops roughly by the group count.
	if split.Stats().Cycles*2 >= plain.Stats().Cycles {
		t.Fatalf("auto-split %d cycles should clearly beat single-group %d",
			split.Stats().Cycles, plain.Stats().Cycles)
	}
	occ := 0
	for _, ops := range split.Stats().PerGroupOps {
		if ops > 60 {
			occ++
		}
	}
	if occ < 4 {
		t.Fatalf("fragments should occupy all groups: %v", split.Stats().PerGroupOps)
	}
}

func TestAutoSplitFragmentTIDsCoverRange(t *testing.T) {
	// The ST results above already prove tid coverage; here check the
	// multiprefix ordering across fragments stays the logical tid order.
	src := `
main:
    LDI S0, 32
    SETTHICK S0
    TID V0
    ADD V1, V0, 1
    MPADD V2, 900, V1
    ST V0+2000, V2
    HALT
`
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(mustAsm(t, src)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prefix := m.Shared().Snapshot(2000, 32)
	acc := int64(0)
	for i := 0; i < 32; i++ {
		if prefix[i] != acc {
			t.Fatalf("prefix[%d] = %d, want %d (fragment ordering broken)", i, prefix[i], acc)
		}
		acc += int64(i + 1)
	}
	if got := m.Shared().Peek(900); got != acc {
		t.Fatalf("total = %d, want %d", got, acc)
	}
}

func TestAutoSplitBelowThresholdNoop(t *testing.T) {
	src := "main:\nSETTHICK 8\nTID V0\nHALT"
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 16
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().AutoSplits != 0 || len(m.Flows()) != 1 {
		t.Fatalf("unexpected split: %d flows", len(m.Flows()))
	}
}

func TestAutoSplitFragmentRejoinsAtModeChanges(t *testing.T) {
	// Fragments reaching a thickness or mode change rejoin the container,
	// which resumes there with the fragments' (identical) scalar state and
	// re-executes the statement — iterative thickness programs compose
	// with auto-splitting.
	src := `
main:
    LDI S1, 5
    SETTHICK 64
    TID V0
    ST V0+2000, V0
    ADD S1, S1, 1
    SETTHICK 4
    THICK S2
    ST 950, S2
    ST 951, S1
    NUMA 2
    LDI S3, 77
    PRAM
    ST 952, S3
    HALT
`
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 16
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The thick region ran as fragments covering all 64 tids.
	got := m.Shared().Snapshot(2000, 64)
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("tid store %d = %d", i, got[i])
		}
	}
	// The container resumed at SETTHICK 4 with the fragments' scalars
	// (S1 incremented inside the fragmented region).
	if v := m.Shared().Peek(950); v != 4 {
		t.Fatalf("THICK after rejoin = %d, want 4", v)
	}
	if v := m.Shared().Peek(951); v != 6 {
		t.Fatalf("scalar state after rejoin = %d, want 6", v)
	}
	if v := m.Shared().Peek(952); v != 77 {
		t.Fatalf("NUMA section after rejoin = %d, want 77", v)
	}
	if m.Stats().AutoSplits != 1 {
		t.Fatalf("auto splits = %d", m.Stats().AutoSplits)
	}
}

func TestAutoSplitIterativeThickness(t *testing.T) {
	// A loop that re-sets the thickness every iteration: each round
	// fragments and rejoins.
	src := `
main:
    LDI S0, 0
loop:
    SETTHICK 32
    TID V0
    MUL V1, V0, S0
    ST V0+3000, V1
    SETTHICK 1
    ADD S0, S0, 1
    SLT S1, S0, 3
    BNEZ S1, loop
    HALT
`
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 8
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Final round (S0 = 2) wrote tid*2.
	got := m.Shared().Snapshot(3000, 32)
	for i := range got {
		if got[i] != int64(i*2) {
			t.Fatalf("final round: out[%d] = %d, want %d", i, got[i], i*2)
		}
	}
	if m.Stats().AutoSplits != 3 {
		t.Fatalf("auto splits = %d, want 3 (one per round)", m.Stats().AutoSplits)
	}
}

func TestAutoSplitTHICKReportsLogicalThickness(t *testing.T) {
	src := `
main:
    LDI S0, 32
    SETTHICK S0
    THICK S1
    ST 950, S1
    HALT
`
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 8
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Shared().Peek(950); got != 32 {
		t.Fatalf("THICK in fragment = %d, want logical 32", got)
	}
}

func TestAutoSplitInsideParallelArm(t *testing.T) {
	// A split child that then exceeds the threshold: the cascade must
	// notify the original parent when the fragments finish.
	src := `
main:
    SPLIT 1 -> arm
    PRINTS "joined"
    HALT
arm:
    LDI S0, 48
    SETTHICK S0
    TID V0
    ST V0+2000, V0
    JOIN
`
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 16
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	outs := m.Outputs()
	if len(outs) != 1 || outs[0].Text != "joined" {
		t.Fatalf("parent never resumed: %v", outs)
	}
	got := m.Shared().Snapshot(2000, 48)
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("tid store wrong at %d: %d", i, got[i])
		}
	}
}

func TestAutoSplitRejectsFragmentUnsafeInstructions(t *testing.T) {
	// A flow-level reduction inside a fragment would see only the
	// fragment's lanes; the fragment must not run it. It rejoins, and the
	// container reduces over all 64 lanes, as the unsplit run does.
	src := `
main:
    SETTHICK 64
    TID V0
    RADD S1, V0
    ST 950, S1
    HALT
`
	cfg := Default(variant.SingleInstruction)
	cfg.AutoSplitThreshold = 16
	m, _ := New(cfg)
	m.LoadProgram(mustAsm(t, src))
	if _, err := m.Run(); err != nil {
		t.Fatalf("reduction inside a fragment stopped the run: %v", err)
	}
	if m.Stats().AutoSplits == 0 {
		t.Fatal("the 64-lane flow never split: the test holds nothing")
	}
	if got := m.Shared().Peek(950); got != 63*64/2 {
		t.Fatalf("reduction after rejoin = %d, want %d over all lanes", got, 63*64/2)
	}
	// The same program without auto-splitting gives the same sum.
	cfg.AutoSplitThreshold = 0
	m2, _ := New(cfg)
	m2.LoadProgram(mustAsm(t, src))
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m2.Shared().Peek(950); got != 63*64/2 {
		t.Fatalf("unsplit reduction = %d, want %d", got, 63*64/2)
	}
}

func TestFragment(t *testing.T) {
	got, err := fragment(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fragment(10,4) = %v", got)
		}
	}
	if got, err := fragment(0, 4); err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("fragment(0,4) = %v, %v", got, err)
	}
	if got, err := fragment(3, 4); err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("fragment(3,4) = %v, %v", got, err)
	}
	for _, c := range []struct{ u, bound int }{{1, 0}, {-1, 2}} {
		if out, err := fragment(c.u, c.bound); out != nil || !errors.Is(err, errBadParam) {
			t.Errorf("fragment(%d,%d) = (%v, %v), want errBadParam", c.u, c.bound, out, err)
		}
	}
}

// Properties: fragments sum to u, each within (0, bound] except the empty
// case, and count = ceil(u/bound).
func TestFragmentProperties(t *testing.T) {
	prop := func(u uint16, bound uint8) bool {
		b := int(bound%16) + 1
		uu := int(u % 2048)
		fr, err := fragment(uu, b)
		if err != nil {
			return false
		}
		sum := 0
		for _, f := range fr {
			sum += f
			if f > b || (f <= 0 && uu != 0) {
				return false
			}
		}
		return sum == uu && len(fr) == max(1, (uu+b-1)/b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
