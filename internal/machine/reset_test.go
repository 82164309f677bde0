package machine

import (
	"errors"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// TestMaxThicknessQuota: SETTHICK and SPLIT growth past MaxThickness stop
// the run with ErrThicknessLimit; the same programs run clean unbounded.
func TestMaxThicknessQuota(t *testing.T) {
	setthick := `
main:
    LDI S0, 64
    SETTHICK S0
    TID V0
    ST V0+100, V0
    HALT
`
	split := `
main:
    SPLIT 64 -> arm
    HALT
arm:
    JOIN
`
	for name, src := range map[string]string{"setthick": setthick, "split": split} {
		t.Run(name, func(t *testing.T) {
			if _, err := runSrc(t, variant.SingleInstruction, src, nil); err != nil {
				t.Fatalf("unbounded: %v", err)
			}
			_, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxThickness = 63 })
			if !errors.Is(err, ErrThicknessLimit) {
				t.Fatalf("bounded: err = %v, want ErrThicknessLimit", err)
			}
			if _, err := runSrc(t, variant.SingleInstruction, src, func(c *Config) { c.MaxThickness = 64 }); err != nil {
				t.Fatalf("bound exactly at need: %v", err)
			}
		})
	}
}

// TestSetLimitsGuards: limits are rejected once flows exist and on bad
// values.
func TestSetLimitsGuards(t *testing.T) {
	m, err := New(Default(variant.SingleInstruction))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(0, -1); err == nil {
		t.Fatal("negative MaxThickness accepted")
	}
	if err := m.LoadProgram(isa.MustAssemble("t", vectorAddSrc)); err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetLimits(10, 0); err == nil {
		t.Fatal("SetLimits accepted on a booted machine")
	}
}
