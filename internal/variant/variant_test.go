package variant

import "testing"

func TestKindsCoverAll(t *testing.T) {
	ks := Kinds()
	if len(ks) != int(numKinds) {
		t.Fatalf("Kinds() has %d entries, want %d", len(ks), numKinds)
	}
	seen := map[Kind]bool{}
	for _, k := range ks {
		if !k.Valid() {
			t.Fatalf("invalid kind %v", k)
		}
		if seen[k] {
			t.Fatalf("duplicate kind %v", k)
		}
		seen[k] = true
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("expected error")
	}
	aliases := map[string]Kind{
		"si": SingleInstruction, "bal": Balanced, "mi": MultiInstruction,
		"so": SingleOperation, "cso": ConfigurableSingleOperation, "ft": FixedThickness,
	}
	for a, want := range aliases {
		got, err := ParseKind(a)
		if err != nil || got != want {
			t.Fatalf("alias %q = %v, %v", a, got, err)
		}
	}
}

// TestRelatedModels: each related model a Kind's doc comment names selects
// that variant by the model's own name.
func TestRelatedModels(t *testing.T) {
	models := map[string]Kind{
		"tcf": SingleInstruction, "xmt": MultiInstruction,
		"esm": SingleOperation, "sb-pram": SingleOperation,
		"pram-numa": ConfigurableSingleOperation, "total-eclipse": ConfigurableSingleOperation,
		"simd": FixedThickness, "vector": FixedThickness,
	}
	for m, want := range models {
		got, err := ParseKind(m)
		if err != nil || got != want {
			t.Errorf("related model %q = %v, %v; want %v", m, got, err, want)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

// Table 1 qualitative rows: PRAM / NUMA / MIMD operation per variant.
func TestTable1QualitativeRows(t *testing.T) {
	type row struct{ pram, numa, mimd bool }
	want := map[Kind]row{
		SingleInstruction:           {true, true, true},
		Balanced:                    {true, true, true},
		MultiInstruction:            {false, true, true},
		SingleOperation:             {true, false, true},
		ConfigurableSingleOperation: {true, true, true},
		FixedThickness:              {false, false, false},
	}
	for k, w := range want {
		p := k.Props()
		if p.PRAMOperation != w.pram || p.NUMAOperation != w.numa || p.MIMD != w.mimd {
			t.Errorf("%v: PRAM/NUMA/MIMD = %v/%v/%v, want %v/%v/%v",
				k, p.PRAMOperation, p.NUMAOperation, p.MIMD, w.pram, w.numa, w.mimd)
		}
	}
}

func TestLockstepAndControlParallel(t *testing.T) {
	for _, k := range Kinds() {
		p := k.Props()
		if k == MultiInstruction && p.Lockstep {
			t.Error("multi-instruction must not be lockstep (XMT loses PRAM synchronicity)")
		}
		if k != MultiInstruction && !p.Lockstep {
			t.Errorf("%v must be lockstep", k)
		}
		wantCP := k == SingleInstruction || k == Balanced || k == MultiInstruction
		if p.ControlParallel != wantCP {
			t.Errorf("%v ControlParallel = %v, want %v", k, p.ControlParallel, wantCP)
		}
	}
}

func TestFixedThreadsFlags(t *testing.T) {
	for _, k := range Kinds() {
		want := k == SingleOperation || k == ConfigurableSingleOperation
		if got := k.Props().FixedThreads; got != want {
			t.Errorf("%v FixedThreads = %v, want %v", k, got, want)
		}
	}
}

func TestPropsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Kind(99).Props()
}
