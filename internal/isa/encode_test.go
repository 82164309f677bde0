package isa

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// buildRandomProgram creates a program with random instructions plus some
// control flow and data.
func buildRandomProgram(rng *rand.Rand) *Program {
	b := NewBuilder("rand")
	b.Data(int64(rng.Intn(1000)), int64(rng.Intn(100)), -7, 42)
	b.Label("main")
	n := 1 + rng.Intn(25)
	for i := 0; i < n; i++ {
		b.Emit(randomInstr(rng))
	}
	b.Label("loop")
	b.Emit(randomInstr(rng))
	b.Branch(BNEZ, S(0), "loop")
	b.Split(ArmImm(int64(rng.Intn(10)), "arm"), ArmReg(S(1), "arm"))
	b.Jmp("end")
	b.Label("arm")
	b.Op(JOIN)
	b.Label("end")
	b.Prints("done\n\"quoted\"")
	b.Halt()
	return b.MustBuild()
}

func programsEqual(t *testing.T, a, b *Program) {
	t.Helper()
	if a.Name != b.Name {
		t.Fatalf("name %q != %q", a.Name, b.Name)
	}
	if len(a.Instrs) != len(b.Instrs) {
		t.Fatalf("instr count %d != %d", len(a.Instrs), len(b.Instrs))
	}
	for i := range a.Instrs {
		x, y := a.Instrs[i], b.Instrs[i]
		if a.Sym(x) != b.Sym(y) || !slices.Equal(a.Arms(x), b.Arms(y)) {
			t.Fatalf("instr %d: symbol %q != %q or arms %+v != %+v", i, a.Sym(x), b.Sym(y), a.Arms(x), b.Arms(y))
		}
		x.Aux, y.Aux = 0, 0
		if x != y {
			t.Fatalf("instr %d: %+v != %+v", i, x, y)
		}
	}
	if !slices.Equal(a.Labels, b.Labels) {
		t.Fatalf("labels %v != %v", a.Labels, b.Labels)
	}
	if len(a.Data) != len(b.Data) {
		t.Fatalf("data count")
	}
	for i := range a.Data {
		if a.Data[i].Addr != b.Data[i].Addr || len(a.Data[i].Words) != len(b.Data[i].Words) {
			t.Fatalf("data seg %d", i)
		}
		for j := range a.Data[i].Words {
			if a.Data[i].Words[j] != b.Data[i].Words[j] {
				t.Fatalf("data seg %d word %d", i, j)
			}
		}
	}
}

// Property: Encode/Decode round-trips arbitrary valid programs exactly, and
// a parallel statement of 2048 arms.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial <= 60; trial++ {
		var p *Program
		if trial < 60 {
			p = buildRandomProgram(rng)
		} else {
			p = splitProgram(2048)
		}
		blob := Encode(p)
		q, err := Decode(blob)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		programsEqual(t, p, q)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE"),
		[]byte("TCFB\xff"), // bad version
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p := buildRandomProgram(rand.New(rand.NewSource(5)))
	blob := Encode(p)
	for cut := 5; cut < len(blob)-1; cut += 7 {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	p := MustAssemble("t", "main: HALT")
	blob := append(Encode(p), 0xAB)
	if _, err := Decode(blob); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsInvalidProgram(t *testing.T) {
	// Hand-corrupt an opcode to an invalid value: Validate must reject.
	p := MustAssemble("t", "main: NOP\nHALT")
	p2 := *p
	p2.Instrs = append([]Instr(nil), p.Instrs...)
	p2.Instrs[0].Op = Op(250)
	blob := Encode(&p2)
	if _, err := Decode(blob); err == nil {
		t.Fatal("invalid opcode accepted")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	p := buildRandomProgram(rand.New(rand.NewSource(11)))
	a, b := Encode(p), Encode(p)
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}

// rawObject encodes a one-instruction TCFB object field by field, so that a
// test can write values Encode never would: target1 is the target+1 field,
// arms the target+1 field of each SPLIT arm.
func rawObject(op Op, target1 uint64, sym string, arms ...uint64) []byte {
	var b bytes.Buffer
	b.WriteString(binMagic)
	b.WriteByte(binVersion)
	putString(&b, "raw")
	putUvarint(&b, 1)
	b.Write([]byte{byte(op), byte(RegNone), byte(S(0)), byte(RegNone), byte(RegNone), 0})
	putVarint(&b, 0)
	putUvarint(&b, target1)
	putString(&b, sym)
	putUvarint(&b, uint64(len(arms)))
	for _, t := range arms {
		b.WriteByte(byte(RegNone))
		putVarint(&b, 1)
		putUvarint(&b, t)
		putString(&b, "")
	}
	putUvarint(&b, 0) // labels
	putUvarint(&b, 0) // data segments
	return b.Bytes()
}

// labelObject is a one-instruction object (HALT) whose label table is
// written field by field, in the order given.
func labelObject(labels ...Label) []byte {
	obj := rawObject(HALT, 0, "")
	var b bytes.Buffer
	b.Write(obj[:len(obj)-2]) // the empty label and data tables
	putUvarint(&b, uint64(len(labels)))
	for _, l := range labels {
		putString(&b, l.Name)
		putUvarint(&b, uint64(l.PC))
	}
	putUvarint(&b, 0)
	return b.Bytes()
}

// splitProgram is a parallel statement of arms arms, each to a JOIN of its
// own label: the shape of a program of many thin TCFs.
func splitProgram(arms int) *Program {
	b := NewBuilder("split")
	b.Label("main")
	as := make([]Arm, arms)
	for i := range as {
		as[i] = ArmImm(4, fmt.Sprintf("arm%d", i))
	}
	b.Split(as...)
	b.Halt()
	for i := range as {
		b.Label(as[i].Label)
		b.Op(JOIN)
	}
	return b.MustBuild()
}

// TestDecodeNarrowsSafely: Decode reads every target into the 32-bit fields
// of the load image only after checking it names an instruction of the
// program, and takes a symbol or arms only where the side tables can hold
// them.
func TestDecodeNarrowsSafely(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"jmp-self", rawObject(JMP, 1, ""), true},
		{"jmp-2^32+5", rawObject(JMP, 1<<32+6, ""), false},
		{"jmp-past-end", rawObject(JMP, 2, ""), false},
		{"nop-2^31", rawObject(NOP, 1<<31+1, ""), false},
		{"prints", rawObject(PRINTS, 0, "hi"), true},
		{"split", rawObject(SPLIT, 1, "", 1), true},
		{"split-arm-2^32+5", rawObject(SPLIT, 1, "", 1<<32+6), false},
		{"split-arm-past-end", rawObject(SPLIT, 1, "", 1, 2), false},
		{"split-with-symbol", rawObject(SPLIT, 1, "x", 1), false},
		{"arms-on-jmp", rawObject(JMP, 1, "", 1), false},
		{"split-arms-truncated", truncatedArms(), false},
		{"labels", labelObject(Label{"a", 0}, Label{"main", 1}), true},
		{"labels-unsorted", labelObject(Label{"main", 0}, Label{"a", 0}), false},
		{"labels-duplicate", labelObject(Label{"a", 0}, Label{"a", 1}), false},
		{"label-past-end", labelObject(Label{"a", 2}), false},
		{"label-2^64-1", labelObject(Label{"a", -1}), false},
	} {
		p, err := Decode(c.data)
		if (err == nil) != c.ok {
			t.Errorf("%s: accepted %v, want %v (%v)", c.name, err == nil, c.ok, err)
			continue
		}
		if err == nil && !bytes.Equal(Encode(p), c.data) {
			t.Errorf("%s: re-encodes differently", c.name)
		}
	}
}

// truncatedArms is a SPLIT of three arms cut in its second.
func truncatedArms() []byte {
	obj := rawObject(SPLIT, 1, "", 1, 1, 1)
	return obj[:len(obj)-2-6]
}

// TestValidateAllocatesNothing: checking a valid program allocates nothing,
// so a load pays for its validation in time only.
func TestValidateAllocatesNothing(t *testing.T) {
	progs := []*Program{MustAssemble("s", sampleProgram), splitProgram(2048)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		progs = append(progs, buildRandomProgram(rng))
	}
	for _, p := range progs {
		if n := testing.AllocsPerRun(10, func() {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Validate makes %v allocations, want 0", p.Name, n)
		}
	}
}
