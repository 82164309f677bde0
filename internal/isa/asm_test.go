package isa

import (
	"math/rand"
	"strings"
	"testing"
)

const sampleProgram = `
; vector add: c = a + b with thickness = 8 (Section 4 example)
.data 100: 1 2 3 4 5 6 7 8
.data 200: 10 20 30 40 50 60 70 80

main:
    LDI S0, 8
    SETTHICK S0
    TID V0
    LD V1, V0+100     ; a[i]
    LD V2, V0+200     ; b[i]
    ADD V3, V1, V2
    ST V0+300, V3     ; c[i]
    HALT
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble("sample", sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 8 {
		t.Fatalf("got %d instructions, want 8", p.Len())
	}
	if p.Entry() != 0 {
		t.Fatalf("entry = %d, want 0", p.Entry())
	}
	if len(p.Data) != 2 || p.Data[0].Addr != 100 || len(p.Data[1].Words) != 8 {
		t.Fatalf("bad data segments: %+v", p.Data)
	}
	if p.Instrs[3].Op != LD || p.Instrs[3].Ra != V(0) || p.Instrs[3].Imm != 100 {
		t.Fatalf("bad LD: %+v", p.Instrs[3])
	}
}

func TestAssembleBranchesAndSplit(t *testing.T) {
	src := `
main:
    LDI S0, 1
    BNEZ S0, body
    JMP done
body:
    SPLIT 8 -> armA, S1 -> armB
    JMP done
armA:
    JOIN
armB:
    JOIN
done:
    HALT
`
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	label := func(name string) int {
		pc, ok := p.Label(name)
		if !ok {
			t.Fatalf("no label %q", name)
		}
		return pc
	}
	b := p.Instrs[1]
	if b.Op != BNEZ || int(b.Target) != label("body") {
		t.Fatalf("BNEZ target %d, want %d", b.Target, label("body"))
	}
	sp := p.Instrs[3]
	arms := p.Arms(sp)
	if sp.Op != SPLIT || len(arms) != 2 {
		t.Fatalf("bad SPLIT: %+v", sp)
	}
	if arms[0].Thick != RegNone || arms[0].ThickImm != 8 || arms[0].Target != label("armA") {
		t.Fatalf("bad arm 0: %+v", arms[0])
	}
	if arms[1].Thick != S(1) || arms[1].Target != label("armB") {
		t.Fatalf("bad arm 1: %+v", arms[1])
	}
}

func TestAssemblePrints(t *testing.T) {
	p, err := Assemble("t", `PRINTS "hello, world"`+"\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Op != PRINTS || p.Sym(p.Instrs[0]) != "hello, world" {
		t.Fatalf("bad PRINTS: %+v", p.Instrs[0])
	}
}

func TestAssembleComments(t *testing.T) {
	src := "NOP ; trailing\n// whole line\nNOP // other style\nPRINTS \"a;b//c\" ; keep quoted\nHALT"
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("got %d instructions, want 4", p.Len())
	}
	if s := p.Sym(p.Instrs[2]); s != "a;b//c" {
		t.Fatalf("comment stripping corrupted string: %q", s)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"unknown-op", "FOO V1, V2", "unknown mnemonic"},
		{"bad-reg", "MOV V1, X9", "invalid register"},
		{"missing-label", "JMP nowhere", "undefined label"},
		{"dup-label", "a:\nNOP\na:\nNOP", "duplicate label"},
		{"wrong-arity", "ADD V1, V2", "expects 3 operand"},
		{"vector-cond", "BEQZ V1, x\nx: NOP", "must be scalar"},
		{"bad-split", "SPLIT 8", "malformed SPLIT arm"},
		{"bad-data", ".data x: 1 2", "malformed .data"},
		{"neg-thick", "SETTHICK -3", "negative thickness"},
		{"zero-bunch", "NUMA 0", "must be >= 1"},
		{"red-scalar-src", "RADD S0, S1", "must be thread-wise"},
		{"red-vector-dst", "RADD V0, V1", "must be scalar"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.name, c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestAssembleAbsoluteAddress(t *testing.T) {
	p, err := Assemble("t", "LD V1, 500\nST 501, V1\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Ra != RegNone || p.Instrs[0].Imm != 500 {
		t.Fatalf("bad absolute LD: %+v", p.Instrs[0])
	}
	if p.Instrs[1].Ra != RegNone || p.Instrs[1].Imm != 501 {
		t.Fatalf("bad absolute ST: %+v", p.Instrs[1])
	}
}

func TestAssembleNegativeDisplacement(t *testing.T) {
	p, err := Assemble("t", "LD V1, V0-4\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Ra != V(0) || p.Instrs[0].Imm != -4 {
		t.Fatalf("bad displacement: %+v", p.Instrs[0])
	}
}

// randomInstr builds a random but valid instruction (no control transfers,
// which need label context).
func randomInstr(rng *rand.Rand) Instr {
	vec := func() Reg { return V(rng.Intn(NumVRegs)) }
	scl := func() Reg { return S(rng.Intn(NumSRegs)) }
	anyReg := func() Reg {
		if rng.Intn(2) == 0 {
			return vec()
		}
		return scl()
	}
	imm := func() int64 { return int64(rng.Intn(2001) - 1000) }
	switch rng.Intn(10) {
	case 0:
		return Instr{Op: LDI, Rd: anyReg(), Imm: imm(), HasImm: true}
	case 1:
		return Instr{Op: MOV, Rd: anyReg(), Ra: anyReg()}
	case 2:
		ops := []Op{ADD, SUB, MUL, DIV, AND, OR, XOR, SHL, SHR, MIN, MAX, SEQ, SNE, SLT, SLE, SGT, SGE}
		in := Instr{Op: ops[rng.Intn(len(ops))], Rd: anyReg(), Ra: anyReg()}
		if rng.Intn(2) == 0 {
			in.Rb = anyReg()
		} else {
			in.Imm, in.HasImm = imm(), true
		}
		return in
	case 3:
		return Instr{Op: SEL, Rd: vec(), Ra: vec(), Rb: vec(), Rc: vec()}
	case 4:
		ops := []Op{TID, FID, THICK, GID, PID, NPROC, NGRP}
		return Instr{Op: ops[rng.Intn(len(ops))], Rd: anyReg()}
	case 5:
		if rng.Intn(2) == 0 {
			return Instr{Op: LD, Rd: anyReg(), Ra: anyReg(), Imm: imm()}
		}
		return Instr{Op: STL, Ra: anyReg(), Imm: imm(), Rb: anyReg()}
	case 6:
		ops := []Op{MADD, MAND, MOR, MMAX, MMIN}
		return Instr{Op: ops[rng.Intn(len(ops))], Ra: anyReg(), Imm: imm(), Rb: anyReg()}
	case 7:
		ops := []Op{MPADD, MPAND, MPOR, MPMAX, MPMIN}
		return Instr{Op: ops[rng.Intn(len(ops))], Rd: vec(), Ra: anyReg(), Imm: imm(), Rb: anyReg()}
	case 8:
		ops := []Op{RADD, RAND, ROR, RMAX, RMIN}
		return Instr{Op: ops[rng.Intn(len(ops))], Rd: scl(), Ra: vec()}
	default:
		switch rng.Intn(3) {
		case 0:
			return Instr{Op: SETTHICK, Imm: int64(rng.Intn(100)), HasImm: true}
		case 1:
			return Instr{Op: NUMA, Ra: scl()}
		default:
			return Instr{Op: PRINT, Ra: anyReg()}
		}
	}
}

// Property: disassembling a random program and re-assembling it yields the
// same instruction stream.
func TestDisassembleAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder("rt")
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			b.Emit(randomInstr(rng))
		}
		b.Halt()
		p := b.MustBuild()
		p2, err := Assemble("rt", p.Disassemble())
		if err != nil {
			t.Fatalf("trial %d: reassembly failed: %v\n%s", trial, err, p.Disassemble())
		}
		if p2.Len() != p.Len() {
			t.Fatalf("trial %d: length %d != %d", trial, p2.Len(), p.Len())
		}
		for pc := range p.Instrs {
			a, bI := p.format(p.Instrs[pc]), p2.format(p2.Instrs[pc])
			if a != bI {
				t.Fatalf("trial %d pc %d: %q != %q", trial, pc, a, bI)
			}
		}
	}
}

func TestDisassembleContainsLabels(t *testing.T) {
	p := MustAssemble("t", "main:\nNOP\nloop:\nJMP loop\nHALT")
	dis := p.Disassemble()
	for _, want := range []string{"main:", "loop:", "JMP loop"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}
