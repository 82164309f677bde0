package isa

import (
	"testing"
)

func TestFusible(t *testing.T) {
	fusible := []Op{ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		MIN, MAX, SEQ, SLT, LDI, MOV, NEG, NOT, SEL,
		TID, FID, THICK, GID, PID, NPROC, NGRP}
	for _, op := range fusible {
		if !op.Fusible() {
			t.Errorf("%s: want fusible", op)
		}
	}
	boundaries := []Op{LD, ST, LDL, STL, MADD, MPADD,
		RADD, RMAX, JMP, BEQZ, BNEZ, CALL, RET,
		SETTHICK, NUMA, PRAM, SPLIT, JOIN, BAR, HALT,
		NOP, PRINT, PRINTS}
	for _, op := range boundaries {
		if op.Fusible() {
			t.Errorf("%s: want fusion boundary", op)
		}
	}
}

// tile checks that blocks partition [0, n) exactly, in order.
func tile(t *testing.T, blocks []Block, n int) {
	t.Helper()
	pc := 0
	for _, b := range blocks {
		if b.Start != pc || b.End <= b.Start {
			t.Fatalf("blocks do not tile: got %+v at pc %d", b, pc)
		}
		pc = b.End
	}
	if pc != n {
		t.Fatalf("blocks cover [0,%d), want [0,%d)", pc, n)
	}
}

func TestBlocksStraightLine(t *testing.T) {
	b := NewBuilder("straight")
	b.Ldi(V(0), 1)
	b.ALUI(ADD, V(1), V(0), 2)
	b.ALU(MUL, V(2), V(1), V(0))
	b.St(RegNone, 100, V(2))
	b.Op(HALT)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blocks := Blocks(p)
	tile(t, blocks, p.Len())
	want := []Block{
		{Start: 0, End: 3, Fused: true},
		{Start: 3, End: 4},
		{Start: 4, End: 5},
	}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %+v, want %+v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, blocks[i], want[i])
		}
	}
	rl := RunLengths(p)
	wantRL := []int{3, 2, 1, 1, 1}
	for pc, w := range wantRL {
		if rl[pc] != w {
			t.Fatalf("rl[%d] = %d, want %d (all %v)", pc, rl[pc], w, rl)
		}
	}
}

func TestBlocksBranchTargetSplitsRun(t *testing.T) {
	// A backward branch lands in the middle of what would otherwise be one
	// fused run: the target must start its own block.
	b := NewBuilder("branch")
	b.Ldi(S(0), 4)               // 0
	b.Label("loop")              //
	b.Ldi(V(0), 7)               // 1  <- branch target
	b.ALUI(ADD, V(1), V(0), 1)   // 2
	b.ALUI(SUB, S(0), S(0), 1)   // 3
	b.Branch(BNEZ, S(0), "loop") // 4
	b.Op(HALT)                   // 5
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blocks := Blocks(p)
	tile(t, blocks, p.Len())
	rl := RunLengths(p)
	if rl[0] != 1 {
		t.Fatalf("rl[0] = %d, want 1 (run must stop at the branch target)", rl[0])
	}
	if rl[1] != 3 {
		t.Fatalf("rl[1] = %d, want 3 (the loop body run)", rl[1])
	}
	if rl[4] != 1 || rl[5] != 1 {
		t.Fatalf("control ops must be singleton runs, got %v", rl)
	}
}

func TestRunLengthsSuffixProperty(t *testing.T) {
	// Every suffix of a run is itself a run: rl decreases by exactly one
	// along a fused block. Checked over a program with several block shapes.
	src := `
		LDI V0, 3
		ADD V1, V0, 5
		MUL V2, V1, V1
		SUB V3, V2, V0
		ST 64, V3
		LDI V4, 9
		NEG V5, V4
		HALT
	`
	p := MustAssemble("suffix", src)
	rl := RunLengths(p)
	for _, b := range Blocks(p) {
		if !b.Fused {
			if rl[b.Start] != 1 {
				t.Fatalf("boundary block %+v has rl %d", b, rl[b.Start])
			}
			continue
		}
		for pc := b.Start; pc < b.End; pc++ {
			if rl[pc] != b.End-pc {
				t.Fatalf("rl[%d] = %d inside block %+v, want %d", pc, rl[pc], b, b.End-pc)
			}
		}
	}
}
