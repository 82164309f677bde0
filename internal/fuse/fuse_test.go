package fuse

import (
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

func TestCompileClasses(t *testing.T) {
	p := isa.MustAssemble("classes", `
		LDI V0, 3
		ADD V1, V0, 5
		MUL V2, V1, V1
		LD V3, 64
		RADD S0, V2
		ST 100, V2
		PRINT S0
		HALT
	`)
	fp := Compile(p)
	if len(fp.Code) != p.Len() {
		t.Fatalf("compiled %d instrs, want %d", len(fp.Code), p.Len())
	}
	wantClass := []Class{ClassReg, ClassReg, ClassReg, ClassMem, ClassAtomic, ClassMem, ClassAtomic, ClassControl}
	wantRun := []int{3, 2, 1, 1, 1, 1, 1, 1}
	for pc, fi := range fp.Code {
		if fi.Class != wantClass[pc] {
			t.Errorf("pc %d (%s): class %v, want %v", pc, fi.In.Op, fi.Class, wantClass[pc])
		}
		if fi.Run != wantRun[pc] {
			t.Errorf("pc %d (%s): run %d, want %d", pc, fi.In.Op, fi.Run, wantRun[pc])
		}
		if fi.Class == ClassReg && fi.Kern == nil {
			t.Errorf("pc %d (%s): register class with nil kernel", pc, fi.In.Op)
		}
		if fi.Thick != fi.In.Thick() || fi.Sliceable != fi.In.Sliceable() {
			t.Errorf("pc %d: cached properties diverge from isa.Instr", pc)
		}
	}
}

// refLane is the per-lane semantics of the register ops the
// kernels cover, written independently as the test oracle.
func refLane(env Env, f *tcf.Flow, in isa.Instr, i int) int64 {
	val := func(r isa.Reg) int64 {
		if r.IsScalar() {
			return f.Scalar(r)
		}
		v := f.Vector(r)
		if i >= len(v) {
			return 0
		}
		return v[i]
	}
	switch {
	case in.Op == isa.LDI:
		return in.Imm
	case in.Op == isa.MOV:
		return val(in.Ra)
	case in.Op == isa.NEG:
		return -val(in.Ra)
	case in.Op == isa.NOT:
		return ^val(in.Ra)
	case in.Op == isa.SEL:
		// As the engine's execLane: Rc is read on every lane, Rb on a
		// selecting one — and reading a thread-wise register allocates it.
		v := val(in.Rc)
		if val(in.Ra) != 0 {
			v = val(in.Rb)
		}
		return v
	case in.Op == isa.TID:
		if f.Mode == tcf.NUMA || in.Rd.IsScalar() {
			return 0 // a fragment rejoins for a flow-common TID
		}
		return int64(f.TidOffset + i)
	case in.Op == isa.FID:
		return int64(f.ID)
	case in.Op == isa.THICK:
		return int64(f.Thickness)
	case in.Op == isa.GID:
		return int64(env.Group)
	case in.Op == isa.PID:
		return int64(f.Home)
	case in.Op == isa.NPROC:
		return int64(env.Procs)
	case in.Op == isa.NGRP:
		return int64(env.Groups)
	case in.Op.IsBinaryALU():
		b := in.Imm
		if !in.HasImm {
			b = val(in.Rb)
		}
		return isa.Eval(in.Op, val(in.Ra), b)
	}
	t := int64(0)
	return t
}

// TestKernMatchesReference drives every compiled kernel shape against the
// per-lane reference at thickness 1, 4 and 300: all binary ALU opcodes across
// the operand shapes (vv, vs, sv, broadcast, immediate, scalar destination),
// the unaries, SEL in every mix of thread-wise and flow-common operands, and
// the identity sources. The whole flow is compared, so a kernel that
// allocates a register the reference leaves alone fails too.
func TestKernMatchesReference(t *testing.T) {
	alu := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.MIN, isa.MAX,
		isa.SEQ, isa.SNE, isa.SLT, isa.SLE, isa.SGT, isa.SGE}
	var instrs []isa.Instr
	for _, op := range alu {
		instrs = append(instrs,
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.V(1), Rb: isa.V(2)},          // vec,vec
			isa.Instr{Op: op, Rd: isa.V(1), Ra: isa.V(1), Rb: isa.V(2)},          // vec,vec into a
			isa.Instr{Op: op, Rd: isa.V(2), Ra: isa.V(1), Rb: isa.V(2)},          // vec,vec into b
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.V(1), Rb: isa.S(1)},          // vec,scalar
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.V(1), Rb: isa.S(3)},          // vec,scalar
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.S(0), Rb: isa.V(2)},          // scalar,vec
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.S(0), Rb: isa.S(1)},          // scalar,scalar
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.V(1), Imm: 7, HasImm: true},  // vec,imm
			isa.Instr{Op: op, Rd: isa.V(0), Ra: isa.S(0), Imm: 70, HasImm: true}, // scalar,imm
			isa.Instr{Op: op, Rd: isa.S(2), Ra: isa.V(1), Rb: isa.V(2)},          // scalar dest
			isa.Instr{Op: op, Rd: isa.S(2), Ra: isa.S(0), Imm: -3, HasImm: true}, // scalar dest, imm
		)
	}
	instrs = append(instrs,
		isa.Instr{Op: isa.LDI, Rd: isa.V(0), Imm: 42, HasImm: true},
		isa.Instr{Op: isa.LDI, Rd: isa.S(2), Imm: -9, HasImm: true},
		isa.Instr{Op: isa.MOV, Rd: isa.V(0), Ra: isa.V(1)},
		isa.Instr{Op: isa.MOV, Rd: isa.V(0), Ra: isa.S(0)},
		isa.Instr{Op: isa.MOV, Rd: isa.S(2), Ra: isa.V(1)},
		isa.Instr{Op: isa.NEG, Rd: isa.V(0), Ra: isa.V(1)},
		isa.Instr{Op: isa.NOT, Rd: isa.V(1), Ra: isa.V(1)},
		isa.Instr{Op: isa.NOT, Rd: isa.V(0), Ra: isa.S(0)},
		isa.Instr{Op: isa.NEG, Rd: isa.S(2), Ra: isa.S(1)},
		isa.Instr{Op: isa.SEL, Rd: isa.V(0), Ra: isa.V(3), Rb: isa.V(1), Rc: isa.V(2)},
		isa.Instr{Op: isa.SEL, Rd: isa.V(1), Ra: isa.V(3), Rb: isa.V(1), Rc: isa.S(3)},
		isa.Instr{Op: isa.SEL, Rd: isa.V(3), Ra: isa.V(3), Rb: isa.S(0), Rc: isa.V(2)},
		isa.Instr{Op: isa.SEL, Rd: isa.V(0), Ra: isa.V(3), Rb: isa.S(0), Rc: isa.S(3)},
		isa.Instr{Op: isa.SEL, Rd: isa.V(0), Ra: isa.V(3), Rb: isa.V(5), Rc: isa.V(2)}, // Rb never written
		isa.Instr{Op: isa.SEL, Rd: isa.V(0), Ra: isa.V(4), Rb: isa.V(5), Rc: isa.V(2)}, // … and never selected
		isa.Instr{Op: isa.SEL, Rd: isa.V(0), Ra: isa.S(0), Rb: isa.V(1), Rc: isa.V(5)}, // flow-common selector, set
		isa.Instr{Op: isa.SEL, Rd: isa.V(0), Ra: isa.S(1), Rb: isa.V(5), Rc: isa.S(3)}, // … and clear
		isa.Instr{Op: isa.SEL, Rd: isa.S(2), Ra: isa.S(0), Rb: isa.S(1), Rc: isa.S(3)},
		isa.Instr{Op: isa.SEL, Rd: isa.S(2), Ra: isa.V(3), Rb: isa.V(1), Rc: isa.V(2)},
		isa.Instr{Op: isa.TID, Rd: isa.V(0)},
		isa.Instr{Op: isa.TID, Rd: isa.S(2)},
		isa.Instr{Op: isa.FID, Rd: isa.V(0)},
		isa.Instr{Op: isa.THICK, Rd: isa.V(0)},
		isa.Instr{Op: isa.GID, Rd: isa.S(2)},
		isa.Instr{Op: isa.PID, Rd: isa.V(0)},
		isa.Instr{Op: isa.NPROC, Rd: isa.V(0)},
		isa.Instr{Op: isa.NGRP, Rd: isa.S(2)},
	)

	env := Env{Group: 2, Groups: 4, Procs: 16}
	// Operand values chosen to hit the edge semantics: zero divisors,
	// out-of-range shifts, negative values, zero/non-zero selectors.
	vals := []int64{7, -3, 0, 64, -1, 100, 2, 9}
	divs := []int64{2, 0, -1, 65, 1, 0, -64, 3}
	newFlow := func(lanes int, numa bool) *tcf.Flow {
		f := tcf.New(3, 0, lanes)
		f.TidOffset = 5
		va, vb, sel := f.Vector(isa.V(1)), f.Vector(isa.V(2)), f.Vector(isa.V(3))
		f.Vector(isa.V(4)) // an all-zero selector
		for i := 0; i < lanes; i++ {
			va[i] = vals[i%8] + int64(i/8)
			vb[i] = divs[i%8]
			sel[i] = int64(i % 2)
		}
		f.SetScalar(isa.S(0), -17)
		f.SetScalar(isa.S(1), 0)
		f.SetScalar(isa.S(3), 23)
		if numa {
			f.EnterNUMA(2)
		}
		return f
	}

	for _, lanes := range []int{1, 4, 300} {
		modes := []bool{false}
		if lanes == 1 {
			modes = append(modes, true) // NUMA mode has one lane
		}
		for _, in := range instrs {
			kern := kernOf(in)
			if kern == nil {
				t.Fatalf("%s %s: no kernel", in.Op, in.Rd)
			}
			for _, numa := range modes {
				got, want := newFlow(lanes, numa), newFlow(lanes, numa)
				if in.Rd.IsVector() {
					kern(env, &in, got, 0, lanes)
					res := make([]int64, lanes)
					for i := range res {
						res[i] = refLane(env, want, in, i)
					}
					copy(want.Vector(in.Rd), res)
				} else {
					kern(env, &in, got, 0, 1)
					want.SetScalar(in.Rd, refLane(env, want, in, 0))
				}
				if got.StateDigest() != want.StateDigest() || got.RegWordsPeak != want.RegWordsPeak {
					t.Fatalf("%s (d=%s a=%s b=%s c=%s imm=%v) at thickness %d, numa=%v: flow state diverges from the per-lane reference:\n got %v, %d words\nwant %v, %d words",
						in.Op, in.Rd, in.Ra, in.Rb, in.Rc, in.HasImm, lanes, numa,
						got.Lane(in.Rd, lanes-1), got.RegWordsPeak, want.Lane(in.Rd, lanes-1), want.RegWordsPeak)
				}
			}
		}
	}
}

// TestKernPartialRange checks kernels respect [first, end): lanes outside the
// range must be untouched — the property lane chunking is built on — over
// ranges from lane 0 and from later lanes, shorter than, as long as and
// longer than one unrolled iteration; TID numbers the lanes from the flow's
// offset, a fragment's too.
func TestKernPartialRange(t *testing.T) {
	const lanes = 12
	for _, in := range []isa.Instr{
		{Op: isa.ADD, Rd: isa.V(0), Ra: isa.V(1), Imm: 1, HasImm: true},
		{Op: isa.TID, Rd: isa.V(0)},
	} {
		for _, offset := range []int{0, 100} {
			for _, r := range [][2]int{{2, 5}, {0, 4}, {3, 7}, {1, 10}, {0, lanes}} {
				f := tcf.New(0, 0, lanes)
				f.TidOffset = offset
				src := f.Vector(isa.V(1))
				for i := range src {
					src[i] = int64(10 + i)
				}
				dst := f.Vector(isa.V(0))
				for i := range dst {
					dst[i] = -1
				}
				kernOf(in)(Env{}, &in, f, r[0], r[1])
				for i := 0; i < lanes; i++ {
					want := int64(-1)
					switch {
					case i < r[0] || i >= r[1]:
					case in.Op == isa.TID:
						want = int64(offset + i)
					default:
						want = int64(10+i) + 1
					}
					if dst[i] != want {
						t.Fatalf("%s, offset %d, lanes [%d, %d): lane %d = %d, want %d", in.Op, offset, r[0], r[1], i, dst[i], want)
					}
				}
			}
		}
	}
}
