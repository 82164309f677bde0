package fuse

import (
	"bytes"
	"slices"
	"testing"

	"tcfpram/internal/checkpoint"
	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
)

// affineThicknesses are the lane counts a chain starts at and switches
// between: none, one, three and four; either side of the fewest lanes a form
// is taken at (64); and more.
var affineThicknesses = []int{0, 1, 63, 64, 65, 300, 3, 4}

// chainMem is the shared memory of a chain's LD and ST: a few words, which
// every address reaches modulo their number.
type chainMem [97]int64

func (m *chainMem) at(addr int64) *int64 {
	k := addr % int64(len(m))
	if k < 0 {
		k += int64(len(m))
	}
	return &m[k]
}

// loadKern and storeKern are LD and ST as the machine's bulk path runs them on
// lanes [first, end): an address register in affine form read from its form,
// the ST's values too, and the LD's destination taken after its address.
func loadKern(f *tcf.Flow, m *chainMem, in *isa.Instr, first, end int) {
	if base, stride, ok := f.Affine(in.Ra); ok {
		dst := f.Dest(in.Rd, first, end)
		for k := range dst {
			dst[k] = *m.at(base + stride*int64(first+k) + in.Imm)
		}
		return
	}
	av := f.Vector(in.Ra)[first:end]
	dst := f.Dest(in.Rd, first, end)
	for k := range dst {
		dst[k] = *m.at(av[k] + in.Imm)
	}
}

func storeKern(f *tcf.Flow, m *chainMem, in *isa.Instr, first, end int) {
	column := func(r isa.Reg, c int64) []int64 {
		col := make([]int64, end-first)
		if base, stride, ok := f.Affine(r); ok {
			isa.Ramp(col, base+c+stride*int64(first), stride)
		} else {
			for k, v := range f.Vector(r)[first:end] {
				col[k] = v + c
			}
		}
		return col
	}
	addrs, vals := column(in.Ra, in.Imm), column(in.Rb, 0)
	for k, a := range addrs {
		*m.at(a) = vals[k]
	}
}

// refStep is one instruction on lanes [first, end) through isa.Eval, lane by
// lane, on a flow whose registers are only ever columns.
func refStep(f *tcf.Flow, m *chainMem, in *isa.Instr, first, end int) {
	for i := first; i < end; i++ {
		switch in.Op {
		case isa.LD:
			f.SetLane(in.Rd, i, *m.at(f.Lane(in.Ra, i) + in.Imm))
		case isa.ST:
			*m.at(f.Lane(in.Ra, i) + in.Imm) = f.Lane(in.Rb, i)
		default:
			f.SetLane(in.Rd, i, refLane(Env{}, f, *in, i))
		}
	}
}

// chainState is everything a flow shows without materialising a register:
// the read-only observers.
func chainState(t *testing.T, f *tcf.Flow) (digest uint64, snap []byte, lanes []int64, alloc []bool) {
	t.Helper()
	var buf bytes.Buffer
	e := checkpoint.NewEncoder(&buf, "FLOW", 1)
	f.EncodeTo(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		alloc = append(alloc, f.VectorAllocated(isa.V(r)))
		if alloc[r] {
			for i := 0; i <= f.Lanes(); i++ {
				lanes = append(lanes, f.Lane(isa.V(r), i))
			}
		}
	}
	return f.StateDigest(), buf.Bytes(), lanes, alloc
}

// runAffineChain decodes a chain from prog — a thickness, a fragment's thread
// offset and three bytes an instruction — and runs it on two flows: the lane
// kernels, LD and ST as the machine's bulk path runs them, on one; isa.Eval
// lane by lane on the other. After every instruction the observers must
// agree, and must leave the forms where they are (columns_skipped counts
// them: the arena counts no materialisation while they look); at the end
// every register's column and the memory. It returns the kernel flow's arena
// counts.
func runAffineChain(t *testing.T, prog []byte) tcf.ArenaCounts {
	if len(prog) < 2 {
		return tcf.ArenaCounts{}
	}
	thick := affineThicknesses[int(prog[0])%len(affineThicknesses)]
	arena := tcf.NewRegArena(1 << 16)
	got, want := tcf.New(1, 0, thick), tcf.New(1, 0, thick)
	got.Regs = arena
	if off := int(prog[1] % 4); off > 0 {
		for _, f := range []*tcf.Flow{got, want} {
			f.IsFragment, f.TidOffset = true, off*100
		}
	}
	got.SetScalar(isa.S(1), 5)
	want.SetScalar(isa.S(1), 5)
	var gotMem, wantMem chainMem
	for i := range gotMem {
		gotMem[i], wantMem[i] = int64(i*i-40), int64(i*i-40)
	}
	imms := []int64{0, 1, -1, 2, 3, 63, 64, -7, 1 << 40}
	for pc := 2; pc+3 <= len(prog); pc += 3 {
		b0, b1, b2 := prog[pc], prog[pc+1], prog[pc+2]
		rd, ra, rb := isa.V(int(b1%4)), isa.V(int(b1/4%4)), isa.V(int(b1/16%4))
		imm := imms[int(b2)%len(imms)]
		var in isa.Instr
		run := true
		switch b0 % 12 {
		case 0:
			in = isa.Instr{Op: isa.TID, Rd: rd}
		case 1:
			in = isa.Instr{Op: isa.ADD, Rd: rd, Ra: ra, Imm: imm, HasImm: true}
		case 2:
			in = isa.Instr{Op: isa.SUB, Rd: rd, Ra: ra, Rb: isa.S(1)}
		case 3:
			in = isa.Instr{Op: isa.MUL, Rd: rd, Ra: ra, Imm: imm, HasImm: true}
		case 4:
			in = isa.Instr{Op: isa.SHL, Rd: rd, Ra: ra, Imm: imm, HasImm: true}
		case 5:
			in = isa.Instr{Op: isa.MOV, Rd: rd, Ra: ra}
		case 6:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL}
			in = isa.Instr{Op: ops[int(b2)%3], Rd: rd, Ra: isa.S(1), Rb: ra}
		case 7:
			in = isa.Instr{Op: isa.XOR, Rd: rd, Ra: ra, Rb: rb} // reads two columns
		case 8:
			in = isa.Instr{Op: isa.LD, Rd: rd, Ra: ra, Imm: imm}
		case 9:
			in = isa.Instr{Op: isa.ST, Ra: ra, Rb: rb, Imm: imm}
		case 10:
			run = false
			if got.IsFragment {
				continue // a fragment's thickness is the machine's
			}
			thick := affineThicknesses[int(b2)%len(affineThicknesses)]
			got.SetThickness(thick)
			want.SetThickness(thick)
		case 11:
			run = false
			if got.Mode == tcf.NUMA {
				got.LeavePRAM()
				want.LeavePRAM()
			} else {
				got.EnterNUMA(2)
				want.EnterNUMA(2)
			}
		}
		lanes := got.Lanes()
		first, end := 0, lanes
		switch b2 / 16 % 4 {
		case 1:
			end = lanes / 2
		case 2:
			first = lanes / 3
		}
		// The engine hands a kernel one lane or more.
		if run && first < end {
			switch in.Op {
			case isa.LD:
				loadKern(got, &gotMem, &in, first, end)
			case isa.ST:
				storeKern(got, &gotMem, &in, first, end)
			default:
				kernOf(in)(Env{}, &in, got, first, end)
			}
			refStep(want, &wantMem, &in, first, end)
		}
		materialised := arena.Counts().ColumnsMaterialised
		gd, gs, gl, ga := chainState(t, got)
		wd, ws, wl, wa := chainState(t, want)
		switch {
		case !slices.Equal(ga, wa):
			t.Fatalf("pc %d (%s): allocated registers %v, want %v", pc, in.Op, ga, wa)
		case !slices.Equal(gl, wl):
			i := 0
			for i < min(len(gl), len(wl)) && gl[i] == wl[i] {
				i++
			}
			t.Fatalf("pc %d (%s): %d lanes observed, want %d; the %dth differs", pc, in.Op, len(gl), len(wl), i)
		case gd != wd:
			t.Fatalf("pc %d (%s): state digest differs", pc, in.Op)
		case !bytes.Equal(gs, ws):
			t.Fatalf("pc %d (%s): snapshot bytes differ", pc, in.Op)
		case got.RegWords() != want.RegWords() || got.RegWordsPeak != want.RegWordsPeak:
			t.Fatalf("pc %d (%s): %d register words (peak %d), want %d (%d)", pc, in.Op,
				got.RegWords(), got.RegWordsPeak, want.RegWords(), want.RegWordsPeak)
		case arena.Counts().ColumnsMaterialised != materialised:
			t.Fatalf("pc %d (%s): an observer materialised a register", pc, in.Op)
		}
	}
	for r := 0; r < 6; r++ {
		if v := isa.V(r); got.VectorAllocated(v) && !slices.Equal(got.Vector(v), want.Vector(v)) {
			t.Fatalf("V%d's column differs from the reference's", r)
		}
	}
	if gotMem != wantMem {
		t.Fatalf("memory %v, want %v", gotMem, wantMem)
	}
	return arena.Counts()
}

// affineSeeds are chains that reach every path of the form (see
// runAffineChain for the encoding): TID and index arithmetic at 300 lanes of
// a fragment feeding an ST and an LD, and an XOR that materialises; a form of
// fewer lanes than the flow after a thickness change, and a partial write
// into one; NUMA mode and back at 64 lanes; 63 lanes and 3, too few for a
// form; a form rewritten in place through wrap-around and a shift it cannot
// take; shifts by -1 and 64, which it cannot take either; a form under a thin
// stretch of the flow.
var affineSeeds = [][]byte{
	{5, 2, 0, 0, 0, 3, 1, 4, 1, 6, 1, 4, 11, 3, 9, 16, 0, 8, 1, 1, 7, 58, 0},
	{5, 0, 0, 0, 0, 10, 0, 4, 1, 1, 1, 10, 0, 5, 5, 6, 0, 0, 0, 16},
	{3, 0, 0, 0, 0, 11, 0, 0, 1, 1, 1, 11, 0, 0, 10, 0, 3, 0, 0, 0, 6, 2, 1},
	{2, 0, 0, 0, 0, 1, 1, 1, 9, 16, 0},
	{6, 0, 0, 0, 0, 1, 1, 1, 9, 16, 0},
	{5, 0, 0, 1, 0, 2, 5, 0, 3, 5, 8, 9, 20, 7, 4, 5, 6, 9, 20, 7},
	{5, 0, 0, 0, 0, 4, 1, 2, 4, 2, 6, 9, 16, 0},
	{5, 0, 0, 0, 0, 10, 0, 1, 0, 1, 0, 10, 0, 5, 8, 2, 0, 9, 16, 0},
}

// TestAffineSeedsReachForms: the seed chains take forms, materialise some,
// and agree with the columns (runAffineChain).
func TestAffineSeedsReachForms(t *testing.T) {
	var sum tcf.ArenaCounts
	for _, s := range affineSeeds {
		c := runAffineChain(t, s)
		sum.ColumnsSkipped += c.ColumnsSkipped
		sum.ColumnsMaterialised += c.ColumnsMaterialised
	}
	if sum.ColumnsSkipped < 10 || sum.ColumnsMaterialised < 4 {
		t.Fatalf("the seeds took %d forms and materialised %d", sum.ColumnsSkipped, sum.ColumnsMaterialised)
	}
}

// FuzzAffineVsColumns holds the affine forms to the columns they stand for:
// runAffineChain over fuzzed chains of TID, ADD, SUB, MUL, SHL, MOV, LD and ST
// (and XOR, which reads two columns) with partial lane ranges, thickness
// changes, NUMA mode and fragment offsets.
func FuzzAffineVsColumns(f *testing.F) {
	for _, s := range affineSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runAffineChain(t, prog) })
}
