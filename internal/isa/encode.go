package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Binary object format for assembled TCF programs ("TCFB"): a deterministic,
// versioned encoding of the instruction stream, labels and data segments,
// suitable for distributing compiled kernels between the assembler/compiler
// and the machine loader.
//
// Layout (all integers varint-encoded, signed values zigzag):
//
//	magic "TCFB", version byte
//	name: len, bytes
//	instrs: count, then per instruction:
//	    op, rd, ra, rb, rc (bytes)
//	    flags byte (bit0 = HasImm)
//	    imm (signed varint)
//	    target+1 (0 marks none)
//	    sym: len, bytes
//	    arms: count, then per arm: thickReg byte, thickImm, target+1, sym
//	labels: count, then (len, name, pc) sorted by name
//	data: count, then (addr, wordCount, words...)
const (
	binMagic   = "TCFB"
	binVersion = 1
)

// Encode serializes p into the TCFB object format.
func Encode(p *Program) []byte {
	var b bytes.Buffer
	b.WriteString(binMagic)
	b.WriteByte(binVersion)
	putString(&b, p.Name)
	putUvarint(&b, uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		b.WriteByte(byte(in.Op))
		b.WriteByte(byte(in.Rd))
		b.WriteByte(byte(in.Ra))
		b.WriteByte(byte(in.Rb))
		b.WriteByte(byte(in.Rc))
		var flags byte
		if in.HasImm {
			flags |= 1
		}
		b.WriteByte(flags)
		putVarint(&b, in.Imm)
		putUvarint(&b, uint64(in.Target+1))
		putString(&b, p.Sym(in))
		arms := p.Arms(in)
		putUvarint(&b, uint64(len(arms)))
		for _, arm := range arms {
			b.WriteByte(byte(arm.Thick))
			putVarint(&b, arm.ThickImm)
			putUvarint(&b, uint64(arm.Target+1))
			putString(&b, arm.Sym)
		}
	}
	putUvarint(&b, uint64(len(p.Labels)))
	for _, l := range p.Labels {
		putString(&b, l.Name)
		putUvarint(&b, uint64(l.PC))
	}
	putUvarint(&b, uint64(len(p.Data)))
	for _, d := range p.Data {
		putVarint(&b, d.Addr)
		putUvarint(&b, uint64(len(d.Words)))
		for _, w := range d.Words {
			putVarint(&b, w)
		}
	}
	return b.Bytes()
}

// The fewest bytes an instruction, a SPLIT arm, a label and a data segment
// take in an object: what a count is checked against before the table it
// sizes is allocated.
const (
	minInstrBytes = 10 // six bytes, then imm, target+1, sym length and arm count
	minArmBytes   = 4  // thickReg, thickImm, target+1 and sym length
	minLabelBytes = 2  // name length and pc
	minSegBytes   = 2  // addr and word count
)

// Decode parses a TCFB object and validates the program.
//
// Every table is allocated once, at the size the object gives for it, and
// every string of the program — its name, symbols and label names — is a
// substring of one copy of the object.
func Decode(data []byte) (*Program, error) {
	if uint64(len(data)) > math.MaxUint32 {
		return nil, fmt.Errorf("isa: TCFB object too large (%d bytes, 4 GiB or more)", len(data))
	}
	r := &binReader{data: data}
	if string(r.next(4)) != binMagic {
		return nil, fmt.Errorf("isa: not a TCFB object")
	}
	if v := r.byte(); v != binVersion {
		return nil, fmt.Errorf("isa: unsupported TCFB version %d", v)
	}
	r.text = string(data)
	p := &Program{}
	p.Name = r.string()
	// Every count is checked against the bytes left in the object before
	// anything is allocated for it, and every target against the
	// instruction count before it is narrowed to int32; the count itself
	// fits an int32, and so does every side-table index, as no table
	// outgrows the program.
	n := r.uvarint()
	if r.err == nil && n > uint64(min(r.left()/minInstrBytes, math.MaxInt32)) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d instructions in %d bytes", n, len(data))
	}
	// target reads a target+1 field: 0 marks none, anything else must name
	// an instruction of the program.
	target := func(pc int) (int, error) {
		t := r.uvarint()
		if r.err == nil && t > n {
			return 0, fmt.Errorf("isa: corrupt TCFB: pc %d: target %d outside the program's %d instructions", pc, t-1, n)
		}
		return int(t) - 1, nil
	}
	if r.err == nil {
		p.Instrs = make([]Instr, n)
	}
	// A symbol's Aux is first the offset of its field in the object, plus
	// one; the symbol table is allocated once they are counted.
	syms := 0
	for i := range p.Instrs {
		if r.err != nil {
			break
		}
		in := &p.Instrs[i]
		if f := r.next(6); f != nil {
			in.Op, in.Rd, in.Ra, in.Rb, in.Rc = Op(f[0]), Reg(f[1]), Reg(f[2]), Reg(f[3]), Reg(f[4])
			in.HasImm = f[5]&1 != 0
		}
		in.Imm = r.varint()
		t, err := target(i)
		if err != nil {
			return nil, err
		}
		in.Target = int32(t)
		if off := r.off; r.string() != "" {
			if in.Op == SPLIT {
				return nil, fmt.Errorf("isa: corrupt TCFB: pc %d: SPLIT with a symbol", i)
			}
			in.Aux = uint32(off) + 1
			syms++
		}
		arms := r.uvarint()
		if r.err == nil && arms > uint64(r.left()/minArmBytes) {
			return nil, fmt.Errorf("isa: corrupt TCFB: %d arms", arms)
		}
		if r.err == nil && arms > 0 && in.Op != SPLIT {
			return nil, fmt.Errorf("isa: corrupt TCFB: pc %d: %d arms on a non-SPLIT", i, arms)
		}
		if r.err != nil || arms == 0 {
			continue
		}
		sa := make([]SplitArm, arms)
		for a := range sa {
			arm := &sa[a]
			arm.Thick = Reg(r.byte())
			arm.ThickImm = r.varint()
			if arm.Target, err = target(i); err != nil {
				return nil, err
			}
			arm.Sym = r.string()
		}
		p.Splits = append(p.Splits, sa)
		in.Aux = uint32(len(p.Splits))
	}
	if syms > 0 && r.err == nil {
		end := r.off
		p.Syms = make([]string, 0, syms)
		for i := range p.Instrs {
			if in := &p.Instrs[i]; in.Op != SPLIT && in.Aux != 0 {
				r.off = int(in.Aux - 1)
				p.Syms = append(p.Syms, r.string())
				in.Aux = uint32(len(p.Syms))
			}
		}
		r.off = end
	}
	labels := r.uvarint()
	if r.err == nil && labels > uint64(r.left()/minLabelBytes) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d labels", labels)
	}
	if r.err == nil && labels > 0 {
		p.Labels = make([]Label, labels)
		for i := range p.Labels {
			p.Labels[i] = Label{Name: r.string(), PC: int(r.uvarint())}
		}
	}
	segs := r.uvarint()
	if r.err == nil && segs > uint64(r.left()/minSegBytes) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d data segments", segs)
	}
	if r.err == nil && segs > 0 {
		p.Data = make([]DataSeg, segs)
	}
	for i := range p.Data {
		d := &p.Data[i]
		d.Addr = r.varint()
		words := r.uvarint()
		if r.err != nil {
			break
		}
		if words > uint64(r.left()) {
			return nil, fmt.Errorf("isa: corrupt TCFB: %d words", words)
		}
		d.Words = make([]int64, words)
		for w := range d.Words {
			d.Words[w] = r.varint()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("isa: corrupt TCFB: %w", r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("isa: trailing garbage in TCFB object (%d bytes)", len(data)-r.off)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putVarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

// binReader reads an object front to back. Strings are substrings of text,
// the one copy of the object. The first failed read records err and moves
// off to the end of the object, so that every later read fails too and
// returns a zero value.
type binReader struct {
	data []byte
	text string
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s at offset %d", what, r.off)
		r.off = len(r.data)
	}
}

// left is the number of bytes not yet read.
func (r *binReader) left() int { return len(r.data) - r.off }

func (r *binReader) byte() byte {
	if r.off < len(r.data) {
		v := r.data[r.off]
		r.off++
		return v
	}
	r.fail("byte")
	return 0
}

// next returns the next n bytes, or nil when the object has fewer.
func (r *binReader) next(n int) []byte {
	if n <= r.left() {
		v := r.data[r.off : r.off+n]
		r.off += n
		return v
	}
	r.fail("bytes")
	return nil
}

// uvarint and varint read a one-byte value — most of an object's — without
// calling into encoding/binary.
func (r *binReader) uvarint() uint64 {
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		v := r.data[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		u := r.data[r.off]
		r.off++
		return int64(u>>1) ^ -int64(u&1) // zigzag
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) string() string {
	n := r.uvarint()
	if n > uint64(r.left()) {
		r.fail("string")
		return ""
	}
	s := r.text[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}
