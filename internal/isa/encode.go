package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	putUvarint(&b, uint64(len(names)))
	for _, name := range names {
		putString(&b, name)
		putUvarint(&b, uint64(p.Labels[name]))
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

// Decode parses a TCFB object and validates the program.
func Decode(data []byte) (*Program, error) {
	r := &binReader{data: data}
	if string(r.bytes(4)) != binMagic {
		return nil, fmt.Errorf("isa: not a TCFB object")
	}
	if v := r.byte(); v != binVersion {
		return nil, fmt.Errorf("isa: unsupported TCFB version %d", v)
	}
	p := &Program{Labels: map[string]int{}}
	p.Name = r.string()
	// Every count is checked against the object's length before anything
	// is allocated for it, and every target against the instruction count
	// before it is narrowed to int32; the count itself fits an int32, and
	// so does every side-table index, as no table outgrows the program.
	n := r.uvarint()
	if r.err == nil && n > uint64(min(len(data), math.MaxInt32)) {
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
	for i := 0; i < int(n) && r.err == nil; i++ {
		var in Instr
		in.Op = Op(r.byte())
		in.Rd = Reg(r.byte())
		in.Ra = Reg(r.byte())
		in.Rb = Reg(r.byte())
		in.Rc = Reg(r.byte())
		flags := r.byte()
		in.HasImm = flags&1 != 0
		in.Imm = r.varint()
		t, err := target(i)
		if err != nil {
			return nil, err
		}
		in.Target = int32(t)
		if sym := r.string(); sym != "" {
			if in.Op == SPLIT {
				return nil, fmt.Errorf("isa: corrupt TCFB: pc %d: SPLIT with a symbol", i)
			}
			p.Syms = append(p.Syms, sym)
			in.Aux = uint32(len(p.Syms))
		}
		arms := r.uvarint()
		if r.err == nil && arms > uint64(len(data)) {
			return nil, fmt.Errorf("isa: corrupt TCFB: %d arms", arms)
		}
		if r.err == nil && arms > 0 && in.Op != SPLIT {
			return nil, fmt.Errorf("isa: corrupt TCFB: pc %d: %d arms on a non-SPLIT", i, arms)
		}
		var sa []SplitArm
		for a := 0; a < int(arms) && r.err == nil; a++ {
			var arm SplitArm
			arm.Thick = Reg(r.byte())
			arm.ThickImm = r.varint()
			if arm.Target, err = target(i); err != nil {
				return nil, err
			}
			arm.Sym = r.string()
			sa = append(sa, arm)
		}
		if sa != nil {
			p.Splits = append(p.Splits, sa)
			in.Aux = uint32(len(p.Splits))
		}
		p.Instrs = append(p.Instrs, in)
	}
	labels := r.uvarint()
	if r.err == nil && labels > uint64(len(data)) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d labels", labels)
	}
	for i := 0; i < int(labels) && r.err == nil; i++ {
		name := r.string()
		pc := int(r.uvarint())
		p.Labels[name] = pc
	}
	segs := r.uvarint()
	if r.err == nil && segs > uint64(len(data)) {
		return nil, fmt.Errorf("isa: corrupt TCFB: %d data segments", segs)
	}
	for i := 0; i < int(segs) && r.err == nil; i++ {
		var d DataSeg
		d.Addr = r.varint()
		words := r.uvarint()
		if r.err == nil && words > uint64(len(data)*8) {
			return nil, fmt.Errorf("isa: corrupt TCFB: %d words", words)
		}
		for w := 0; w < int(words) && r.err == nil; w++ {
			d.Words = append(d.Words, r.varint())
		}
		p.Data = append(p.Data, d)
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

type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated %s at offset %d", what, r.off)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil || r.off >= len(r.data) {
		r.fail("byte")
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *binReader) bytes(n int) []byte {
	if r.err != nil || r.off+n > len(r.data) {
		r.fail("bytes")
		return make([]byte, n)
	}
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
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
	if r.err != nil {
		return 0
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
	if r.err != nil || n > uint64(len(r.data)-r.off) {
		r.fail("string")
		return ""
	}
	return string(r.bytes(int(n)))
}
