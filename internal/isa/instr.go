package isa

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// SplitArm describes one arm of a SPLIT (parallel statement): a child flow
// of the given thickness starting at Target. Thickness comes from a scalar
// register or an immediate.
type SplitArm struct {
	Thick    Reg   // scalar register holding the arm thickness, or RegNone
	ThickImm int64 // immediate thickness when Thick == RegNone
	Target   int   // entry PC of the arm (resolved)
	Sym      string
}

// Instr is one machine instruction. A single Instr executes across the whole
// thickness of the flow that runs it (one "TCF instruction" of the paper).
//
// It is a fixed-format 24-byte word without pointers, as the instruction
// memory of a TCF processor holds it: the variable-length parts — the arms
// of a SPLIT, the literal of PRINTS and the label a control transfer names —
// live in side tables of the Program, which Aux indexes. An array of them is
// therefore never scanned by the garbage collector.
type Instr struct {
	Op Op

	Rd Reg // destination
	Ra Reg // first source / address base / condition
	Rb Reg // second source
	Rc Reg // third source (SEL only)

	// HasImm is the instruction's one flag: Imm is the second ALU source
	// (or the source of PRINT, SETTHICK and NUMA) instead of a register.
	HasImm bool

	// Target is the resolved instruction index for control transfers.
	Target int32

	// Aux indexes the program's side tables, 0 meaning none: Aux-1 is the
	// index of a SPLIT's arms in Program.Splits and of any other
	// instruction's symbol in Program.Syms (see Program.Arms and
	// Program.Sym).
	Aux uint32

	// Imm is the immediate operand: the second ALU source when HasImm, the
	// address displacement for memory ops, or the literal for LDI /
	// SETTHICK / NUMA / PRINT.
	Imm int64
}

// format renders in in assembler syntax, naming every target with
// targetName.
func (p *Program) format(in Instr) string {
	info := in.Op.Info()
	var b strings.Builder
	b.WriteString(info.Name)
	arg := func(s string) {
		if strings.HasSuffix(b.String(), info.Name) {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(s)
	}
	mem := func(base Reg, imm int64) string {
		if base == RegNone {
			return strconv.FormatInt(imm, 10)
		}
		if imm == 0 {
			return base.String()
		}
		return fmt.Sprintf("%s%+d", base, imm)
	}
	src := func() string {
		if in.HasImm {
			return strconv.FormatInt(in.Imm, 10)
		}
		return in.Ra.String()
	}
	switch info.Args {
	case ArgsNone:
	case ArgsDImm:
		arg(in.Rd.String())
		arg(strconv.FormatInt(in.Imm, 10))
	case ArgsDA:
		arg(in.Rd.String())
		arg(in.Ra.String())
	case ArgsD:
		arg(in.Rd.String())
	case ArgsDAB:
		arg(in.Rd.String())
		arg(in.Ra.String())
		if in.HasImm {
			arg(strconv.FormatInt(in.Imm, 10))
		} else {
			arg(in.Rb.String())
		}
	case ArgsDABC:
		arg(in.Rd.String())
		arg(in.Ra.String())
		arg(in.Rb.String())
		arg(in.Rc.String())
	case ArgsDMem:
		arg(in.Rd.String())
		arg(mem(in.Ra, in.Imm))
	case ArgsMemB:
		arg(mem(in.Ra, in.Imm))
		arg(in.Rb.String())
	case ArgsDMemB:
		arg(in.Rd.String())
		arg(mem(in.Ra, in.Imm))
		arg(in.Rb.String())
	case ArgsSV:
		arg(in.Rd.String())
		arg(in.Ra.String())
	case ArgsCondTgt:
		arg(in.Ra.String())
		arg(targetName(p.Sym(in), int(in.Target)))
	case ArgsTgt:
		arg(targetName(p.Sym(in), int(in.Target)))
	case ArgsSrc:
		arg(src())
	case ArgsStr:
		arg(strconv.Quote(p.Sym(in)))
	case ArgsSplit:
		for _, a := range p.Arms(in) {
			t := targetName(a.Sym, a.Target)
			if a.Thick != RegNone {
				arg(a.Thick.String() + " -> " + t)
			} else {
				arg(strconv.FormatInt(a.ThickImm, 10) + " -> " + t)
			}
		}
	}
	return b.String()
}

// DataSeg preloads Words into shared memory starting at Addr before the
// program runs.
type DataSeg struct {
	Addr  int64
	Words []int64
}

// Label names the instruction at PC (len(Instrs) names the end of the
// program).
type Label struct {
	Name string
	PC   int
}

// Program is an assembled TCF program.
type Program struct {
	Name   string
	Instrs []Instr
	// Labels are sorted by name, each name once: the table TCFB stores, so
	// a decoded program is looked up without hashing (Program.Label).
	Labels []Label
	Data   []DataSeg

	// Syms and Splits are the side tables Instr.Aux indexes: the symbol of
	// an instruction (the literal of PRINTS, the label of a control
	// transfer's target) and the arms of a SPLIT.
	Syms   []string
	Splits [][]SplitArm
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Sym returns in's symbol: the literal of PRINTS, or the label a control
// transfer was written against; "" when it has none.
func (p *Program) Sym(in Instr) string {
	if in.Op == SPLIT || in.Aux == 0 {
		return ""
	}
	return p.Syms[in.Aux-1]
}

// Arms returns the arms of a SPLIT, nil for any other instruction. The
// slice is the program's own.
func (p *Program) Arms(in Instr) []SplitArm { return armsOf(p.Splits, in) }

func armsOf(splits [][]SplitArm, in Instr) []SplitArm {
	if in.Op != SPLIT || in.Aux == 0 {
		return nil
	}
	return splits[in.Aux-1]
}

// byName orders labels by name, the order of Program.Labels.
func byName(a, b Label) int { return strings.Compare(a.Name, b.Name) }

// Label returns the PC of the label name, by binary search of Labels.
func (p *Program) Label(name string) (pc int, ok bool) {
	i, ok := slices.BinarySearchFunc(p.Labels, Label{Name: name}, byName)
	if !ok {
		return 0, false
	}
	return p.Labels[i].PC, true
}

// Entry returns the PC of label "main" if present, else 0.
func (p *Program) Entry() int {
	pc, _ := p.Label("main")
	return pc
}

// targetName names the target of a control transfer or SPLIT arm: the
// label it was written against, or the "L<pc>" label the disassembly
// synthesizes for an anonymous one.
func targetName(sym string, target int) string {
	switch {
	case sym != "":
		return sym
	case target < 0:
		return "@" + strconv.Itoa(target)
	}
	return "L" + strconv.Itoa(target)
}

// Disassemble renders the whole program as reassemblable source. Control
// targets that lack a symbolic label get a synthesized "L<pc>" label.
func (p *Program) Disassemble() string {
	return p.render(false)
}

// Listing renders the program with numeric PCs for human consumption; the
// output is not meant to be reassembled.
func (p *Program) Listing() string {
	return p.render(true)
}

func (p *Program) render(withPC bool) string {
	// Labels are in name order, so each PC's list is too.
	byPC := make(map[int][]string)
	for _, l := range p.Labels {
		byPC[l.PC] = append(byPC[l.PC], l.Name)
	}
	// Synthesize labels for anonymous targets so the output reassembles.
	synth := func(sym string, target int) {
		if sym != "" || target < 0 {
			return
		}
		if name := targetName(sym, target); !slices.Contains(byPC[target], name) {
			byPC[target] = append(byPC[target], name)
		}
	}
	for _, in := range p.Instrs {
		switch in.Op.Info().Args {
		case ArgsCondTgt, ArgsTgt:
			synth(p.Sym(in), int(in.Target))
		case ArgsSplit:
			// A SPLIT's own Target (0 unless set) is labelled as a
			// transfer's is: the disassembly goldens carry that label.
			synth("", int(in.Target))
			for _, a := range p.Arms(in) {
				synth(a.Sym, a.Target)
			}
		}
	}
	var b strings.Builder
	for _, d := range p.Data {
		fmt.Fprintf(&b, ".data %d:", d.Addr)
		for _, w := range d.Words {
			fmt.Fprintf(&b, " %d", w)
		}
		b.WriteByte('\n')
	}
	for pc, in := range p.Instrs {
		for _, l := range byPC[pc] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		if withPC {
			fmt.Fprintf(&b, "%4d    %s\n", pc, p.format(in))
		} else {
			fmt.Fprintf(&b, "    %s\n", p.format(in))
		}
	}
	return b.String()
}

// Validate checks structural well-formedness: register classes per operand
// slot, resolved in-range targets, scalar branch conditions (the flow-level
// control rule of Section 2.2), SPLIT arm sanity and labels in name order.
// A valid program is checked without allocating: every condition is tested
// before its message's arguments are boxed.
func (p *Program) Validate() error {
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %s: pc %d: invalid opcode %d", p.Name, pc, in.Op)
		}
		if err := p.validateInstr(pc, in); err != nil {
			return err
		}
	}
	for i, l := range p.Labels {
		if l.PC < 0 || l.PC > len(p.Instrs) {
			return fmt.Errorf("isa: %s: label %q out of range", p.Name, l.Name)
		}
		if i > 0 && p.Labels[i-1].Name >= l.Name {
			if p.Labels[i-1].Name == l.Name {
				return fmt.Errorf("isa: %s: duplicate label %q", p.Name, l.Name)
			}
			return fmt.Errorf("isa: %s: label %q out of name order", p.Name, l.Name)
		}
	}
	for _, d := range p.Data {
		if d.Addr < 0 {
			return fmt.Errorf("isa: %s: negative data address %d", p.Name, d.Addr)
		}
	}
	return nil
}

// errorf reports a malformed instruction at pc.
func (p *Program) errorf(pc int, format string, args ...any) error {
	return fmt.Errorf("isa: %s: pc %d (%s): %s", p.Name, pc, p.Instrs[pc].Op, fmt.Sprintf(format, args...))
}

// checkTarget reports a target outside the program.
func (p *Program) checkTarget(pc, t int) error {
	if t >= 0 && t < len(p.Instrs) {
		return nil
	}
	return p.errorf(pc, "target %d out of range [0,%d)", t, len(p.Instrs))
}

// validateInstr checks the operands of the instruction at pc, whose opcode
// is valid.
func (p *Program) validateInstr(pc int, in *Instr) error {
	if in.Op == SPLIT {
		if int(in.Aux) > len(p.Splits) {
			return p.errorf(pc, "arms index %d out of range [0,%d]", in.Aux, len(p.Splits))
		}
	} else if int(in.Aux) > len(p.Syms) {
		return p.errorf(pc, "symbol index %d out of range [0,%d]", in.Aux, len(p.Syms))
	}
	// Memory address bases may be RegNone for absolute addressing
	// (effective address = Imm).
	base := in.Ra.Valid() || in.Ra == RegNone
	switch in.Op.Info().Args {
	case ArgsNone, ArgsStr:
	case ArgsDImm, ArgsD:
		if !in.Rd.Valid() {
			return p.errorf(pc, "invalid destination %s", in.Rd)
		}
	case ArgsDA:
		if !in.Rd.Valid() {
			return p.errorf(pc, "invalid destination %s", in.Rd)
		}
		if !in.Ra.Valid() {
			return p.errorf(pc, "invalid source %s", in.Ra)
		}
	case ArgsDAB:
		if !in.Rd.Valid() || !in.Ra.Valid() || !in.HasImm && !in.Rb.Valid() {
			return p.errorf(pc, "invalid operands %s, %s, %s", in.Rd, in.Ra, in.Rb)
		}
	case ArgsDABC:
		if !in.Rd.Valid() || !in.Ra.Valid() || !in.Rb.Valid() || !in.Rc.Valid() {
			return p.errorf(pc, "invalid operands")
		}
	case ArgsDMem:
		if !in.Rd.Valid() || !base {
			return p.errorf(pc, "invalid operands %s, %s", in.Rd, in.Ra)
		}
	case ArgsMemB:
		if !base || !in.Rb.Valid() {
			return p.errorf(pc, "invalid operands %s, %s", in.Ra, in.Rb)
		}
	case ArgsDMemB:
		if !in.Rd.Valid() || !base || !in.Rb.Valid() {
			return p.errorf(pc, "invalid operands")
		}
		if !in.Rd.IsVector() {
			return p.errorf(pc, "multiprefix destination %s must be thread-wise", in.Rd)
		}
	case ArgsSV:
		if !in.Rd.IsScalar() {
			return p.errorf(pc, "reduction destination %s must be scalar", in.Rd)
		}
		if !in.Ra.IsVector() {
			return p.errorf(pc, "reduction source %s must be thread-wise", in.Ra)
		}
	case ArgsCondTgt:
		if !in.Ra.IsScalar() {
			return p.errorf(pc, "branch condition %s must be scalar (flow-level control)", in.Ra)
		}
		return p.checkTarget(pc, int(in.Target))
	case ArgsTgt:
		return p.checkTarget(pc, int(in.Target))
	case ArgsSrc:
		switch {
		case !in.HasImm && !in.Ra.Valid():
			return p.errorf(pc, "invalid source %s", in.Ra)
		case !in.HasImm && (in.Op == SETTHICK || in.Op == NUMA) && !in.Ra.IsScalar():
			return p.errorf(pc, "%s source %s must be scalar", in.Op, in.Ra)
		case in.HasImm && in.Op == SETTHICK && in.Imm < 0:
			return p.errorf(pc, "negative thickness %d", in.Imm)
		case in.HasImm && in.Op == NUMA && in.Imm < 1:
			return p.errorf(pc, "NUMA bunch length %d must be >= 1", in.Imm)
		}
	case ArgsSplit:
		arms := p.Arms(*in)
		if len(arms) == 0 {
			return p.errorf(pc, "SPLIT needs at least one arm")
		}
		for i := range arms {
			a := &arms[i]
			if a.Thick != RegNone && !a.Thick.IsScalar() {
				return p.errorf(pc, "SPLIT arm thickness %s must be scalar", a.Thick)
			}
			if a.Thick == RegNone && a.ThickImm < 0 {
				return p.errorf(pc, "negative SPLIT arm thickness %d", a.ThickImm)
			}
			if err := p.checkTarget(pc, a.Target); err != nil {
				return err
			}
		}
	}
	return nil
}
