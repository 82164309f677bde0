package isa

import (
	"fmt"
	"slices"
)

// Builder assembles a Program instruction by instruction, with forward label
// references resolved at Build time.
type Builder struct {
	name   string
	instrs []Instr
	labels []Label // in definition order until Build sorts them by name
	data   []DataSeg
	// syms and splits are the side tables of the program (Program.Syms,
	// Program.Splits). A label reference is the label in them and the
	// target -1, until Build resolves it.
	syms   []string
	splits [][]SplitArm
	errs   []error
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// NewBuilderIn is NewBuilder emitting into buf, which it overwrites from
// the start and outgrows by reallocating: a caller that keeps a buffer
// between programs (and copies each program's instructions out) builds
// without growing anything.
func NewBuilderIn(name string, buf []Instr) *Builder {
	b := NewBuilder(name)
	b.instrs = buf[:0]
	return b
}

// Instrs returns the instructions emitted so far. The slice is the
// builder's own: a caller may patch operands in place before Build.
func (b *Builder) Instrs() []Instr { return b.instrs }

// Arms returns the arms of an emitted SPLIT, which a caller may patch in
// place before Build, as it may the instructions.
func (b *Builder) Arms(in Instr) []SplitArm { return armsOf(b.splits, in) }

// sym adds s to the symbol table and returns its Instr.Aux; "" is none.
func (b *Builder) sym(s string) uint32 {
	if s == "" {
		return 0
	}
	b.syms = append(b.syms, s)
	return uint32(len(b.syms))
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("isa: builder %s: %s", b.name, fmt.Sprintf(format, args...)))
}

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.instrs) }

// Label defines name at the current PC. A name defined twice fails Build.
func (b *Builder) Label(name string) *Builder {
	b.labels = append(b.labels, Label{Name: name, PC: len(b.instrs)})
	return b
}

// Data preloads words into shared memory at addr.
func (b *Builder) Data(addr int64, words ...int64) *Builder {
	b.data = append(b.data, DataSeg{Addr: addr, Words: words})
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in Instr) *Builder {
	b.instrs = append(b.instrs, in)
	return b
}

// Op emits a zero-operand instruction (NOP, RET, JOIN, BAR, PRAM, HALT).
func (b *Builder) Op(op Op) *Builder { return b.Emit(Instr{Op: op}) }

// Ldi emits LDI d, imm.
func (b *Builder) Ldi(d Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: LDI, Rd: d, Imm: imm, HasImm: true})
}

// Mov emits MOV d, a.
func (b *Builder) Mov(d, a Reg) *Builder { return b.Emit(Instr{Op: MOV, Rd: d, Ra: a}) }

// Unary emits a unary operation (NEG, NOT).
func (b *Builder) Unary(op Op, d, a Reg) *Builder { return b.Emit(Instr{Op: op, Rd: d, Ra: a}) }

// ALU emits a three-register ALU operation d <- a op rb.
func (b *Builder) ALU(op Op, d, a, rb Reg) *Builder {
	return b.Emit(Instr{Op: op, Rd: d, Ra: a, Rb: rb})
}

// ALUI emits an ALU operation with an immediate second source: d <- a op imm.
func (b *Builder) ALUI(op Op, d, a Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: op, Rd: d, Ra: a, Imm: imm, HasImm: true})
}

// Sel emits SEL d, c, x, y.
func (b *Builder) Sel(d, c, x, y Reg) *Builder {
	return b.Emit(Instr{Op: SEL, Rd: d, Ra: c, Rb: x, Rc: y})
}

// Id emits an identity-source instruction (TID, FID, THICK, GID, PID, NPROC,
// NGRP) into d.
func (b *Builder) Id(op Op, d Reg) *Builder { return b.Emit(Instr{Op: op, Rd: d}) }

// Ld emits LD d, a+imm (shared memory load).
func (b *Builder) Ld(d, a Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: LD, Rd: d, Ra: a, Imm: imm})
}

// St emits ST a+imm, v (shared memory store).
func (b *Builder) St(a Reg, imm int64, v Reg) *Builder {
	return b.Emit(Instr{Op: ST, Ra: a, Imm: imm, Rb: v})
}

// Ldl emits LDL d, a+imm (local memory load).
func (b *Builder) Ldl(d, a Reg, imm int64) *Builder {
	return b.Emit(Instr{Op: LDL, Rd: d, Ra: a, Imm: imm})
}

// Stl emits STL a+imm, v (local memory store).
func (b *Builder) Stl(a Reg, imm int64, v Reg) *Builder {
	return b.Emit(Instr{Op: STL, Ra: a, Imm: imm, Rb: v})
}

// Multi emits a multioperation op a+imm, v.
func (b *Builder) Multi(op Op, a Reg, imm int64, v Reg) *Builder {
	if !op.IsMultiop() {
		b.errf("%s is not a multioperation", op)
	}
	return b.Emit(Instr{Op: op, Ra: a, Imm: imm, Rb: v})
}

// Prefix emits a multiprefix op d, a+imm, v.
func (b *Builder) Prefix(op Op, d, a Reg, imm int64, v Reg) *Builder {
	if !op.IsMultiprefix() {
		b.errf("%s is not a multiprefix", op)
	}
	return b.Emit(Instr{Op: op, Rd: d, Ra: a, Imm: imm, Rb: v})
}

// Reduce emits a reduction op s, v.
func (b *Builder) Reduce(op Op, s, v Reg) *Builder {
	if !op.IsReduction() {
		b.errf("%s is not a reduction", op)
	}
	return b.Emit(Instr{Op: op, Rd: s, Ra: v})
}

// Branch emits BEQZ/BNEZ cond, label.
func (b *Builder) Branch(op Op, cond Reg, label string) *Builder {
	return b.Emit(Instr{Op: op, Ra: cond, Aux: b.sym(label), Target: -1})
}

// Jmp emits JMP label.
func (b *Builder) Jmp(label string) *Builder {
	return b.Emit(Instr{Op: JMP, Aux: b.sym(label), Target: -1})
}

// Call emits CALL label.
func (b *Builder) Call(label string) *Builder {
	return b.Emit(Instr{Op: CALL, Aux: b.sym(label), Target: -1})
}

// SetThick emits SETTHICK s.
func (b *Builder) SetThick(s Reg) *Builder { return b.Emit(Instr{Op: SETTHICK, Ra: s}) }

// SetThickImm emits SETTHICK imm.
func (b *Builder) SetThickImm(t int64) *Builder {
	return b.Emit(Instr{Op: SETTHICK, Imm: t, HasImm: true})
}

// Numa emits NUMA s (enter NUMA mode, bunch length from scalar s).
func (b *Builder) Numa(s Reg) *Builder { return b.Emit(Instr{Op: NUMA, Ra: s}) }

// NumaImm emits NUMA imm.
func (b *Builder) NumaImm(t int64) *Builder {
	return b.Emit(Instr{Op: NUMA, Imm: t, HasImm: true})
}

// Arm describes a SPLIT arm for Builder.Split.
type Arm struct {
	Thick    Reg   // scalar register, or RegNone to use ThickImm
	ThickImm int64 // immediate thickness when Thick == RegNone
	Label    string
}

// ArmImm builds an immediate-thickness Arm.
func ArmImm(t int64, label string) Arm { return Arm{Thick: RegNone, ThickImm: t, Label: label} }

// ArmReg builds a register-thickness Arm.
func ArmReg(s Reg, label string) Arm { return Arm{Thick: s, Label: label} }

// Split emits a SPLIT with the given arms.
func (b *Builder) Split(arms ...Arm) *Builder {
	in := Instr{Op: SPLIT}
	if len(arms) > 0 {
		sa := make([]SplitArm, len(arms))
		for i, a := range arms {
			sa[i] = SplitArm{Thick: a.Thick, ThickImm: a.ThickImm, Target: -1, Sym: a.Label}
		}
		b.splits = append(b.splits, sa)
		in.Aux = uint32(len(b.splits))
	}
	return b.Emit(in)
}

// Print emits PRINT a.
func (b *Builder) Print(a Reg) *Builder { return b.Emit(Instr{Op: PRINT, Ra: a}) }

// PrintImm emits PRINT imm.
func (b *Builder) PrintImm(v int64) *Builder {
	return b.Emit(Instr{Op: PRINT, Imm: v, HasImm: true})
}

// Prints emits PRINTS "s".
func (b *Builder) Prints(s string) *Builder { return b.Emit(Instr{Op: PRINTS, Aux: b.sym(s)}) }

// Halt emits HALT.
func (b *Builder) Halt() *Builder { return b.Op(HALT) }

// Build resolves labels and returns the validated program, whose Labels
// are the builder's, sorted by name.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	slices.SortFunc(b.labels, byName)
	p := &Program{Name: b.name, Instrs: b.instrs, Labels: b.labels, Data: b.data, Syms: b.syms, Splits: b.splits}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		switch in.Op.Info().Args {
		case ArgsTgt, ArgsCondTgt:
			if in.Target == -1 {
				t, ok := p.Label(p.Sym(*in))
				if !ok {
					return nil, fmt.Errorf("isa: builder %s: undefined label %q at pc %d", b.name, p.Sym(*in), pc)
				}
				in.Target = int32(t)
			}
		case ArgsSplit:
			arms := p.Arms(*in)
			for i := range arms {
				if arms[i].Target == -1 {
					t, ok := p.Label(arms[i].Sym)
					if !ok {
						return nil, fmt.Errorf("isa: builder %s: undefined SPLIT label %q at pc %d", b.name, arms[i].Sym, pc)
					}
					arms[i].Target = t
				}
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for tests and fixed workloads.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
