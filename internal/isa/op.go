// Package isa defines the instruction set of the extended PRAM-NUMA TCF
// machine: a register machine whose instructions execute across the whole
// thickness of a thick control flow (TCF).
//
// Registers come in two classes, mirroring the paper's register economy
// (Section 3.3): thread-wise "vector" registers V0..V31 hold one value per
// implicit thread of the flow, while flow-common "scalar" registers S0..S15
// hold a single value shared by the entire flow. Control transfer is always
// flow-level: a branch condition must be scalar, because the whole flow
// selects exactly one path through a control statement (Section 2.2).
// Thread-dependent choice is expressed through thickness manipulation
// (SETTHICK), the parallel statement (SPLIT/JOIN), or predication (SEL).
//
// A Program is a load image in the shape of the paper's instruction memory:
// every Instr is a fixed-format 24-byte word without pointers, and what
// varies in length — the arms of a SPLIT, the literal of PRINTS, the label a
// control transfer names — lives in the program's side tables (Syms,
// Splits), which Instr.Aux indexes. Builder, Assemble and Decode fill them;
// Encode writes the same TCFB object bytes either way.
package isa

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcodes of the TCF machine.
const (
	NOP Op = iota

	// Data movement.
	LDI // LDI d, imm     : d <- imm (broadcast when d is thread-wise)
	MOV // MOV d, a       : d <- a

	// Binary arithmetic/logic: d <- a op b (or a op imm).
	ADD
	SUB
	MUL
	DIV // division by zero yields 0, as on the simulated hardware trap-free ALU
	MOD // modulo by zero yields 0
	AND
	OR
	XOR
	SHL
	SHR
	MIN
	MAX

	// Unary: d <- op a.
	NEG
	NOT

	// Comparisons producing 0/1: d <- a cmp b (or imm).
	SEQ
	SNE
	SLT
	SLE
	SGT
	SGE

	// Predicated select: d[i] <- c[i] != 0 ? a[i] : b[i].
	// Encoded as Rd, Ra=c, Rb=a, Rc=b.
	SEL

	// Identity sources.
	TID   // TID d   : d[i] <- i (thread index within the flow); scalar d gets 0
	FID   // FID d   : d <- flow id (scalar)
	THICK // THICK d : d <- current thickness (scalar)
	GID   // GID d   : d <- processor-group index executing the flow (scalar)
	PID   // PID d   : d <- processor index executing the flow (scalar)
	NPROC // NPROC d : d <- total number of TCF processors P*Tp (scalar)
	NGRP  // NGRP d  : d <- number of processor groups P (scalar)

	// Shared memory access; effective address = a + Imm (per-thread when a
	// is thread-wise).
	LD // LD d, a+imm  : d <- SM[a+imm]
	ST // ST a+imm, b  : SM[a+imm] <- b

	// Local memory access (the group's local memory block).
	LDL // LDL d, a+imm : d <- LM[a+imm]
	STL // STL a+imm, b : LM[a+imm] <- b

	// Multioperations: all participating threads (across all flows in the
	// step) combine into a shared memory word in one step.
	MADD // MADD a+imm, b : SM[a+imm] <- SM[a+imm] + sum(b[i])
	MAND
	MOR
	MMAX
	MMIN

	// Multiprefixes: like multioperations but each thread also receives the
	// running value before its own contribution, ordered by (flow id,
	// thread index) — the deterministic ordered multiprefix of the paper's
	// prefix(...) primitive.
	MPADD // MPADD d, a+imm, b : d[i] <- prefix; SM[a+imm] accumulates
	MPAND
	MPOR
	MPMAX
	MPMIN

	// Flow-internal reductions to a scalar register.
	RADD // RADD s, v : s <- sum_i v[i]
	RAND
	ROR
	RMAX
	RMIN

	// Flow-level control transfer (conditions must be scalar).
	BEQZ // BEQZ s, target
	BNEZ // BNEZ s, target
	JMP  // JMP target
	CALL // CALL target : push PC+1 on the flow call stack
	RET  // RET         : pop return address

	// Thickness and mode control.
	SETTHICK // SETTHICK s|imm : set flow thickness (PRAM mode), >=0; 0 parks the flow
	NUMA     // NUMA s|imm     : enter NUMA mode with bunch length T (thickness 1/T)
	PRAM     // PRAM           : return to PRAM mode with thickness 1

	// Parallel statement: split the flow into child flows (one per arm) and
	// suspend until all children JOIN.
	SPLIT
	JOIN

	// Global barrier: the flow waits until every live flow reaches a BAR.
	// Lockstep variants execute it in one step; the multi-instruction
	// variant pays real synchronization.
	BAR

	// Diagnostics.
	PRINT  // PRINT a : append a's value(s) to the machine output
	PRINTS // PRINTS "str"

	HALT // terminate the flow

	opCount // sentinel
)

// ArgKind describes how an instruction's operand fields are used.
type ArgKind uint8

const (
	ArgsNone    ArgKind = iota // no operands (NOP, RET, JOIN, BAR, PRAM, HALT)
	ArgsDImm                   // Rd, Imm                  (LDI)
	ArgsDA                     // Rd, Ra                   (MOV, NEG, NOT, identity sources use ArgsD)
	ArgsD                      // Rd                       (TID, FID, ...)
	ArgsDAB                    // Rd, Ra, Rb|Imm           (binary ops)
	ArgsDABC                   // Rd, Ra, Rb, Rc           (SEL)
	ArgsDMem                   // Rd, Ra+Imm               (LD, LDL)
	ArgsMemB                   // Ra+Imm, Rb               (ST, STL, multiops)
	ArgsDMemB                  // Rd, Ra+Imm, Rb           (multiprefixes)
	ArgsSV                     // Sd, Va                   (reductions)
	ArgsCondTgt                // Sa, Target               (BEQZ, BNEZ)
	ArgsTgt                    // Target                   (JMP, CALL)
	ArgsSrc                    // Ra|Imm                   (SETTHICK, NUMA, PRINT)
	ArgsStr                    // Sym                      (PRINTS)
	ArgsSplit                  // Arms                     (SPLIT)
)

// OpInfo holds static metadata about an opcode.
type OpInfo struct {
	Name string
	Args ArgKind
	// MemRef is true for instructions that reference shared memory.
	MemRef bool
	// LocalRef is true for instructions that reference local memory.
	LocalRef bool
	// Control is true for instructions that may change the flow PC
	// non-sequentially or alter flow structure.
	Control bool
}

var opInfos = [opCount]OpInfo{
	NOP:      {Name: "NOP", Args: ArgsNone},
	LDI:      {Name: "LDI", Args: ArgsDImm},
	MOV:      {Name: "MOV", Args: ArgsDA},
	ADD:      {Name: "ADD", Args: ArgsDAB},
	SUB:      {Name: "SUB", Args: ArgsDAB},
	MUL:      {Name: "MUL", Args: ArgsDAB},
	DIV:      {Name: "DIV", Args: ArgsDAB},
	MOD:      {Name: "MOD", Args: ArgsDAB},
	AND:      {Name: "AND", Args: ArgsDAB},
	OR:       {Name: "OR", Args: ArgsDAB},
	XOR:      {Name: "XOR", Args: ArgsDAB},
	SHL:      {Name: "SHL", Args: ArgsDAB},
	SHR:      {Name: "SHR", Args: ArgsDAB},
	MIN:      {Name: "MIN", Args: ArgsDAB},
	MAX:      {Name: "MAX", Args: ArgsDAB},
	NEG:      {Name: "NEG", Args: ArgsDA},
	NOT:      {Name: "NOT", Args: ArgsDA},
	SEQ:      {Name: "SEQ", Args: ArgsDAB},
	SNE:      {Name: "SNE", Args: ArgsDAB},
	SLT:      {Name: "SLT", Args: ArgsDAB},
	SLE:      {Name: "SLE", Args: ArgsDAB},
	SGT:      {Name: "SGT", Args: ArgsDAB},
	SGE:      {Name: "SGE", Args: ArgsDAB},
	SEL:      {Name: "SEL", Args: ArgsDABC},
	TID:      {Name: "TID", Args: ArgsD},
	FID:      {Name: "FID", Args: ArgsD},
	THICK:    {Name: "THICK", Args: ArgsD},
	GID:      {Name: "GID", Args: ArgsD},
	PID:      {Name: "PID", Args: ArgsD},
	NPROC:    {Name: "NPROC", Args: ArgsD},
	NGRP:     {Name: "NGRP", Args: ArgsD},
	LD:       {Name: "LD", Args: ArgsDMem, MemRef: true},
	ST:       {Name: "ST", Args: ArgsMemB, MemRef: true},
	LDL:      {Name: "LDL", Args: ArgsDMem, LocalRef: true},
	STL:      {Name: "STL", Args: ArgsMemB, LocalRef: true},
	MADD:     {Name: "MADD", Args: ArgsMemB, MemRef: true},
	MAND:     {Name: "MAND", Args: ArgsMemB, MemRef: true},
	MOR:      {Name: "MOR", Args: ArgsMemB, MemRef: true},
	MMAX:     {Name: "MMAX", Args: ArgsMemB, MemRef: true},
	MMIN:     {Name: "MMIN", Args: ArgsMemB, MemRef: true},
	MPADD:    {Name: "MPADD", Args: ArgsDMemB, MemRef: true},
	MPAND:    {Name: "MPAND", Args: ArgsDMemB, MemRef: true},
	MPOR:     {Name: "MPOR", Args: ArgsDMemB, MemRef: true},
	MPMAX:    {Name: "MPMAX", Args: ArgsDMemB, MemRef: true},
	MPMIN:    {Name: "MPMIN", Args: ArgsDMemB, MemRef: true},
	RADD:     {Name: "RADD", Args: ArgsSV},
	RAND:     {Name: "RAND", Args: ArgsSV},
	ROR:      {Name: "ROR", Args: ArgsSV},
	RMAX:     {Name: "RMAX", Args: ArgsSV},
	RMIN:     {Name: "RMIN", Args: ArgsSV},
	BEQZ:     {Name: "BEQZ", Args: ArgsCondTgt, Control: true},
	BNEZ:     {Name: "BNEZ", Args: ArgsCondTgt, Control: true},
	JMP:      {Name: "JMP", Args: ArgsTgt, Control: true},
	CALL:     {Name: "CALL", Args: ArgsTgt, Control: true},
	RET:      {Name: "RET", Args: ArgsNone, Control: true},
	SETTHICK: {Name: "SETTHICK", Args: ArgsSrc, Control: true},
	NUMA:     {Name: "NUMA", Args: ArgsSrc, Control: true},
	PRAM:     {Name: "PRAM", Args: ArgsNone, Control: true},
	SPLIT:    {Name: "SPLIT", Args: ArgsSplit, Control: true},
	JOIN:     {Name: "JOIN", Args: ArgsNone, Control: true},
	BAR:      {Name: "BAR", Args: ArgsNone, Control: true},
	PRINT:    {Name: "PRINT", Args: ArgsSrc},
	PRINTS:   {Name: "PRINTS", Args: ArgsStr},
	HALT:     {Name: "HALT", Args: ArgsNone, Control: true},
}

// Info returns the static metadata for op.
func (op Op) Info() OpInfo {
	if op >= opCount {
		return OpInfo{Name: fmt.Sprintf("OP(%d)", op)}
	}
	return opInfos[op]
}

// String returns the assembler mnemonic of op.
func (op Op) String() string { return op.Info().Name }

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < opCount }

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// IsMultiop reports whether op is a combining multioperation (no per-thread
// return value).
func (op Op) IsMultiop() bool { return op >= MADD && op <= MMIN }

// IsMultiprefix reports whether op is an ordered multiprefix.
func (op Op) IsMultiprefix() bool { return op >= MPADD && op <= MPMIN }

// IsReduction reports whether op is a flow-internal reduction.
func (op Op) IsReduction() bool { return op >= RADD && op <= RMIN }

// IsBinaryALU reports whether op is a plain three-operand ALU operation.
func (op Op) IsBinaryALU() bool {
	return (op >= ADD && op <= MAX) || (op >= SEQ && op <= SGE)
}

// CombineKind returns the combining operator underlying a multioperation,
// multiprefix or reduction, expressed as the equivalent binary ALU opcode
// (ADD, AND, OR, MAX or MIN). It panics for other opcodes.
func (op Op) CombineKind() Op {
	switch op {
	case MADD, MPADD, RADD:
		return ADD
	case MAND, MPAND, RAND:
		return AND
	case MOR, MPOR, ROR:
		return OR
	case MMAX, MPMAX, RMAX:
		return MAX
	case MMIN, MPMIN, RMIN:
		return MIN
	}
	panic("isa: CombineKind on non-combining opcode " + op.String())
}

// opsByName maps mnemonics to opcodes for the assembler.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for op := Op(0); op < opCount; op++ {
		m[opInfos[op].Name] = op
	}
	return m
}()

// OpByName looks up an opcode by its assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}
