// Package tcf implements the Thick Control Flow abstraction: a control flow
// with a program counter, a flow-level call stack, flow-common scalar state,
// thread-wise vector state, and a dynamically varying thickness (Section
// 2.2). Threads are only implicit — they have no program counters; the flow
// does.
package tcf

import (
	"fmt"

	"tcfpram/internal/isa"
)

// Mode is the execution mode of a flow in the extended PRAM-NUMA model.
type Mode int

const (
	// PRAM mode: per step the flow executes one TCF instruction consisting
	// of Thickness identical data-parallel operations.
	PRAM Mode = iota
	// NUMA mode: thickness 1/T — per step the flow executes up to Bunch
	// consecutive instructions with a single implicit thread, against the
	// group's local memory.
	NUMA
)

func (m Mode) String() string {
	if m == NUMA {
		return "NUMA"
	}
	return "PRAM"
}

// State tracks the flow lifecycle.
type State int

const (
	// Ready flows execute in the next step.
	Ready State = iota
	// Waiting flows are split parents suspended until all children join.
	Waiting
	// Blocked flows wait at a global barrier.
	Blocked
	// Done flows have halted (HALT or JOIN).
	Done
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Waiting:
		return "waiting"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Flow is one thick control flow.
type Flow struct {
	ID int
	PC int

	Mode      Mode
	Thickness int // PRAM-mode thickness; >= 0 (0 = zero data-parallel lanes)
	Bunch     int // NUMA-mode consecutive instructions per step

	State State

	// Register state. Scalar registers are the flow-common registers; the
	// thread-wise bank is allocated lazily per register and sized to the
	// current thickness. vectors is the table of bank headers, attached on the
	// first use of a thread-wise register and only as long as the highest
	// register used asks for (a register beyond it holds no bank): a flow that
	// computes on its common registers alone never has one. A header may
	// present an affine form instead of its bank (affine.go). Regs is where the
	// table, the banks and the call stack come from and go back to (nil: the
	// allocator); it is the owning machine's, and no part of the flow's
	// architectural state.
	scalars [isa.NumSRegs]int64
	vectors [][]int64
	Regs    *RegArena

	// Flow-level call stack (Section 2.2: a call stack is related to each
	// parallel control flow, not to each thread): return addresses, innermost
	// last.
	CallStack []int64

	// Split/join bookkeeping.
	Parent       *Flow
	LiveChildren int
	ResumePC     int // parent's continuation after the split

	// Placement: global index of the TCF processor hosting the flow.
	Home int

	// Fragment support (Section 3.3: the OS splits overly thick flows into
	// balanced fragments allocated to different TCF processors).
	//
	// IsFragment marks a machine-made fragment: the window of lanes
	// [TidOffset, TidOffset+Thickness) of its container, Parent, whose
	// thickness is the one the THICK instruction reports. For ordinary flows
	// TidOffset is 0.
	IsFragment bool
	TidOffset  int

	// Balanced-variant progress: number of thread slices of the current
	// instruction already executed (0 = instruction not started).
	Offset int

	// InstrFetches counts instruction-memory fetches performed on behalf
	// of this flow (Table 1's "fetches per TCF").
	InstrFetches int64

	// RegWordsPeak tracks the maximum register-file words ever held
	// (scalars + allocated vector words) for Table 1's registers/thread.
	RegWordsPeak int64
}

// New returns a Ready PRAM-mode flow with the given id, entry PC and
// thickness.
func New(id, pc, thickness int) *Flow {
	f := new(Flow)
	f.Init(id, pc, thickness)
	return f
}

// Init makes f, a zero Flow, what New returns, in place: for an owner that
// allocates its flows in chunks and hands every one out zeroed, so that a flow
// is written once.
func (f *Flow) Init(id, pc, thickness int) {
	if thickness < 0 {
		panic("tcf: negative thickness")
	}
	f.ID, f.PC = id, pc
	f.Thickness = thickness
	f.Bunch, f.ResumePC = 1, -1
	f.RegWordsPeak = isa.NumSRegs
}

// Lanes returns the number of data-parallel lanes an instruction of this
// flow executes: Thickness in PRAM mode, 1 in NUMA mode.
func (f *Flow) Lanes() int {
	if f.Mode == NUMA {
		return 1
	}
	return f.Thickness
}

// Scalar returns the value of scalar register r.
func (f *Flow) Scalar(r isa.Reg) int64 {
	if !r.IsScalar() {
		panic(fmt.Sprintf("tcf: Scalar(%s) on non-scalar register", r))
	}
	return f.scalars[r.Index()]
}

// SetScalar stores v into scalar register r.
func (f *Flow) SetScalar(r isa.Reg, v int64) {
	if !r.IsScalar() {
		panic(fmt.Sprintf("tcf: SetScalar(%s) on non-scalar register", r))
	}
	f.scalars[r.Index()] = v
}

// Scalars returns a copy of the scalar register bank (for split inheritance
// and inspection).
func (f *Flow) Scalars() [isa.NumSRegs]int64 { return f.scalars }

// SetScalars replaces the scalar bank (split inheritance: the child flow
// receives the parent's R common registers — the O(R) flow-branch cost of
// Table 1).
func (f *Flow) SetScalars(s [isa.NumSRegs]int64) { f.scalars = s }

// Vector returns the thread-wise bank of register r sized to the current
// lane count, allocating (zeroed) on first use and materialising an affine
// form (affine.go).
func (f *Flow) Vector(r isa.Reg) []int64 {
	if int(r) < len(f.vectors) {
		if v, lanes := f.vectors[r], f.Lanes(); len(v) >= lanes {
			return v[:lanes]
		}
	}
	return f.growVector(r)
}

// growVector is Vector where the bank is missing, shorter than the lane
// count or veiled by an affine form, kept apart so that the common path,
// which every lane kernel takes per operand, stays a bounds check and a
// reslice.
func (f *Flow) growVector(r isa.Reg) []int64 {
	if !r.IsVector() {
		panic(fmt.Sprintf("tcf: Vector(%s) on non-vector register", r))
	}
	lanes := f.Lanes()
	if lanes == 0 {
		return nil // no lanes: nothing to allocate
	}
	if _, _, _, ok := f.form(int(r)); ok {
		f.materialise(int(r))
		if v := f.vectors[r]; len(v) >= lanes {
			return v[:lanes]
		}
	}
	f.growBank(int(r), lanes, true)
	return f.vectors[r]
}

// growBank extends register r's bank to n >= 1 lanes, which is more than it
// has, zero beyond the lanes it had unless zero is false and r holds no bank
// (RegArena.grow). Banks never shrink, so the words the flow holds are the
// most it ever held, and the peak moves by what the bank gained.
func (f *Flow) growBank(r, n int, zero bool) {
	want := r + 1
	if n >= minBank {
		// The arena notes where a bank it lends is held: its header may not
		// move afterwards, and a whole table never does.
		want = isa.NumVRegs
	}
	if len(f.vectors) < want {
		f.Regs.attach(&f.vectors, want)
	}
	// A register in affine form grows under its form: the bank is extended
	// behind the lanes the form covers, and the header presents it again.
	form := affineHeader(f.vectors[r])
	f.vectors[r] = unveil(f.vectors[r])
	f.RegWordsPeak += int64(n - len(f.vectors[r]))
	f.Regs.grow(&f.vectors[r], n, zero)
	if form {
		f.vectors[r] = veil(f.vectors[r])
	}
}

// bank returns register r's bank at its allocated length, hidden lanes
// included; nil if it has none. The lanes an affine form covers hold no
// values in it.
func (f *Flow) bank(r int) []int64 {
	if r < len(f.vectors) {
		return unveil(f.vectors[r])
	}
	return nil
}

// VectorAllocated reports whether register r has lanes allocated (used by
// register accounting without forcing allocation).
func (f *Flow) VectorAllocated(r isa.Reg) bool {
	return r.IsVector() && f.bank(int(r)) != nil
}

// Lane reads lane i of register r, treating scalar registers as broadcast
// (every lane observes the common value) — the paper's improved utilization
// of data-parallel execution: identical values need no replication. Vector
// reads beyond the lane count (possible only for flow-level instructions on
// thin flows) yield zero.
func (f *Flow) Lane(r isa.Reg, i int) int64 {
	if r.IsScalar() {
		return f.scalars[r.Index()]
	}
	return f.vectorLane(r, i)
}

// vectorLane is Lane of a thread-wise register, kept apart so that Lane, which
// the flow-common kernels call per operand, is a check and a load.
func (f *Flow) vectorLane(r isa.Reg, i int) int64 {
	if base, stride, n, ok := f.form(int(r)); ok {
		switch {
		case i >= f.Lanes():
			return 0
		case i < n:
			return base + stride*int64(i)
		}
		return f.bank(int(r))[i]
	}
	v := f.Vector(r)
	if i >= len(v) {
		return 0
	}
	return v[i]
}

// SetLane writes lane i of register r. Writing a scalar register from lane
// context stores the common value (last writer within the deterministic lane
// order wins; the engine restricts this to single-lane or reduction cases).
func (f *Flow) SetLane(r isa.Reg, i int, v int64) {
	if r.IsScalar() {
		f.scalars[r.Index()] = v
		return
	}
	f.Vector(r)[i] = v
}

// SetThickness switches the flow to PRAM mode with the given thickness. An
// allocated vector register shorter than t is extended with zero lanes; one
// longer than t keeps every lane it has, the lanes beyond t hidden until a
// later thickness uncovers them with the values they held. Hidden lanes are
// architectural state: the snapshot and the state digest carry them.
func (f *Flow) SetThickness(t int) error {
	if t < 0 {
		return fmt.Errorf("tcf: flow %d: negative thickness %d", f.ID, t)
	}
	f.Mode = PRAM
	f.Thickness = t
	for r := 0; r < len(f.vectors); r++ {
		if v := f.bank(r); v != nil && len(v) < t {
			f.growBank(r, t, true)
		}
	}
	return nil
}

// EnterNUMA switches the flow to NUMA mode with bunch length b (thickness
// 1/b in the paper's notation).
func (f *Flow) EnterNUMA(b int) error {
	if b < 1 {
		return fmt.Errorf("tcf: flow %d: NUMA bunch length %d must be >= 1", f.ID, b)
	}
	f.Mode = NUMA
	f.Bunch = b
	return nil
}

// LeavePRAM returns the flow to PRAM mode with thickness 1 (the PRAM
// instruction).
func (f *Flow) LeavePRAM() {
	f.Mode = PRAM
	f.Thickness = 1
}

// Call pushes the return address onto the flow-level call stack.
func (f *Flow) Call(returnPC int) {
	n := len(f.CallStack)
	f.Regs.grow(&f.CallStack, n+1, true)
	f.CallStack[n] = int64(returnPC)
}

// Ret pops the return address; it reports false on empty stack (treated as
// flow termination by the engine).
func (f *Flow) Ret() (int, bool) {
	if len(f.CallStack) == 0 {
		return 0, false
	}
	pc := f.CallStack[len(f.CallStack)-1]
	f.CallStack = f.CallStack[:len(f.CallStack)-1]
	return int(pc), true
}

// StateDigest returns a 64-bit mixture of the flow's complete architectural
// state: control (PC, mode, lifecycle, call stack), shape (thickness, bunch,
// fragment geometry), split bookkeeping and every register value. Two calls
// return the same digest exactly when the flow is in the same architectural
// state, up to 64-bit mixing collisions. The machine watchdog compares
// digests across steps to prove a state cycle — the definition of livelock —
// without ever misjudging computation that only evolves registers.
func (f *Flow) StateDigest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(uint64(f.ID))
	mix(uint64(f.PC))
	mix(uint64(f.Mode))
	mix(uint64(f.Thickness))
	mix(uint64(f.Bunch))
	mix(uint64(f.State))
	mix(uint64(int64(f.LiveChildren)))
	mix(uint64(int64(f.ResumePC)))
	mix(uint64(f.Offset))
	mix(uint64(f.TidOffset))
	if f.IsFragment {
		mix(1)
	}
	for _, v := range f.scalars {
		mix(uint64(v))
	}
	for r := 0; r < isa.NumVRegs; r++ {
		// The lanes an affine form covers are computed (affine.go).
		base, stride, n, _ := f.form(r)
		for i := range n {
			mix(uint64(base + stride*int64(i)))
		}
		bank := f.bank(r)
		for _, v := range bank[n:] {
			mix(uint64(v))
		}
		mix(uint64(len(bank)))
	}
	for _, pc := range f.CallStack {
		mix(uint64(pc))
	}
	mix(uint64(len(f.CallStack)))
	return h
}

// RegWords returns the current register-file words held by the flow.
func (f *Flow) RegWords() int64 {
	n := int64(isa.NumSRegs)
	for r := range f.vectors {
		n += int64(len(f.bank(r)))
	}
	return n
}

func (f *Flow) String() string {
	mode := f.Mode.String()
	if f.Mode == NUMA {
		mode = fmt.Sprintf("NUMA/%d", f.Bunch)
	}
	return fmt.Sprintf("flow %d @%d thick=%d %s %s", f.ID, f.PC, f.Thickness, mode, f.State)
}
