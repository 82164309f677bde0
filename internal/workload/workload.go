// Package workload generates the paper's Section 4 kernels as machine
// programs, in the programming style each variant requires: TCF thickness
// statements for the extended model, thread loops/guards for the fixed
// thread set of PRAM-NUMA/ESM machines, fork rounds for the XMT-style
// multi-instruction model, and predicated strip-mining for the vector/SIMD
// reduction. Every workload carries a checker that verifies the machine's
// final memory/output state against a sequential reference.
package workload

import (
	"fmt"

	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
)

// Standard data-segment base addresses. The spacing bounds workload sizes
// to MaxSize elements per array (the default machine has 64Ki shared words).
const (
	BaseA   = 10000
	BaseB   = 24000
	BaseC   = 38000
	BaseAux = 500
	MaxSize = 8192
)

func checkSize(size int) {
	if size < 1 || size > MaxSize {
		panic(fmt.Sprintf("workload: size %d out of range [1,%d]", size, MaxSize))
	}
}

// Workload couples a program with its verification.
type Workload struct {
	Name    string
	Program *isa.Program
	// Check verifies the post-run machine state.
	Check func(m *machine.Machine) error
}

// inputs deterministically generates the two input arrays.
func inputs(size int) (a, b []int64) {
	a = make([]int64, size)
	b = make([]int64, size)
	for i := 0; i < size; i++ {
		a[i] = int64(i*7%101 + 1)
		b[i] = int64(i*13%89 + 2)
	}
	return a, b
}

func checkRange(m *machine.Machine, base int64, want []int64, what string) error {
	got := m.Shared().Snapshot(base, len(want))
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: word %d = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// Style names the programming convention used to express a kernel.
type Style int

const (
	// StyleTCF uses the thickness statement of the extended model.
	StyleTCF Style = iota
	// StyleThread uses the fixed-thread loop/guard convention of
	// PRAM-NUMA/ESM machines (thread id = flow id).
	StyleThread
	// StyleSIMD uses predicated strip-mining on a fixed-width vector flow.
	StyleSIMD
	// StyleFork uses XMT-style fork/join rounds (SPLIT/JOIN).
	StyleFork
)

func (s Style) String() string {
	switch s {
	case StyleTCF:
		return "tcf"
	case StyleThread:
		return "thread"
	case StyleSIMD:
		return "simd"
	case StyleFork:
		return "fork"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// VectorAdd builds c = a + b over size elements (Section 4's opening
// example). nthreads is the machine's thread count for StyleThread; width is
// the vector width for StyleSIMD.
func VectorAdd(style Style, size, nthreads, width int) Workload {
	checkSize(size)
	a, b := inputs(size)
	want := make([]int64, size)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	bld := isa.NewBuilder(fmt.Sprintf("vecadd-%s-%d", style, size))
	bld.Data(BaseA, a...).Data(BaseB, b...)
	bld.Label("main")
	switch style {
	case StyleTCF:
		// #size; c. = a. + b.
		bld.Ldi(isa.S(0), int64(size)).SetThick(isa.S(0))
		bld.Id(isa.TID, isa.V(0))
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Ld(isa.V(2), isa.V(0), BaseB)
		bld.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
		bld.St(isa.V(0), BaseC, isa.V(3))
		bld.Halt()
	case StyleThread:
		// for (i = thread_id; i < size; i += number_of_threads) …
		bld.Id(isa.FID, isa.S(0))
		bld.Mov(isa.S(2), isa.S(0))
		bld.Label("loop")
		bld.ALUI(isa.SLT, isa.S(3), isa.S(2), int64(size))
		bld.Branch(isa.BEQZ, isa.S(3), "done")
		bld.Ld(isa.S(4), isa.S(2), BaseA)
		bld.Ld(isa.S(5), isa.S(2), BaseB)
		bld.ALU(isa.ADD, isa.S(6), isa.S(4), isa.S(5))
		bld.St(isa.S(2), BaseC, isa.S(6))
		bld.ALUI(isa.ADD, isa.S(2), isa.S(2), int64(nthreads))
		bld.Jmp("loop")
		bld.Label("done").Halt()
	case StyleSIMD:
		// Strip-mined predicated loop over chunks of the fixed width.
		bld.Ldi(isa.S(0), 0) // base offset
		bld.Label("loop")
		bld.ALUI(isa.SLT, isa.S(2), isa.S(0), int64(size))
		bld.Branch(isa.BEQZ, isa.S(2), "done")
		bld.Id(isa.TID, isa.V(0))
		bld.ALU(isa.ADD, isa.V(0), isa.V(0), isa.S(0))
		bld.ALUI(isa.SLT, isa.V(4), isa.V(0), int64(size))
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Ld(isa.V(2), isa.V(0), BaseB)
		bld.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
		bld.Ld(isa.V(5), isa.V(0), BaseC)
		bld.Sel(isa.V(3), isa.V(4), isa.V(3), isa.V(5))
		bld.St(isa.V(0), BaseC, isa.V(3))
		bld.ALUI(isa.ADD, isa.S(0), isa.S(0), int64(width))
		bld.Jmp("loop")
		bld.Label("done").Halt()
	case StyleFork:
		// fork (_thread_id = 0; _thread_id < size) c[..] = a[..]+b[..]
		bld.Split(isa.ArmImm(int64(size), "body"))
		bld.Halt()
		bld.Label("body")
		bld.Id(isa.TID, isa.V(0))
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Ld(isa.V(2), isa.V(0), BaseB)
		bld.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
		bld.St(isa.V(0), BaseC, isa.V(3))
		bld.Op(isa.JOIN)
	}
	p := bld.MustBuild()
	return Workload{
		Name:    p.Name,
		Program: p,
		Check: func(m *machine.Machine) error {
			return checkRange(m, BaseC, want, "vecadd")
		},
	}
}

// lowTLPExpected evaluates the sequential chain x -> 3x+1 n times from 1.
func lowTLPExpected(n int) int64 {
	x := int64(1)
	for i := 0; i < n; i++ {
		x = x*3 + 1
	}
	return x
}

// LowTLP builds a purely sequential dependent chain of length n. With
// numaBunch > 1 the flow declares NUMA execution (#1/T), recovering the
// utilization that PRAM-mode thickness-1 execution wastes (Figure 2 /
// Section 4's low-parallelism case). numaBunch = 0 stays in PRAM mode.
func LowTLP(n, numaBunch int) Workload {
	bld := isa.NewBuilder(fmt.Sprintf("lowtlp-%d-b%d", n, numaBunch))
	bld.Label("main")
	if numaBunch > 1 {
		bld.NumaImm(int64(numaBunch))
	}
	bld.Ldi(isa.S(0), 1)
	bld.Ldi(isa.S(1), 0)
	bld.Label("loop")
	bld.ALUI(isa.MUL, isa.S(0), isa.S(0), 3)
	bld.ALUI(isa.ADD, isa.S(0), isa.S(0), 1)
	bld.ALUI(isa.ADD, isa.S(1), isa.S(1), 1)
	bld.ALUI(isa.SLT, isa.S(2), isa.S(1), int64(n))
	bld.Branch(isa.BNEZ, isa.S(2), "loop")
	if numaBunch > 1 {
		bld.Op(isa.PRAM)
	}
	want := lowTLPExpected(n)
	bld.Ldi(isa.S(3), 9000). // result address
					St(isa.S(3), 0, isa.S(0))
	bld.Halt()
	return Workload{
		Name:    fmt.Sprintf("lowtlp-%d-b%d", n, numaBunch),
		Program: bld.MustBuild(),
		Check: func(m *machine.Machine) error {
			if got := m.Shared().Peek(9000); got != want {
				return fmt.Errorf("lowtlp: got %d, want %d", got, want)
			}
			return nil
		},
	}
}

// ConditionalHalves builds the two-way conditional of Section 4: the lower
// half of c receives a+b, the upper half is cleared to zero.
func ConditionalHalves(style Style, size int) Workload {
	checkSize(size)
	a, b := inputs(size)
	half := size / 2
	want := make([]int64, size)
	for i := 0; i < half; i++ {
		want[i] = a[i] + b[i]
	}
	bld := isa.NewBuilder(fmt.Sprintf("cond-%s-%d", style, size))
	bld.Data(BaseA, a...).Data(BaseB, b...)
	// Poison c so clearing is observable.
	poison := make([]int64, size)
	for i := range poison {
		poison[i] = -1
	}
	bld.Data(BaseC, poison...)
	bld.Label("main")
	switch style {
	case StyleTCF:
		// parallel { #size/2: c.=a.+b.;  #size/2: c.[#+id]=0; }
		bld.Split(isa.ArmImm(int64(half), "lower"), isa.ArmImm(int64(size-half), "upper"))
		bld.Halt()
		bld.Label("lower")
		bld.Id(isa.TID, isa.V(0))
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Ld(isa.V(2), isa.V(0), BaseB)
		bld.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
		bld.St(isa.V(0), BaseC, isa.V(3))
		bld.Op(isa.JOIN)
		bld.Label("upper")
		bld.Id(isa.TID, isa.V(0))
		bld.ALUI(isa.ADD, isa.V(0), isa.V(0), int64(half))
		bld.Ldi(isa.V(1), 0)
		bld.St(isa.V(0), BaseC, isa.V(1))
		bld.Op(isa.JOIN)
	case StyleThread:
		// if (thread_id < size/2) …; if (thread_id >= size/2) … clear.
		bld.Id(isa.FID, isa.S(0))
		bld.ALUI(isa.SGE, isa.S(1), isa.S(0), int64(size))
		bld.Branch(isa.BNEZ, isa.S(1), "done")
		bld.ALUI(isa.SLT, isa.S(1), isa.S(0), int64(half))
		bld.Branch(isa.BEQZ, isa.S(1), "upper")
		bld.Ld(isa.S(4), isa.S(0), BaseA)
		bld.Ld(isa.S(5), isa.S(0), BaseB)
		bld.ALU(isa.ADD, isa.S(6), isa.S(4), isa.S(5))
		bld.St(isa.S(0), BaseC, isa.S(6))
		bld.Jmp("done")
		bld.Label("upper")
		bld.Ldi(isa.S(6), 0)
		bld.St(isa.S(0), BaseC, isa.S(6))
		bld.Label("done").Halt()
	case StyleSIMD:
		// Sequential predicated execution of both branches (no control
		// parallelism in the vector model).
		bld.Id(isa.TID, isa.V(0))
		bld.ALUI(isa.SLT, isa.V(4), isa.V(0), int64(half)) // lower mask
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Ld(isa.V(2), isa.V(0), BaseB)
		bld.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
		bld.Ld(isa.V(5), isa.V(0), BaseC)
		bld.Sel(isa.V(3), isa.V(4), isa.V(3), isa.V(5))
		bld.St(isa.V(0), BaseC, isa.V(3))
		bld.ALUI(isa.SGE, isa.V(4), isa.V(0), int64(half))
		bld.ALUI(isa.SLT, isa.V(6), isa.V(0), int64(size))
		bld.ALU(isa.AND, isa.V(4), isa.V(4), isa.V(6)) // upper mask
		bld.Ldi(isa.V(7), 0)
		bld.Ld(isa.V(5), isa.V(0), BaseC)
		bld.Sel(isa.V(7), isa.V(4), isa.V(7), isa.V(5))
		bld.St(isa.V(0), BaseC, isa.V(7))
		bld.Halt()
	case StyleFork:
		bld.Split(isa.ArmImm(int64(half), "lower"), isa.ArmImm(int64(size-half), "upper"))
		bld.Halt()
		bld.Label("lower")
		bld.Id(isa.TID, isa.V(0))
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Ld(isa.V(2), isa.V(0), BaseB)
		bld.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
		bld.St(isa.V(0), BaseC, isa.V(3))
		bld.Op(isa.JOIN)
		bld.Label("upper")
		bld.Id(isa.TID, isa.V(0))
		bld.ALUI(isa.ADD, isa.V(0), isa.V(0), int64(half))
		bld.Ldi(isa.V(1), 0)
		bld.St(isa.V(0), BaseC, isa.V(1))
		bld.Op(isa.JOIN)
	}
	return Workload{
		Name:    fmt.Sprintf("cond-%s-%d", style, size),
		Program: bld.MustBuild(),
		Check: func(m *machine.Machine) error {
			return checkRange(m, BaseC, want, "cond")
		},
	}
}

// PrefixSum builds the ordered multiprefix of Section 4:
// prefix(source, MPADD, &sum, source). The exclusive prefix lands in c, the
// total in word BaseAux.
func PrefixSum(style Style, size, nthreads int) Workload {
	checkSize(size)
	a, _ := inputs(size)
	want := make([]int64, size)
	acc := int64(0)
	for i := range a {
		want[i] = acc
		acc += a[i]
	}
	total := acc
	bld := isa.NewBuilder(fmt.Sprintf("prefix-%s-%d", style, size))
	bld.Data(BaseA, a...)
	bld.Label("main")
	switch style {
	case StyleTCF:
		bld.Ldi(isa.S(0), int64(size)).SetThick(isa.S(0))
		bld.Id(isa.TID, isa.V(0))
		bld.Ld(isa.V(1), isa.V(0), BaseA)
		bld.Prefix(isa.MPADD, isa.V(2), isa.RegNone, BaseAux, isa.V(1))
		bld.St(isa.V(0), BaseC, isa.V(2))
		bld.Halt()
	case StyleThread:
		// for (i = thread_id; i < size; i += nthreads)
		//     prefix(source[i], MPADD, &sum, source[i]);
		bld.Id(isa.FID, isa.S(0))
		bld.Mov(isa.S(2), isa.S(0))
		bld.Label("loop")
		bld.ALUI(isa.SLT, isa.S(3), isa.S(2), int64(size))
		bld.Branch(isa.BEQZ, isa.S(3), "done")
		bld.Ld(isa.S(4), isa.S(2), BaseA)
		bld.Mov(isa.V(1), isa.S(4))
		bld.Prefix(isa.MPADD, isa.V(2), isa.RegNone, BaseAux, isa.V(1))
		bld.Mov(isa.S(5), isa.V(2))
		bld.St(isa.S(2), BaseC, isa.S(5))
		bld.ALUI(isa.ADD, isa.S(2), isa.S(2), int64(nthreads))
		bld.Jmp("loop")
		bld.Label("done").Halt()
	default:
		panic(fmt.Sprintf("workload: prefix has no %s form", style))
	}
	return Workload{
		Name:    fmt.Sprintf("prefix-%s-%d", style, size),
		Program: bld.MustBuild(),
		Check: func(m *machine.Machine) error {
			if err := checkRange(m, BaseC, want, "prefix"); err != nil {
				return err
			}
			if got := m.Shared().Peek(BaseAux); got != total {
				return fmt.Errorf("prefix total = %d, want %d", got, total)
			}
			return nil
		},
	}
}

// DependentLoop builds the log-step inclusive scan (product) of Section 4:
// for (i=1; i<size; i<<=1) source[t] *= source[t-i]. StyleTCF relies on the
// lockstep PRAM semantics; StyleFork resynchronizes each round with a
// fork/join (the XMT convention); StyleThread runs on the fixed thread set.
func DependentLoop(style Style, size int) Workload {
	checkSize(size)
	a := make([]int64, size)
	for i := range a {
		a[i] = int64(i%3 + 1)
	}
	want := make([]int64, size)
	acc := int64(1)
	for i := range a {
		acc *= a[i]
		want[i] = acc
	}
	bld := isa.NewBuilder(fmt.Sprintf("deploop-%s-%d", style, size))
	bld.Data(BaseA, a...)
	bld.Label("main")
	// Round body: given round stride in S1, update source (thickness
	// already set or fixed).
	emitBody := func(end isa.Op) {
		bld.Id(isa.TID, isa.V(0))
		bld.ALU(isa.SUB, isa.V(1), isa.V(0), isa.S(1))
		bld.ALUI(isa.SGE, isa.V(2), isa.V(1), 0)
		bld.Ld(isa.V(3), isa.V(1), BaseA)
		bld.Ld(isa.V(4), isa.V(0), BaseA)
		bld.ALU(isa.MUL, isa.V(5), isa.V(4), isa.V(3))
		bld.Sel(isa.V(6), isa.V(2), isa.V(5), isa.V(4))
		bld.St(isa.V(0), BaseA, isa.V(6))
		bld.Op(end)
	}
	switch style {
	case StyleTCF:
		bld.Ldi(isa.S(0), int64(size)).SetThick(isa.S(0))
		bld.Ldi(isa.S(1), 1)
		bld.Label("loop")
		bld.ALU(isa.SGE, isa.S(2), isa.S(1), isa.S(0))
		bld.Branch(isa.BNEZ, isa.S(2), "done")
		emitBody(isa.NOP)
		bld.ALUI(isa.SHL, isa.S(1), isa.S(1), 1)
		bld.Jmp("loop")
		bld.Label("done").Halt()
	case StyleFork:
		// Master of thickness 1 forks a size-thick flow per round; the
		// join is the only synchronization (no lockstep to rely on).
		bld.Ldi(isa.S(0), int64(size))
		bld.Ldi(isa.S(1), 1)
		bld.Label("loop")
		bld.ALU(isa.SGE, isa.S(2), isa.S(1), isa.S(0))
		bld.Branch(isa.BNEZ, isa.S(2), "done")
		bld.Split(isa.ArmReg(isa.S(0), "body"))
		bld.ALUI(isa.SHL, isa.S(1), isa.S(1), 1)
		bld.Jmp("loop")
		bld.Label("done").Halt()
		bld.Label("body")
		emitBody(isa.JOIN)
	case StyleThread:
		// Threads run the body under the machine lockstep; requires
		// size <= thread count.
		bld.Id(isa.FID, isa.S(3))
		bld.ALUI(isa.SGE, isa.S(4), isa.S(3), int64(size))
		bld.Branch(isa.BNEZ, isa.S(4), "done")
		bld.Ldi(isa.S(0), int64(size))
		bld.Ldi(isa.S(1), 1)
		bld.Label("loop")
		bld.ALU(isa.SGE, isa.S(2), isa.S(1), isa.S(0))
		bld.Branch(isa.BNEZ, isa.S(2), "done")
		// Thread-wise body on scalar registers (tid = flow id).
		bld.ALU(isa.SUB, isa.S(5), isa.S(3), isa.S(1))
		bld.ALUI(isa.SGE, isa.S(6), isa.S(5), 0)
		bld.Ld(isa.S(7), isa.S(5), BaseA)
		bld.Ld(isa.S(8), isa.S(3), BaseA)
		bld.ALU(isa.MUL, isa.S(9), isa.S(8), isa.S(7))
		bld.Mov(isa.V(0), isa.S(9))
		bld.Mov(isa.V(1), isa.S(8))
		bld.Mov(isa.V(2), isa.S(6))
		bld.Sel(isa.V(3), isa.V(2), isa.V(0), isa.V(1))
		bld.Mov(isa.S(9), isa.V(3))
		bld.St(isa.S(3), BaseA, isa.S(9))
		bld.ALUI(isa.SHL, isa.S(1), isa.S(1), 1)
		bld.Jmp("loop")
		bld.Label("done").Halt()
	default:
		panic(fmt.Sprintf("workload: dependent loop has no %s form", style))
	}
	return Workload{
		Name:    fmt.Sprintf("deploop-%s-%d", style, size),
		Program: bld.MustBuild(),
		Check: func(m *machine.Machine) error {
			return checkRange(m, BaseA, want, "deploop")
		},
	}
}

// Multitask builds k independent tasks (each a small vector kernel of the
// given thickness) dispatched as parallel TCFs — the time-shared
// multitasking experiment (Section 4: TCFs as tasks).
func Multitask(k, thickness int) Workload {
	bld := isa.NewBuilder(fmt.Sprintf("multitask-%d x%d", k, thickness))
	bld.Label("main")
	arms := make([]isa.Arm, k)
	for i := range arms {
		arms[i] = isa.ArmImm(int64(thickness), "task")
	}
	bld.Split(arms...)
	bld.Halt()
	bld.Label("task")
	bld.Id(isa.TID, isa.V(0))
	bld.Id(isa.FID, isa.S(0))
	bld.ALUI(isa.MUL, isa.S(1), isa.S(0), int64(thickness))
	bld.ALU(isa.ADD, isa.V(0), isa.V(0), isa.S(1))
	bld.ALUI(isa.MUL, isa.V(1), isa.V(0), 2)
	bld.St(isa.V(0), BaseC, isa.V(1))
	bld.Op(isa.JOIN)
	return Workload{
		Name:    fmt.Sprintf("multitask-%dx%d", k, thickness),
		Program: bld.MustBuild(),
		Check: func(m *machine.Machine) error {
			// Every task wrote 2*index at its slice; flow ids are
			// assigned 1..k to the children in order.
			for task := 0; task < k; task++ {
				fid := int64(task + 1)
				for lane := 0; lane < thickness; lane++ {
					idx := fid*int64(thickness) + int64(lane)
					if got := m.Shared().Peek(BaseC + idx); got != 2*idx {
						return fmt.Errorf("multitask: word %d = %d, want %d", idx, got, 2*idx)
					}
				}
			}
			return nil
		},
	}
}

// GroupParallel builds `arms` independent TCFs of the given thickness, each
// iterating a private scalar chain (x -> 3x+1) over its own disjoint slice
// of BaseC for `iters` rounds — the multi-group engine-throughput workload.
// There are no cross-arm dependencies: every arm reads and writes only its
// own region, so every group has work in every step.
func GroupParallel(arms, thickness, iters int) Workload {
	size := arms * thickness
	checkSize(size)
	a, _ := inputs(size)
	want := make([]int64, size)
	for i := range want {
		x := a[i]
		for k := 0; k < iters; k++ {
			x = x*3 + 1
		}
		want[i] = x
	}
	bld := isa.NewBuilder(fmt.Sprintf("grouppar-%dx%d-i%d", arms, thickness, iters))
	bld.Data(BaseA, a...)
	bld.Label("main")
	shares := make([]isa.Arm, arms)
	for i := range shares {
		shares[i] = isa.ArmImm(int64(thickness), "work")
	}
	bld.Split(shares...)
	bld.Halt()
	bld.Label("work")
	bld.Id(isa.TID, isa.V(0))
	bld.Id(isa.FID, isa.S(0))
	// Children are flows 1..arms; global index = (fid-1)*thickness + tid.
	bld.ALUI(isa.SUB, isa.S(0), isa.S(0), 1)
	bld.ALUI(isa.MUL, isa.S(0), isa.S(0), int64(thickness))
	bld.ALU(isa.ADD, isa.V(0), isa.V(0), isa.S(0))
	bld.Ld(isa.V(1), isa.V(0), BaseA)
	bld.Ldi(isa.S(1), 0)
	bld.Label("loop")
	bld.ALUI(isa.MUL, isa.V(1), isa.V(1), 3)
	bld.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	bld.St(isa.V(0), BaseC, isa.V(1))
	bld.ALUI(isa.ADD, isa.S(1), isa.S(1), 1)
	bld.ALUI(isa.SLT, isa.S(2), isa.S(1), int64(iters))
	bld.Branch(isa.BNEZ, isa.S(2), "loop")
	bld.Op(isa.JOIN)
	return Workload{
		Name:    fmt.Sprintf("grouppar-%dx%d-i%d", arms, thickness, iters),
		Program: bld.MustBuild(),
		Check: func(m *machine.Machine) error {
			return checkRange(m, BaseC, want, "grouppar")
		},
	}
}

// Allocation builds the horizontal-vs-vertical allocation experiment of
// Section 4: total application thickness tApp split into `arms` flows (1 =
// vertical, P = horizontal), each doing `iters` elementwise instructions.
func Allocation(tApp, arms, iters int) Workload {
	bld := isa.NewBuilder(fmt.Sprintf("alloc-%d-%d", tApp, arms))
	bld.Label("main")
	shares := make([]isa.Arm, arms)
	per := tApp / arms
	for i := range shares {
		shares[i] = isa.ArmImm(int64(per), "work")
	}
	bld.Split(shares...)
	bld.Halt()
	bld.Label("work")
	bld.Id(isa.TID, isa.V(0))
	bld.Ldi(isa.S(0), 0)
	bld.Label("loop")
	bld.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
	bld.ALUI(isa.ADD, isa.S(0), isa.S(0), 1)
	bld.ALUI(isa.SLT, isa.S(1), isa.S(0), int64(iters))
	bld.Branch(isa.BNEZ, isa.S(1), "loop")
	bld.Op(isa.JOIN)
	return Workload{
		Name:    fmt.Sprintf("alloc-%d-%d", tApp, arms),
		Program: bld.MustBuild(),
		Check:   func(*machine.Machine) error { return nil },
	}
}
