package machine

import (
	"fmt"
	"testing"

	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

// Shapes the step-loop, traffic and register-file tests share: a ragged
// thickness above the lane threshold, an output region and a combining word.
const (
	laneParThickness = 513
	laneParOutBase   = 2000
	laneParAuxAddr   = 900
)

// TestStepLoopSteadyStateAllocs is the 0 allocs/step gate: with tracing
// disabled, the steady-state step loop performs zero heap allocations per
// step once the arenas are warm, on both backends — over dense stores
// ("steady") and over the step commit's sort-free scratch ("commit":
// conflicting stores arriving out of address order, a madd onto eight
// addresses and an mpadd onto one, so the write tables and the combiners'
// accumulators are held to the gate too) and over 64 flows rotating through
// the 16 slots at a barrier every round ("flows": once the flows exist, the
// storage buffers' queues and the barrier release allocate nothing) and over
// a thick dense store and mpadd ("thick": the write and combining logs, the
// commit's spans and, under Parallel, the lane chunks' logs and their merge
// are retained arenas too) and over thick register arithmetic in every operand
// shape ("alu": the lane kernels and the interpreter's bulk forms allocate
// nothing). Every program runs serially and with Parallel, and then once more
// after a Reset, when every vector bank must come out of the register arena
// and the one flow out of the chunk the first run drew.
func TestStepLoopSteadyStateAllocs(t *testing.T) {
	loop := func(name string, thick int64, body func(b *isa.Builder)) *isa.Program {
		b := isa.NewBuilder(name)
		b.Label("main")
		b.SetThickImm(thick)
		b.Id(isa.TID, isa.V(0))
		b.ALUI(isa.MUL, isa.V(2), isa.V(0), 37)
		b.ALUI(isa.AND, isa.V(2), isa.V(2), 7) // eight addresses, scattered over the lanes
		b.Ldi(isa.S(1), 1<<30)
		b.Label("loop")
		b.ALUI(isa.ADD, isa.V(1), isa.V(1), 1)
		body(b)
		b.ALUI(isa.SUB, isa.S(1), isa.S(1), 1)
		b.Branch(isa.BNEZ, isa.S(1), "loop")
		b.Halt()
		return b.MustBuild()
	}
	progs := []*isa.Program{
		loop("steady", 64, func(b *isa.Builder) { b.St(isa.V(0), laneParOutBase, isa.V(1)) }),
		loop("thick", 4096, func(b *isa.Builder) {
			b.St(isa.V(0), laneParOutBase, isa.V(1))
			b.Prefix(isa.MPADD, isa.V(3), isa.RegNone, laneParAuxAddr, isa.V(1))
		}),
		loop("commit", 64, func(b *isa.Builder) {
			b.St(isa.V(2), laneParOutBase, isa.V(1))
			b.Multi(isa.MADD, isa.V(2), laneParOutBase+64, isa.V(1))
			b.Prefix(isa.MPADD, isa.V(3), isa.RegNone, laneParOutBase+128, isa.V(1))
		}),
		spinTasks("flows", 64, 1, true),
		loop("alu", 4096, func(b *isa.Builder) {
			b.ALU(isa.ADD, isa.V(3), isa.V(1), isa.V(2))
			b.ALU(isa.SUB, isa.V(4), isa.S(1), isa.V(3))
			b.ALU(isa.SHR, isa.V(5), isa.V(4), isa.S(1))
			b.ALUI(isa.SLT, isa.V(6), isa.V(5), 9)
			b.Unary(isa.NEG, isa.V(7), isa.V(6))
			b.Sel(isa.V(8), isa.V(6), isa.V(7), isa.S(1))
			b.Mov(isa.V(9), isa.V(8))
		}),
	}
	for _, prog := range progs {
		for _, backend := range []Backend{BackendInterp, BackendFused} {
			for _, par := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/parallel=%v", prog.Name, backend, par), func(t *testing.T) {
					cfg := Default(variant.SingleInstruction)
					cfg.Backend, cfg.Parallel, cfg.LaneParallelThreshold = backend, par, 512
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					warm := func() {
						if err := m.LoadProgram(prog); err != nil {
							t.Fatal(err)
						}
						if err := m.Boot(); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < 64; i++ { // warm the arenas
							if err := m.Step(); err != nil {
								t.Fatal(err)
							}
						}
					}
					warm()
					allocs := testing.AllocsPerRun(200, func() {
						if err := m.Step(); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > 0.1 {
						t.Fatalf("steady-state step loop allocates %.2f objects/step, want 0", allocs)
					}
					m.Reset()
					warm()
					if ks := m.KernelStats(); ks.BanksAllocated != 0 || ks.BanksReused == 0 && prog.Name != "flows" { // whose banks are one lane: the allocator's
						t.Fatalf("the run after Reset allocated %d vector banks and reused %d, want every bank reused", ks.BanksAllocated, ks.BanksReused)
					}
					if ts := m.TailStats(); ts.FlowsAllocated != 0 && prog.Name != "flows" { // whose 65th flow is past what a machine keeps
						t.Fatalf("the run after Reset allocated a flow chunk: %v", ts)
					}
				})
			}
		}
	}
}
