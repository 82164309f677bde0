package machine

// Lane-parallel determinism: partitioning a thick instruction's lanes across
// the worker pool must be unobservable — outputs, the memory image and every
// statistic except LaneChunks are bit-identical to serial execution, with
// and without fault injection (chunked refSeq bases must reproduce the exact
// per-reference fault decisions).

import (
	"fmt"
	"reflect"
	"testing"

	"tcfpram/internal/fault"
	"tcfpram/internal/isa"
	"tcfpram/internal/variant"
)

const (
	laneParThickness = 513 // odd: the last chunk is ragged
	laneParInputBase = 8000
	laneParOutBase   = 2000
	laneParPrefixOut = 4000
	laneParAuxAddr   = 900
)

// laneParProgram exercises every lane-parallel op class at a thickness well
// above the test threshold: per-lane loads, vector ALU, a multiprefix, two
// stores, a reduction and a scalar print.
func laneParProgram(t *testing.T) *isa.Program {
	t.Helper()
	input := make([]int64, laneParThickness)
	for i := range input {
		input[i] = int64(i*7%23 - 11)
	}
	b := isa.NewBuilder("lanepar")
	b.Label("main")
	b.Data(laneParInputBase, input...)
	b.SetThickImm(laneParThickness)
	b.Id(isa.TID, isa.V(0))
	b.Ld(isa.V(1), isa.V(0), laneParInputBase)
	b.ALUI(isa.MUL, isa.V(2), isa.V(1), 3)
	b.ALU(isa.ADD, isa.V(2), isa.V(2), isa.V(0))
	b.Prefix(isa.MPADD, isa.V(3), isa.RegNone, laneParAuxAddr, isa.V(1))
	b.St(isa.V(0), laneParOutBase, isa.V(2))
	b.St(isa.V(0), laneParPrefixOut, isa.V(3))
	b.Reduce(isa.RADD, isa.S(1), isa.V(2))
	b.Print(isa.S(1))
	b.Halt()
	return b.MustBuild()
}

// runLanePar executes the program under one configuration and returns the
// observable result plus statistics (LaneChunks zeroed — it is the one
// legitimate difference between serial and lane-parallel runs).
func runLanePar(t *testing.T, tweak func(*Config)) ([]Output, []int64, Stats) {
	t.Helper()
	cfg := Default(variant.SingleInstruction)
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(laneParProgram(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := *m.Stats()
	st.LaneChunks = 0
	return m.Outputs(), m.Shared().Snapshot(0, 16384), st
}

func TestLaneParallelBitIdentical(t *testing.T) {
	plans := []*fault.Plan{nil, fault.Random(1, 4, 4), fault.Random(2, 4, 4)}
	for pi, plan := range plans {
		plan := plan
		serialOut, serialMem, serialStats := runLanePar(t, func(c *Config) { c.FaultPlan = plan })
		parOut, parMem, parStats := runLanePar(t, func(c *Config) {
			c.FaultPlan = plan
			c.Parallel = true
			c.LaneParallelThreshold = 64
		})
		if !reflect.DeepEqual(serialOut, parOut) {
			t.Fatalf("plan %d: outputs diverged:\nserial   %v\nparallel %v", pi, serialOut, parOut)
		}
		if !reflect.DeepEqual(serialMem, parMem) {
			t.Fatalf("plan %d: memory image diverged", pi)
		}
		if !reflect.DeepEqual(serialStats, parStats) {
			t.Fatalf("plan %d: stats diverged:\nserial   %+v\nparallel %+v", pi, serialStats, parStats)
		}
	}
}

// TestLaneParallelActuallyChunks guards the test above against silently
// degenerating to the serial path.
func TestLaneParallelActuallyChunks(t *testing.T) {
	cfg := Default(variant.SingleInstruction)
	cfg.Parallel = true
	cfg.LaneParallelThreshold = 64
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(laneParProgram(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().LaneChunks == 0 {
		t.Fatal("no lane chunks recorded; the parallel path never engaged")
	}
}

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
