package machine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"tcfpram/internal/isa"
	"tcfpram/internal/tcf"
	"tcfpram/internal/variant"
)

// thickALU is a flow of the given thickness that writes eight vector
// registers through every operand shape and stores one of them: a register
// file of 8×thick words that a run leaves non-zero.
func thickALU(thick int64) *isa.Program {
	b := isa.NewBuilder("thick-alu")
	b.Label("main")
	b.SetThickImm(thick)
	b.Id(isa.TID, isa.V(0))
	b.Ldi(isa.S(1), 3)
	b.ALUI(isa.MUL, isa.V(1), isa.V(0), 37)
	b.ALU(isa.ADD, isa.V(2), isa.V(1), isa.V(0))
	b.ALU(isa.SUB, isa.V(3), isa.S(1), isa.V(2))
	b.ALU(isa.SHR, isa.V(4), isa.V(3), isa.S(1))
	b.ALU(isa.SLT, isa.V(5), isa.V(4), isa.V(1))
	b.ALUI(isa.XOR, isa.V(6), isa.V(5), -1)
	b.ALU(isa.MAX, isa.V(7), isa.V(6), isa.V(2))
	b.St(isa.V(0), outBase, isa.V(7))
	b.Halt()
	return b.MustBuild()
}

// BenchmarkResetRun times Reset, load and a whole run on one machine, run
// after run — what a pooled machine does — for a thick register file (eight
// banks of 2^15 lanes), for 2048 thin flows with a bank of four lanes each and
// for a program of three steps, which is all Reset, load and boot. B/op is
// what a run allocates once the machine is warm.
func BenchmarkResetRun(b *testing.B) {
	tiny := isa.NewBuilder("tiny")
	tiny.Label("main")
	tiny.Ldi(isa.S(1), 7)
	tiny.St(isa.RegNone, outBase, isa.S(1))
	tiny.Halt()
	for _, prog := range []*isa.Program{
		thickALU(1 << 15),
		spinTasks("flows", 2048, 4, false),
		tiny.MustBuild(),
	} {
		name := prog.Name
		if name == "thick-alu" {
			name = "thick"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Default(variant.SingleInstruction)
			cfg.MaxSteps = 64         // the spinning tasks never finish: a bounded run
			cfg.SharedWords = 1 << 19 // the arena keeps no more words than the memory has
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			run := func() {
				m.Reset()
				if err := m.LoadProgram(prog); err != nil {
					b.Fatal(err)
				}
				m.Run()
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// regrowSrc reads registers no instruction wrote, hides lanes behind a
// narrower thickness and uncovers them again, outgrows its banks and splits
// into arms that allocate their own — every way a flow comes by register
// lanes — at thicknesses whose banks a thickALU(4096) run left behind dirty.
const regrowSrc = `
main:
    LDI S0, 4000
    SETTHICK S0
    ADD V1, V9, 1        ; V9 never written: reads as zero
    TID V0
    MUL V2, V0, 5
    LDI S0, 2000
    SETTHICK S0          ; lanes 2000.. of V0, V1, V2, V9 hidden
    ADD V2, V2, 100
    LDI S0, 3000
    SETTHICK S0          ; lanes 2000..2999 come back as they were
    RADD S3, V2
    PRINT S3
    LDI S0, 4096
    SETTHICK S0          ; banks replaced: lanes 3000..3999 come back, 4000.. are zero
    RADD S3, V2
    PRINT S3
    TID V3
    ADD V4, V3, V9
    ST V3+700, V4
    SPLIT 4096 -> wide, 3000 -> narrow
    RMAX S3, V1
    PRINT S3
    HALT
wide:
    TID V0
    ADD V5, V7, V0       ; V7 never written
    ST V0+5000, V5
    JOIN
narrow:
    TID V0
    MUL V6, V0, 3
    MADD 9500, V6
    JOIN
`

// machineBytes is m's snapshot.
func machineBytes(t *testing.T, m *Machine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResetReusesRegisterBanks: a machine whose register arena holds the
// dirty banks of an earlier run is, step for step, the machine that never ran
// anything — snapshot bytes (registers with their lengths, RegWordsPeak,
// statistics) and flow digests after every step, outputs and Stats at the
// end — on both engines, after the earlier run ran to its end and after a
// step quota stopped it with all eight of its banks held by a live flow
// (aborted: Reset must take them back from the flow). The banks must really
// have been reused for that to mean anything.
func TestResetReusesRegisterBanks(t *testing.T) {
	dirty, prog := thickALU(1<<12), isa.MustAssemble("regrow", regrowSrc)
	for _, eng := range engines {
		for _, life := range []string{"ran", "aborted"} {
			t.Run(eng.String()+"/"+life, func(t *testing.T) {
				cfg := Default(variant.SingleInstruction)
				boot := func(m *Machine) {
					t.Helper()
					if err := m.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
					if err := m.Boot(); err != nil {
						t.Fatal(err)
					}
				}
				fresh, err := eng.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reused, err := eng.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if life == "aborted" {
					if err := reused.SetLimits(10, 0); err != nil { // up to the MAX, the eighth bank
						t.Fatal(err)
					}
				}
				if err := reused.LoadProgram(dirty); err != nil {
					t.Fatal(err)
				}
				if _, err := reused.Run(); (err != nil) != (life == "aborted") || err != nil && !errors.Is(err, ErrMaxSteps) {
					t.Fatal(err)
				}
				reused.Reset()
				if err := reused.SetLimits(cfg.MaxSteps, cfg.MaxThickness); err != nil {
					t.Fatal(err)
				}
				boot(fresh)
				boot(reused)
				for step := 0; !fresh.Done(); step++ {
					if err := fresh.Step(); err != nil {
						t.Fatal(err)
					}
					if err := reused.Step(); err != nil {
						t.Fatal(err)
					}
					for id, f := range fresh.Flows() {
						if g := reused.Flow(id); g == nil || g.StateDigest() != f.StateDigest() {
							t.Fatalf("step %d: flow %d diverges on the reused machine", step, id)
						}
					}
					if !bytes.Equal(machineBytes(t, reused), machineBytes(t, fresh)) {
						t.Fatalf("step %d: snapshot of the reused machine differs from the fresh one's", step)
					}
				}
				if got, want := snapshotOf(reused), snapshotOf(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("reused run differs from fresh\ngot  %+v\nwant %+v", got.stats, want.stats)
				}
				if len(fresh.Outputs()) != 3 {
					t.Fatalf("%d outputs, want 3", len(fresh.Outputs()))
				}
				if ks := reused.KernelStats(); ks.BanksReused < 8 {
					t.Fatalf("the reused machine took %d banks from its arena, want the 8 the first run left: %v", ks.BanksReused, ks)
				}
				if ks := fresh.KernelStats(); ks.BanksReused > 5 {
					// Only the banks its own growing registers handed back.
					t.Fatalf("the fresh machine reused %d banks: %v", ks.BanksReused, ks)
				}
			})
		}
	}
}

// flowDebris leaves behind every kind of flow: 66 tasks that call a function
// and never return from it — the odd ones go overly thick there and complete
// as auto-split containers of three fragments each, the even ones halt in NUMA
// mode — so 166 flows with call stacks, small banks, modes, parents and
// fragment offsets stay in the chunks they were built in.
func flowDebris() *isa.Program {
	return isa.MustAssemble("flow-debris", `
main:
    SPLIT `+strings.TrimSuffix(strings.Repeat("1 -> task, ", 66), ", ")+`
    HALT
task:
    CALL deep
    JOIN
deep:
    FID S1
    AND S2, S1, 1
    BEQZ S2, numa
    SETTHICK 40
    TID V0
    ADD V1, V0, S1
    ST V0+6000, V1
    HALT
numa:
    NUMA 4
    ADD S3, S1, 1
    ST S1+7000, S3
    ADD S3, S3, 1
    HALT
`)
}

// TestResetReusesFlowChunks: a machine whose flow chunks hold the remains of
// an earlier run — or of a run it was restored into the middle of, or of one
// a step quota stopped in the middle (aborted), its flows live and mid-call —
// is, after Reset and step for step, the machine that never ran anything:
// snapshot bytes after the steps of every corpus program, on both engines
// (restored and aborted: production only, as how the chunks were dirtied does
// not depend on the engine). The flows must really have been built in the old
// chunks.
func TestResetReusesFlowChunks(t *testing.T) {
	debris, jobs := flowDebris(), tailJobs(t)
	for _, eng := range engines {
		for _, dirt := range []string{"restored=false", "restored=true", "aborted"} {
			viaRestore := dirt == "restored=true"
			if dirt != "restored=false" && eng.name != "production" {
				continue
			}
			t.Run(fmt.Sprintf("%v/%s", eng, dirt), func(t *testing.T) {
				cfg := Default(variant.SingleInstruction)
				cfg.AutoSplitThreshold = 16
				cfg.SharedWords = 1 << 13 // a snapshot a step, of two machines: keep them small
				reused, err := eng.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := reused.LoadProgram(debris); err != nil {
					t.Fatal(err)
				}
				if viaRestore {
					stepN(t, reused, 6) // fragments exist, tasks are mid-call
					if reused, err = Restore(bytes.NewReader(machineBytes(t, reused)), cfg); err != nil {
						t.Fatal(err)
					}
				}
				if dirt == "aborted" {
					if err := reused.SetLimits(26, 0); err != nil { // all 166 flows made, 127 live
						t.Fatal(err)
					}
				}
				if _, err := reused.Run(); (err != nil) != (dirt == "aborted") || err != nil && !errors.Is(err, ErrMaxSteps) {
					t.Fatal(err)
				}
				if n := len(reused.flowList); n != 166 {
					t.Fatalf("the debris run made %d flows, want 166", n)
				}
				if dirt == "aborted" {
					reused.Reset()
					if err := reused.SetLimits(cfg.MaxSteps, cfg.MaxThickness); err != nil {
						t.Fatal(err)
					}
				}
				fresh, err := eng.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs {
					if j.tweak != nil {
						continue // a shape with a configuration of its own
					}
					for _, m := range []*Machine{reused, fresh} {
						m.Reset()
						j.bootOn(t, m)
					}
					for step := 0; !fresh.Done(); step++ {
						errF, errR := fresh.Step(), reused.Step()
						if (errF == nil) != (errR == nil) {
							t.Fatalf("%s step %d: fresh stops with %v, reused with %v", j.name, step, errF, errR)
						}
						if errF != nil {
							break
						}
						// Every step while flows are being made, then now and then.
						if (step < 64 || step%32 == 0 || fresh.Done()) &&
							!bytes.Equal(machineBytes(t, reused), machineBytes(t, fresh)) {
							t.Fatalf("%s step %d: snapshot of the machine with reused flow chunks differs from the fresh one's", j.name, step)
						}
					}
					if ts := reused.TailStats(); ts.FlowsAllocated != 0 || ts.FlowsReused != int64(len(reused.flowList)) {
						t.Fatalf("%s: %v for %d flows on a machine that kept %d", j.name, ts, len(reused.flowList), maxKeptFlows)
					}
				}
			})
		}
	}
}

// TestFlowChunksAreBounded: whatever a run drew, Reset keeps the first
// maxKeptFlows flows' worth of chunks and a rerun allocates the rest again.
func TestFlowChunksAreBounded(t *testing.T) {
	prog := spinTasks("flows", 2048, 1, false)
	cfg := Default(variant.SingleInstruction)
	cfg.MaxSteps = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		m.Run() // MaxSteps ends it: the tasks spin
		ts := m.TailStats()
		if want := int64(min(run, 1) * maxKeptFlows); ts.FlowsReused != want || ts.FlowsReused+ts.FlowsAllocated != 2049 {
			t.Fatalf("run %d: %v, want %d of 2049 flows reused", run, ts, want)
		}
		m.Reset()
		kept := 0
		for _, c := range m.chunks {
			kept += len(c)
		}
		if kept != m.keptFlows || kept*int(unsafe.Sizeof(tcf.Flow{})) > maxKeptFlowBytes || m.slab != nil {
			t.Fatalf("run %d: Reset keeps %d flows of %d bytes in %d chunks (accounted: %d) and a slab of %d, bound 78 KB",
				run, kept, unsafe.Sizeof(tcf.Flow{}), len(m.chunks), m.keptFlows, len(m.slab))
		}
	}
}

// TestFlowFootprint: a flow that computes on its common registers alone costs
// the host what Table 1 says it holds — the R common registers, its control
// state and the links of its split — not the headers of 32 banks it never
// asks for.
func TestFlowFootprint(t *testing.T) {
	if size := unsafe.Sizeof(tcf.Flow{}); size > 320 {
		t.Fatalf("a flow is %d bytes, want at most 320: %d common registers and no bank headers", size, isa.NumSRegs)
	}
}

// TestFlowLifecycleAllocs: creating, branching and retiring flows is paid for
// once. The second run of a burst of 2048 flows with tables, thin banks and
// call stacks, and of a split/join tree of 511, allocates less than one object
// per ten flows it creates; and what the machine retains afterwards is bounded
// by what the last run used, not by the largest it ever ran: 78 KB of flows,
// and in the register arena no more words than the memory has after the burst,
// the first chunk of each region after a run of one flow.
func TestFlowLifecycleAllocs(t *testing.T) {
	cfg := Default(variant.SingleInstruction)
	burst := splitBurst("burst", 2048, true)
	for _, prog := range []*isa.Program{burst, splitTree(8)} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var allocs uint64
		for run := 0; run < 2; run++ {
			m.Reset()
			if err := m.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			if err := m.Boot(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for !m.Done() {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			allocs = after.Mallocs - before.Mallocs
		}
		flows := len(m.flowList)
		t.Logf("%s: %d objects for %d flows on the second run", prog.Name, allocs, flows)
		if flows < 500 || float64(allocs) >= 0.1*float64(flows) {
			t.Errorf("%s: the second run allocated %d objects for %d flows, want under one per ten", prog.Name, allocs, flows)
		}
		if ts := m.TailStats(); prog == burst && (ts.Tables != 2048 || ts.ThinWords != 2048*(4+4+1)) {
			t.Errorf("%s: %v, want a table, two banks of four lanes and one return address a task", prog.Name, ts)
		}
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retained := func() (flowBytes int, arenaWords int64) {
		m.Reset()
		for _, c := range m.chunks {
			flowBytes += len(c) * int(unsafe.Sizeof(tcf.Flow{}))
		}
		return flowBytes, m.regs.Counts().HeldWords
	}
	for _, prog := range []*isa.Program{burst, isa.MustAssemble("one", "main:\n LDI S0, 1\n PRINT S0\n HALT\n")} {
		if err := m.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		flowBytes, arenaWords := retained()
		wantWords := int64(cfg.SharedWords)
		if prog != burst {
			wantWords = 16 + 4*3 // the regions' first chunks
		}
		if flowBytes > maxKeptFlowBytes || arenaWords > wantWords {
			t.Errorf("after %s: %d bytes of flows and %d words of registers retained, want at most %d and %d", prog.Name, flowBytes, arenaWords, maxKeptFlowBytes, wantWords)
		}
	}
}

// TestRegisterArenaIsBounded: the arena keeps what the last run used, and
// never more than the machine's shared memory holds. A rerun of a 2^16-lane
// program finds its register file whole where it fits, cut to SharedWords
// where it does not, and nothing of it after thin runs, which pin no bank.
func TestRegisterArenaIsBounded(t *testing.T) {
	thick, thin := thickALU(1<<16), thickALU(4)
	run := func(m *Machine, p *isa.Program) KernelStats {
		t.Helper()
		if err := m.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		defer m.Reset()
		return m.KernelStats()
	}
	for _, tc := range []struct {
		shared int
		kept   int64
	}{
		{1 << 20, 8}, // eight banks of 2^16 words
		{1 << 18, 4}, // as many of them as the bound admits
	} {
		cfg := Default(variant.SingleInstruction)
		cfg.SharedWords = tc.shared
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run(m, thick)
		if held := m.regs.Counts().HeldWords; held > int64(tc.shared) {
			t.Errorf("SharedWords %d: the arena holds %d words", tc.shared, held)
		}
		if ks := run(m, thick); ks.BanksReused != tc.kept || ks.BanksAllocated != 8-tc.kept {
			t.Errorf("SharedWords %d: the thick rerun found %d banks and allocated %d, want %d and %d", tc.shared, ks.BanksReused, ks.BanksAllocated, tc.kept, 8-tc.kept)
		}
		for i := 0; i < 3; i++ {
			run(m, thin)
		}
		if ks := run(m, thick); ks.BanksReused != 0 || ks.BanksAllocated != 8 {
			t.Errorf("SharedWords %d: after thin runs the arena still lent %d thick banks (%d allocated)", tc.shared, ks.BanksReused, ks.BanksAllocated)
		}
	}
}
