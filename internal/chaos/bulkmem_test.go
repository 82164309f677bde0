package chaos

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/fault"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/mem"
	"tcfpram/internal/sema"
	"tcfpram/internal/variant"
	"tcfpram/internal/workload"
)

// gatherSrc loads through a computed index: ascending from a lane on (the
// page-wise copy and its break), reversed, scattered, and flow-common.
const gatherSrc = `
shared int a[1024] @ 1024;
shared int b[1024] @ 4096;
shared int c[1024] @ 8192;
func main() {
    #1024;
    a[tid] = tid * 3 + 1;
    b[tid] = a[(tid * 40503 + 7) & 1023] + a[1023 - tid];
    c[tid] = a[(tid + 300) & 1023] - b[(tid >> 3) * 8] + a[5];
    c[(tid * 37) & 1023] = b[tid];
    print(radd(c[tid] * (tid & 7)));
}`

// TestBulkMemoryVsPerLane holds the bulk LD/ST both backends share to the
// per-lane loops it stands in front of. The fused-versus-interpreter
// differentials no longer pit the one against the other, so this one does: the
// interpreter under a fault plan that injects nothing and under the CREW
// cross-checker — either sends every shared reference through
// loadShared/storeShared — against the interpreter as configured by default,
// stepped side by side over the corpus, the commit-bound programs (dense,
// strided, overlapping and scattered stores, combining), three workload
// kernels at thickness 2^10 and gathers through a computed index. Flow
// digests after every step, and outputs, memory and statistics (the checker's
// own two counters aside) at the end, must be equal. A program that is not
// CREW-clean stops under the checker and is compared under the plan alone.
func TestBulkMemoryVsPerLane(t *testing.T) {
	type job struct {
		name  string
		prog  *isa.Program
		local []sema.DataSeg
	}
	var jobs []job
	for _, file := range corpusFiles(t) {
		c := compile(t, file)
		jobs = append(jobs, job{filepath.Base(file), c.Program, c.LocalData})
	}
	srcs := map[string]string{"gather": gatherSrc}
	for name, src := range commitPrograms {
		srcs[name] = src
	}
	for name, src := range srcs {
		c, err := codegen.CompileSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jobs = append(jobs, job{name, c.Program, c.LocalData})
	}
	for _, w := range []workload.Workload{
		workload.VectorAdd(workload.StyleTCF, 1<<10, 0, 0),
		workload.PrefixSum(workload.StyleTCF, 1<<10, 0),
		workload.ConditionalHalves(workload.StyleTCF, 1<<10),
	} {
		jobs = append(jobs, job{name: w.Name, prog: w.Program})
	}

	perLane := map[string]func(*machine.Config){
		"empty fault plan": func(c *machine.Config) { c.FaultPlan = &fault.Plan{} },
		"CREW checker":     func(c *machine.Config) { c.MemDiscipline = mem.DisciplineCREW },
	}
	bulkRuns, crewClean := 0, 0
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			boot := func(tweak func(*machine.Config)) *machine.Machine {
				t.Helper()
				cfg := machine.Default(variant.SingleInstruction)
				if tweak != nil {
					tweak(&cfg)
				}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadProgram(j.prog); err != nil {
					t.Fatal(err)
				}
				for _, seg := range j.local {
					for g := 0; g < cfg.Groups; g++ {
						if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := m.Boot(); err != nil {
					t.Fatal(err)
				}
				return m
			}
			ref := boot(nil)
			others := map[string]*machine.Machine{}
			for name, tweak := range perLane {
				others[name] = boot(tweak)
			}
			for step := 0; !ref.Done(); step++ {
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
				for name, m := range others {
					if err := m.Step(); err != nil {
						if !errors.Is(err, machine.ErrDisciplineViolation) {
							t.Fatalf("step %d under the %s: %v", step, name, err)
						}
						delete(others, name)
						continue
					}
					for id, f := range ref.Flows() {
						if g := m.Flow(id); g == nil || g.StateDigest() != f.StateDigest() {
							t.Fatalf("step %d: flow %d under the %s diverges from the bulk path", step, id, name)
						}
					}
				}
			}
			want, wantStats := observe(ref), *ref.Stats()
			for name, m := range others {
				got, gotStats := observe(m), *m.Stats()
				gotStats.DiscReads, gotStats.DiscWrites = 0, 0
				if !reflect.DeepEqual(want.outputs, got.outputs) {
					t.Fatalf("%s: outputs %v, want %v", name, got.outputs, want.outputs)
				}
				if !reflect.DeepEqual(want.memory, got.memory) {
					t.Fatalf("%s: shared memory diverged", name)
				}
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Fatalf("%s: stats diverged:\nwant %+v\ngot  %+v", name, wantStats, gotStats)
				}
				if ks := m.KernelStats(); ks.BulkLanes > ref.KernelStats().BulkLanes {
					t.Fatalf("%s: %v: more lanes in bulk than by default (%v)", name, ks, ref.KernelStats())
				}
			}
			if _, ok := others["CREW checker"]; ok {
				crewClean++
			}
			if ref.KernelStats().BulkLanes > others["empty fault plan"].KernelStats().BulkLanes {
				bulkRuns++
			}
		})
	}
	if bulkRuns < 12 || crewClean < 8 {
		t.Fatalf("the bulk LD/ST engaged in %d programs and %d ran CREW-clean: the comparison proved little", bulkRuns, crewClean)
	}
}

// observe is what a stepped machine printed and its whole shared memory.
func observe(m *machine.Machine) result {
	var r result
	for _, o := range m.Outputs() {
		r.outputs = append(r.outputs, o.Values...)
	}
	r.memory = m.Shared().Snapshot(0, m.Config().SharedWords)
	return r
}
