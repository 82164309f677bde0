package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"tcfpram/internal/codegen"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

// commitPrograms are tcfbench's three commit-bound kernels (bench/gen:
// scatter-crcw, histogram, scan) at small thickness, still thick enough for
// mem.Shared's parallel shard resolution to engage, plus the same traffic
// from several flows at once, whose arms land on different groups: their
// contributions reach the combiners out of key order and their multiprefix
// routes are numbered per group.
var commitPrograms = map[string]string{
	"scatter-crcw": `
shared int dst[512] @ 1024;
func main() {
    #4096;
    for (int i = 0; i < 2; i += 1) {
        dst[((tid * 40503 + i * 77) ^ (tid >> 4)) & 511] = tid * 3 + i;
    }
    #512;
    print(radd(dst[tid]));
}`,
	"histogram": `
shared int hist[256] @ 1024;
shared int data[2048] @ 8192;
func main() {
    #2048;
    data[tid] = ((tid * 40503 + 11) ^ (tid >> 6)) & 255;
    for (int i = 0; i < 2; i += 1) {
        madd(&hist[(data[tid] + i * tid) & 255], 1 + i);
    }
    #256;
    print(radd(hist[tid] * (tid + 1)));
}`,
	"scan": `
shared int total @ 1024;
shared int out[2048] @ 2048;
func main() {
    #2048;
    for (int i = 0; i < 3; i += 1) {
        out[tid] = mpadd(&total, ((tid * 7 + i) ^ (tid >> 2)) & 1023);
    }
    print(radd(out[tid]));
    #1;
    print(total);
}`,
	"flows": `
shared int total @ 1024;
shared int hist[8] @ 1032;
shared int dst[16] @ 1048;
shared int out[384] @ 2048;
func main() {
    parallel {
        #64: work(); #64: work(); #64: work(); #64: work(); #64: work(); #64: work();
    }
    #384;
    print(radd(out[tid]));
    #1;
    print(total);
}
func work() {
    thick int slot = (fid - 1) * 64 + tid;
    for (int i = 0; i < 2; i += 1) {
        out[slot & 383] = mpadd(&total, (slot + i) & 15) + mpmax(&hist[7], slot);
        madd(&hist[(slot * 5) & 7], 1 + i);
        dst[(slot * 11) & 15] = slot + i;
    }
}`,
}

// TestStepCommitDifferential runs the commit-bound programs across backend ×
// scheduler × Parallel × lane threshold and demands outputs, memory and every
// model-level statistic bit-identical to the serial lockstep interpreter:
// the sort-free write resolution and combining must not depend on how the
// step's references were gathered.
func TestStepCommitDifferential(t *testing.T) {
	for name, src := range commitPrograms {
		t.Run(name, func(t *testing.T) {
			c, err := codegen.CompileSource(name, src)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := run(t, c, variant.SingleInstruction, nil)
			if len(want.outputs) == 0 {
				t.Fatal("program printed nothing")
			}
			for _, backend := range []machine.Backend{machine.BackendInterp, machine.BackendFused} {
				for _, sched := range []machine.Sched{machine.SchedLockstep, machine.SchedDataflow} {
					for _, par := range []bool{false, true} {
						for _, lanes := range []int{0, 1, 300} {
							cell := fmt.Sprintf("%v/%v/parallel=%v/lanes=%d", backend, sched, par, lanes)
							got, gotStats := runCfg(t, c, variant.SingleInstruction, nil, func(cfg *machine.Config) {
								cfg.Backend, cfg.Sched, cfg.Parallel, cfg.LaneParallelThreshold = backend, sched, par, lanes
							})
							if !reflect.DeepEqual(want.outputs, got.outputs) {
								t.Fatalf("%s: outputs %v, want %v", cell, got.outputs, want.outputs)
							}
							if !reflect.DeepEqual(want.memory, got.memory) {
								t.Fatalf("%s: shared memory diverged", cell)
							}
							a, b := *wantStats, *gotStats
							a.LaneChunks, b.LaneChunks = 0, 0
							if !reflect.DeepEqual(a, b) {
								t.Fatalf("%s: stats diverged:\nwant %+v\ngot  %+v", cell, a, b)
							}
						}
					}
				}
			}
		})
	}
}
