package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

var updateOccupancy = flag.Bool("update-occupancy", false,
	"rewrite testdata/occupancy.json from this build (only for an intended change of simulated behaviour)")

// occupancyCase is one program whose groups go idle and wake again, with the
// configuration that makes them.
type occupancyCase struct {
	name  string
	kinds []variant.Kind
	tweak func(*machine.Config)
	src   string
}

// occupancyCases: every way a group's storage buffer loses its last ready
// flow and gets one back.
var occupancyCases = []occupancyCase{
	{
		// Skewed work before each barrier: the groups of the quick flows hold
		// only Blocked residents for a while, and the release wakes them.
		name: "barrier-wake", kinds: tcfKinds,
		src: `
shared int ring[8] @ 1024;
shared int seen[8] @ 1040;
func main() {
    parallel {
        #1: node(); #2: node(); #1: node(); #3: node(); #1: node(); #2: node(); #1: node(); #1: node();
    }
    #8;
    print(radd(seen[tid] * (tid + 1)));
}
func node() {
    int me = fid - 1;
    int acc = 0;
    for (int r = 0; r < 5; r += 1) {
        for (int k = 0; k < me * 3; k += 1) {
            acc += k ^ r;
        }
        ring[(me + 1) & 7] = me * 7 + r;
        barrier;
        acc += ring[me];
        barrier;
    }
    seen[me] = acc;
}`,
	},
	{
		// Three groups idle from boot; the arms of each parallel statement
		// land on them, run for different lengths and leave them idle again.
		name: "split-idle", kinds: tcfKinds,
		src: `
shared int out[16] @ 1024;
func main() {
    int acc = 1;
    for (int i = 0; i < 12; i += 1) {
        acc = (acc * 5 + i) & 1023;
    }
    parallel {
        #2: arm(3); #4: arm(17); #1: arm(9);
    }
    for (int i = 0; i < 9; i += 1) {
        acc = (acc * 3 + i) & 1023;
    }
    parallel {
        #1: { arm(2); parallel { #2: arm(5); #2: arm(1); } }
        #3: arm(11);
    }
    out[15] = acc;
    #16;
    print(radd(out[tid] * (tid + 1)));
}
func arm(n) {
    thick int v = tid + fid;
    for (int i = 0; i < n; i += 1) {
        v = (v * 7 + i) & 4095;
    }
    out[fid & 15] = radd(v);
}`,
	},
	{
		// 40 tasks over 16 slots under a three-step time slice: residents are
		// demoted while ready, queues rotate every quantum.
		name: "timeslice", kinds: []variant.Kind{variant.SingleInstruction, variant.Balanced},
		tweak: func(c *machine.Config) { c.TimeSliceSteps = 3 },
		src: `
shared int res[80] @ 1024;
func main() {
    parallel { ` + strings.Repeat("#2: work(); ", 40) + `}
    #80;
    print(radd(res[tid]));
}
func work() {
    thick int slot = (fid - 1) * 2 + tid;
    thick int v = slot;
    for (int i = 0; i < fid % 7 + 2; i += 1) {
        v = v * 3 + i;
    }
    res[slot] = v;
}`,
	},
	{
		// A flow far above the auto-split threshold: its fragments spread
		// over the idle groups, rejoin at the thickness change, and the
		// container splits again.
		name: "autosplit", kinds: []variant.Kind{variant.SingleInstruction, variant.Balanced},
		tweak: func(c *machine.Config) { c.AutoSplitThreshold = 16 },
		src: `
shared int a[96] @ 1024;
shared int b[96] @ 2048;
func main() {
    #96;
    a[tid] = tid * 3 + 1;
    a[tid] = a[tid] * a[tid] + tid;
    #1;
    int s = 0;
    for (int i = 0; i < 6; i += 1) {
        s += i;
    }
    #80;
    b[tid] = a[tid] + s;
    #16;
    print(radd(a[tid * 6] + b[tid * 5] + a[tid]));
}`,
	},
	{
		// A barrier across 24 flows on 16 slots: the flows that reach it
		// first hold every slot of their group Blocked while the flows that
		// must still reach it sit Ready in the queue.
		name: "blocked-residents", kinds: tcfKinds,
		src: `
shared int cell[24] @ 1024;
shared int seen[24] @ 1056;
func main() {
    parallel { ` + strings.Repeat("#1: node(); ", 24) + `}
    #24;
    print(radd(seen[tid] * (tid + 1)));
}
func node() {
    int me = fid - 1;
    int acc = 0;
    for (int r = 0; r < 3; r += 1) {
        cell[(me + 5) % 24] = me * 11 + r;
        barrier;
        acc += cell[me];
        barrier;
    }
    seen[me] = acc;
}`,
	},
}

// occupancyRecord is what the oracle of an occupancy case must
// reproduce: recorded from the parent of the occupancy-proportional step loop
// (commit eef45a1), which scanned every flow and ran every group every step —
// the one reference in the lattice that does not share the idle-group skip it
// pins — serial interpreter under lockstep.
type occupancyRecord struct {
	Stats     machine.Stats `json:"stats"`
	Outputs   []int64       `json:"outputs"`
	TraceHash string        `json:"trace_hash"`
}

var occupancyPath = filepath.Join("testdata", "occupancy.json")

// occupancy is testdata/occupancy.json, keyed "<case>/<variant>", read once.
// Under -update-occupancy the oracles merge their records into it and rewrite
// it, so that a run of some cases (-run) keeps the records of the others.
var (
	occupancy     map[string]occupancyRecord
	occupancyLoad sync.Once
	occupancyErr  error
)

// loadOccupancy reads the records. A field a record has and occupancyRecord
// or machine.Stats has not — a deleted statistic — fails the read.
func loadOccupancy() (map[string]occupancyRecord, error) {
	data, err := os.ReadFile(occupancyPath)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	recs := map[string]occupancyRecord{}
	if err := dec.Decode(&recs); err != nil {
		return nil, fmt.Errorf("%s: %w", occupancyPath, err)
	}
	return recs, nil
}

// occupancyCheck holds the oracle of the named case to its record.
func occupancyCheck(tb testing.TB, name string) func(*machine.Machine) error {
	occupancyLoad.Do(func() { occupancy, occupancyErr = loadOccupancy() })
	if occupancyErr != nil {
		tb.Fatal(occupancyErr)
	}
	return func(m *machine.Machine) error {
		key := fmt.Sprintf("%s/%v", name, m.Config().Variant)
		got := occupancyRecord{Stats: *m.Stats(), Outputs: []int64{}, TraceHash: traceHash(m.Trace())}
		for _, o := range m.Outputs() {
			got.Outputs = append(got.Outputs, o.Values...)
		}
		if *updateOccupancy {
			occupancy[key] = got
			data, err := json.MarshalIndent(occupancy, "", "  ")
			if err == nil {
				err = os.WriteFile(occupancyPath, append(data, '\n'), 0o644)
			}
			return err
		}
		if want := occupancy[key]; len(want.Outputs) == 0 || !reflect.DeepEqual(want, got) {
			return fmt.Errorf("%s diverged from its record in %s (which prints something):\nwant %+v\ngot  %+v", key, occupancyPath, want, got)
		}
		return nil
	}
}

// traceHash digests every field of every StepRecord in the format of
// occupancy.json's trace_hash, which is why it is kept beside traceSum.
func traceHash(recs []*machine.StepRecord) string {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %d %v %v %d %d\n", r.Step, r.Cycles, r.GroupCycles, r.Stages, r.DiscReads, r.DiscWrites)
		for _, s := range r.Slices {
			fmt.Fprintf(h, "%+v\n", s)
		}
	}
	return fmt.Sprintf("%d:%016x", len(recs), h.Sum64())
}
