package main

import (
	"tcfpram/internal/isa"

	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTCFESource(t *testing.T) {
	path := write(t, "p.te", `
shared int c[4] @ 300;
func main() {
    #4;
    c[tid] = tid * 7;
    print(radd(c[tid]));
}
`)
	var out bytes.Buffer
	if err := run([]string{"-mem", "300:4", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"[42]", "mem[300:304] = [0 7 14 21]", "variant=single-instruction"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunAssemblySource(t *testing.T) {
	path := write(t, "p.tasm", "main:\nLDI S0, 9\nPRINT S0\nHALT\n")
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[9]") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestVariantSelection(t *testing.T) {
	path := write(t, "p.te", "func main() { print(fid); }")
	var out bytes.Buffer
	if err := run([]string{"-variant", "esm", path}, &out); err != nil {
		t.Fatal(err)
	}
	// 16 threads each print their flow id.
	if got := strings.Count(out.String(), "[flow"); got != 16 {
		t.Fatalf("expected 16 outputs on esm, got %d:\n%s", got, out.String())
	}
}

func TestTraceAndDisFlags(t *testing.T) {
	path := write(t, "p.te", "func main() { #4; thick int v = tid; print(radd(v)); }")
	var out bytes.Buffer
	if err := run([]string{"-trace", "-gantt", "-dis", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"SETTHICK", "step", "G0:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestMachineShapeFlags(t *testing.T) {
	path := write(t, "p.te", "func main() { print(nproc); print(ngroups); }")
	var out bytes.Buffer
	if err := run([]string{"-groups", "2", "-procs", "3", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[6]") || !strings.Contains(out.String(), "[2]") {
		t.Fatalf("shape flags ignored:\n%s", out.String())
	}
}

func TestLangOverride(t *testing.T) {
	// A .txt file forced to assembly.
	path := write(t, "p.txt", "main:\nPRINTS \"asm\"\nHALT\n")
	var out bytes.Buffer
	if err := run([]string{"-lang", "asm", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "asm") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	te := write(t, "p.te", "func main() { }")
	cases := [][]string{
		{},                        // no file
		{"-variant", "bogus", te}, // unknown variant
		{"-lang", "bogus", te},    // unknown lang
		{"-mem", "nope", te},      // bad mem spec
		{filepath.Join(t.TempDir(), "missing.te")}, // unreadable
	}
	for i, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	path := write(t, "p.te", "func main() { #4; halt; }")
	// Using SETTHICK on the fixed-thickness variant is a machine error.
	var out bytes.Buffer
	if err := run([]string{"-variant", "simd", path}, &out); err == nil {
		t.Fatal("expected runtime error")
	}
}

func TestCompileErrorPropagates(t *testing.T) {
	path := write(t, "p.te", "func main() { undeclared = 1; }")
	var out bytes.Buffer
	if err := run([]string{path}, &out); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestRunBinaryObject(t *testing.T) {
	// End-to-end toolchain: assemble to .tbin elsewhere, run here.
	asm := "main:\nLDI S0, 3\nSETTHICK S0\nTID V0\nST V0+600, V0\nHALT\n"
	p, err := isaAssemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.tbin")
	if err := os.WriteFile(path, p, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-mem", "600:3", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mem[600:603] = [0 1 2]") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// isaAssemble produces a TCFB blob for the binary-object test.
func isaAssemble(src string) ([]byte, error) {
	p, err := isa.Assemble("t", src)
	if err != nil {
		return nil, err
	}
	return isa.Encode(p), nil
}

func TestSVGOutput(t *testing.T) {
	path := write(t, "p.te", "func main() { #6; thick int v = tid; print(radd(v)); }")
	svg := filepath.Join(t.TempDir(), "sched.svg")
	var out bytes.Buffer
	if err := run([]string{"-svg", svg, path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("not an svg: %.80s", data)
	}
}

// TestGovernanceFlags: -max-steps and -timeout stop runaway programs
// through the same SetLimits/RunContext path the tcfserve server governs
// tenants with.
func TestGovernanceFlags(t *testing.T) {
	spin := write(t, "spin.te", `
shared int b[1] @ 900;
func main() {
	int n = 0;
	while (1) {
		n += 1;
		b[0] = n;
	}
}
`)

	var out bytes.Buffer
	err := run([]string{"-max-steps", "100", spin}, &out)
	if err == nil || !strings.Contains(err.Error(), "max steps exceeded") {
		t.Fatalf("-max-steps: err = %v", err)
	}

	out.Reset()
	err = run([]string{"-timeout", "100ms", spin}, &out)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("-timeout: err = %v", err)
	}

	// Bounds that the program fits under leave it untouched.
	ok := write(t, "ok.te", "func main() { print(42); }")
	out.Reset()
	if err := run([]string{"-max-steps", "100000", "-timeout", "30s", ok}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[42]") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestCheckpointAndResume: run with -checkpoint, kill by -max-steps bound
// being irrelevant — instead simulate a crash by running a first process
// with checkpointing on a program long enough to write at least one
// checkpoint, then -resume from the file and require the full output.
func TestCheckpointAndResume(t *testing.T) {
	// ~48 steps on the default config: enough boundaries to checkpoint at.
	prog := write(t, "p.te", `
shared int c[8] @ 300;
func main() {
    #8;
    int i = 0;
    while (i < 6) {
        c[tid] = c[tid] + tid;
        i += 1;
    }
    print(radd(c[tid]));
}
`)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Oracle: straight through, no checkpointing.
	var oracle bytes.Buffer
	if err := run([]string{"-mem", "300:8", prog}, &oracle); err != nil {
		t.Fatal(err)
	}

	// Checkpointed run: same results, and the file holds the final state.
	var out bytes.Buffer
	if err := run([]string{"-mem", "300:8", "-checkpoint", ckpt, "-checkpoint-every", "4", prog}, &out); err != nil {
		t.Fatal(err)
	}
	if oracle.String() != out.String() {
		t.Fatalf("checkpointing changed output:\noracle:\n%s\ncheckpointed:\n%s", oracle.String(), out.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resume from the last checkpoint: the tail of the run replays and the
	// complete output (including the part from before the checkpoint, which
	// is carried in the snapshot) matches the oracle.
	out.Reset()
	if err := run([]string{"-mem", "300:8", "-resume", ckpt}, &out); err != nil {
		t.Fatal(err)
	}
	if oracle.String() != out.String() {
		t.Fatalf("resumed output diverged:\noracle:\n%s\nresumed:\n%s", oracle.String(), out.String())
	}
}

// TestEngineFlagsRejected: programs run on the one engine configuration, so
// -backend and -sched are unknown flags, not silently accepted choices.
func TestEngineFlagsRejected(t *testing.T) {
	path := write(t, "p.te", "func main() { print(42); }")
	for _, flag := range []string{"-backend", "-sched"} {
		var out bytes.Buffer
		err := run([]string{flag, "interp", path}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Fatalf("%s: got %v, want an undefined-flag error", flag, err)
		}
	}
}

// TestStagesKernelCoverage: -stages prints the commit's routes (the 64
// stores in one direct run) and under them how the run's lanes were
// generated — everything in bulk, the LD and the ST included (the per-lane
// loops remain for discipline checks, NUMA mode and immediate semantics);
// where its two vector banks (64 lanes: the register arena's smallest) came
// from, and the four columns the three TIDs and the MUL left to affine forms, none of which a reader materialised: the ST and the LD read
// their addresses, and the ST its values, from the forms. Under them the tail
// line: of the ten steps one had stores to commit, one left a buffer to
// compact (the flow halted), none had two outputs to order, and the one
// flow's chunk was allocated. The commit line's run is dense and holds its
// values by their form: the commit reads both from the run's header.
func TestStagesKernelCoverage(t *testing.T) {
	path := write(t, "p.te", `
shared int c[64] @ 300;
func main() {
    #64;
    c[tid] = tid * 3;
    print(radd(c[tid]));
}
`)
	want := "commit: runs=1 direct_words=64 tabled_words=0 indexed_words=0 sorted_fallbacks=0 dense_words=64 ref_words=64" +
		"\ncombine: refs=0 accumulators=0 indexed_refs=0" +
		"\nkernels: bulk_lanes=384 per_lane_lanes=0 banks_reused=0 banks_allocated=2 columns_skipped=4 columns_materialised=0" +
		"\ntail: steps=10 commits=1 compactions=1 output_sorts=0 flows_reused=0 flows_allocated=1 thin_words=0 tables=1"
	var out bytes.Buffer
	if err := run([]string{"-stages", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), want+"\n") {
		t.Fatalf("-stages: want the line %q in\n%s", want, out.String())
	}
}

// TestStagesAffineCounts: on a saxpy-shaped program of 256 lanes -stages
// counts the columns the index arithmetic left to affine forms — the three
// TIDs and two MUL/ADD pairs of the prologue, three TIDs in each of the three
// iterations and the one before the sum: 19 — and the three a reader made
// the flow materialise after all: the SHR, the XOR and the AND of the
// prologue. The loop's LDs and ST read their addresses from the forms, and
// the five ST runs commit directly, each by its dense base and with its
// values read from the register bank.
func TestStagesAffineCounts(t *testing.T) {
	path := write(t, "saxpy.te", `
shared int x[256] @ 16384;
shared int y[256] @ 16640;
func main() {
    #256;
    x[tid] = ((tid * 7 + 3) ^ (tid >> 3)) & 1023;
    y[tid] = (tid * 5 + 7) & 1023;
    for (int i = 0; i < 3; i += 1) {
        y[tid] = y[tid] + (3 + i) * x[tid];
    }
    print(radd(y[tid]));
}
`)
	var out bytes.Buffer
	if err := run([]string{"-stages", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"commit: runs=5 direct_words=1280 tabled_words=0 indexed_words=0 sorted_fallbacks=0 dense_words=1280 ref_words=1280\n",
		" columns_skipped=19 columns_materialised=3\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-stages: want %q in\n%s", want, out.String())
		}
	}
}

// TestStagesCombineCounts: -stages counts a step's combining references, one
// accumulator per word they meet and the references resolved through the
// index — a madd of 64 lanes onto 8 words and an mpadd onto one word, both
// compact — and the commit's scattered stores, 64 onto 16 words, as indexed,
// their values read from the register bank the mpadd's prefixes came into.
func TestStagesCombineCounts(t *testing.T) {
	path := write(t, "p.te", `
shared int h[16] @ 300;
shared int total @ 400;
func main() {
    #64;
    madd(&h[tid & 7], tid);
    thick int p = mpadd(&total, 1);
    h[tid & 15] = p;
    print(radd(h[tid & 15]));
}
`)
	var out bytes.Buffer
	if err := run([]string{"-stages", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"commit: runs=1 direct_words=0 tabled_words=64 indexed_words=64 sorted_fallbacks=0 dense_words=0 ref_words=64\n",
		"combine: refs=128 accumulators=9 indexed_refs=128\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-stages: want the line %q in\n%s", want, out.String())
		}
	}
}

// TestResumeFlagErrors: -resume rejects a program argument, a missing file,
// and a mismatched machine shape.
func TestResumeFlagErrors(t *testing.T) {
	prog := write(t, "p.te", "func main() { #4; print(radd(tid)); }")
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var out bytes.Buffer
	if err := run([]string{"-checkpoint", ckpt, "-checkpoint-every", "1", prog}, &out); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-resume", ckpt, prog}, "no program file"},
		{[]string{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")}, ""},
		{[]string{"-resume", ckpt, "-groups", "2"}, "Groups"},
		{[]string{"-checkpoint", ckpt, "-checkpoint-every", "-3", prog}, "checkpoint-every"},
	}
	for i, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("case %d (%v): expected error", i, tc.args)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err %q does not mention %q", i, err, tc.want)
		}
	}
}

// TestPredictFlag: the prediction agrees with the measurement at thickness 8,
// whose vector banks are the allocator's and whose load is eight lanes, and at
// 64, the register arena's shortest bank.
func TestPredictFlag(t *testing.T) {
	for _, thick := range []int{8, 64} {
		path := write(t, "p.te", fmt.Sprintf(`
shared int src[%[1]d] @ 100 = {3, 1, 4, 1, 5, 9, 2, 6};
func main() {
    #%[1]d;
    thick int v = src[tid];
    print(radd(v));
}
`, thick))
		var out bytes.Buffer
		if err := run([]string{"-predict", path}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if !strings.Contains(s, "prediction for") {
			t.Fatalf("missing prediction table:\n%s", s)
		}
		// The cost analyzer runs the engine: every field must agree.
		if strings.Contains(s, "BOUND VIOLATED") {
			t.Fatalf("lower bound exceeded measurement:\n%s", s)
		}
		for _, line := range strings.Split(s, "\n") {
			f := strings.Fields(line)
			if len(f) == 4 && strings.HasSuffix(f[3], "%") && f[3] != "0%" {
				t.Errorf("thickness %d: nonzero prediction error: %q", thick, line)
			}
		}
	}
}

func TestPredictFlagAssembly(t *testing.T) {
	path := write(t, "p.tasm", "main:\nLDI S0, 9\nPRINT S0\nHALT\n")
	var out bytes.Buffer
	if err := run([]string{"-predict", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "prediction for") {
		t.Fatalf("missing prediction table:\n%s", out.String())
	}
}
