package codegen

// Corpus tests: every testdata/*.te program carries an "// EXPECT:" line
// listing the values it must print. Each program is compiled and run on the
// single-instruction, balanced and multi-instruction engines; printed values
// must match on all of them. This is the compiler's end-to-end regression
// suite — add a .te file and an EXPECT line to extend it.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
	"tcfpram/internal/machine"
	"tcfpram/internal/variant"
)

// expectOf extracts the expected printed values from the EXPECT annotation.
func expectOf(t *testing.T, src string) []int64 {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "// EXPECT:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "// EXPECT:"))
		out := make([]int64, 0, len(fields))
		for _, f := range fields {
			var v int64
			if _, err := fmt.Sscanf(f, "%d", &v); err != nil {
				t.Fatalf("bad EXPECT value %q", f)
			}
			out = append(out, v)
		}
		return out
	}
	t.Fatal("corpus program has no // EXPECT: line")
	return nil
}

func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.te"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("corpus too small: %d programs", len(files))
	}
	kinds := []variant.Kind{variant.SingleInstruction, variant.Balanced, variant.MultiInstruction}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			srcBytes, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)
			want := expectOf(t, src)
			c, err := CompileSource(file, src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, kind := range kinds {
				cfg := machine.Default(kind)
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.LoadProgram(c.Program); err != nil {
					t.Fatal(err)
				}
				for _, seg := range c.LocalData {
					for g := 0; g < cfg.Groups; g++ {
						if err := m.LocalMem(g).Load(seg.Addr, seg.Words); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				got := outputs(m)
				if len(got) != len(want) {
					t.Fatalf("%v: printed %v, want %v", kind, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: printed %v, want %v", kind, got, want)
					}
				}
			}
		})
	}
}

// TestRunLengthsTileBlocks holds the descriptions of fused runs to each
// other on compiled programs: isa.RunLengths must count down along every
// Fused block of isa.Blocks and be 1 at every boundary, and the run lengths
// fuse.Compile records in place, which the engine reads, must equal it.
func TestRunLengthsTileBlocks(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.te"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join("..", "lang", "testdata", "cold.te"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileSource(file, string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		rl := isa.RunLengths(c.Program)
		for pc, fi := range fuse.Compile(c.Program).Code {
			if fi.Run != rl[pc] {
				t.Fatalf("%s: fused run length %d at pc %d, isa.RunLengths %d", file, fi.Run, pc, rl[pc])
			}
		}
		for _, b := range isa.Blocks(c.Program) {
			for pc := b.Start; pc < b.End; pc++ {
				if want := b.End - pc; rl[pc] != want {
					t.Fatalf("%s: run length %d at pc %d of block %+v, want %d", file, rl[pc], pc, b, want)
				}
			}
		}
	}
}
