package codegen

// The corpus's compiled code: the run lengths the fused table records. What
// the corpus programs print is held to their "// EXPECT:" lines on every
// variant by the differential lattice (internal/chaos).

import (
	"os"
	"path/filepath"
	"testing"

	"tcfpram/internal/fuse"
	"tcfpram/internal/isa"
)

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
