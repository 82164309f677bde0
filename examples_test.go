package tcfpram_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateExamples = flag.Bool("update-examples", false, "rewrite examples/testdata/*.out from the programs' output")

// TestExamples builds every program under examples/ and holds what it prints
// to examples/testdata/<name>.out, so that the README's quickstart and the
// walkthroughs beside it cannot rot: a change that breaks one, or moves a
// number it prints, fails here. -update-examples rewrites the files after an
// intended change of simulated behaviour.
func TestExamples(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no programs under examples/: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, path := range mains {
		name := filepath.Base(filepath.Dir(path))
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, name))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join("examples", "testdata", name+".out")
			if *updateExamples {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("examples/%s prints\n%s\nwant (%s)\n%s", name, stdout.Bytes(), golden, want)
			}
		})
	}
}
