package exper

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/table1.golden")

// TestTable1Golden pins Table 1 as figgen table1 prints it, so a change to a
// measured cell, to a policy rate an asterisked cell prints or to a property
// row shows up in a diff. Regenerate with
//
//	go test ./internal/exper -run TestTable1Golden -update
func TestTable1Golden(t *testing.T) {
	const k, u = 8, 16
	rows, err := Table1(k, u)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatTable1(rows, u)
	golden := filepath.Join("testdata", "table1.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table 1 drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
