package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden JSON files")

// vet runs the command against args and returns (exit code, stdout, stderr).
func vet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"testdata/cost_demo.te"}, exitClean},
		{"clean_json", []string{"-json", "testdata/cost_demo.te"}, exitClean},
		{"findings", []string{"testdata/findings_demo.te"}, exitFindings},
		{"findings_json", []string{"-json", "testdata/findings_demo.te"}, exitFindings},
		{"no_paths", []string{}, exitUsage},
		{"bad_flag", []string{"-definitely-not-a-flag", "x.te"}, exitUsage},
		{"bad_discipline", []string{"-discipline", "zrcw", "testdata/cost_demo.te"}, exitUsage},
		{"bad_variant", []string{"-variant", "nope", "testdata/cost_demo.te"}, exitUsage},
		{"missing_path", []string{"no/such/file.te"}, exitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := vet(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit code %d, want %d", code, tc.want)
			}
		})
	}
}

func TestCleanOutput(t *testing.T) {
	code, out, _ := vet(t, "testdata/cost_demo.te")
	if code != exitClean || !strings.Contains(out, "1 unit(s) clean") {
		t.Fatalf("code %d out %q", code, out)
	}
}

func TestFindingsGoToStdoutSummaryToStderr(t *testing.T) {
	code, out, errw := vet(t, "testdata/findings_demo.te")
	if code != exitFindings {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "concurrent-write") {
		t.Fatalf("missing finding in stdout: %q", out)
	}
	if !strings.Contains(errw, "finding(s)") {
		t.Fatalf("missing summary in stderr: %q", errw)
	}
}

func TestCostHumanOutput(t *testing.T) {
	code, out, _ := vet(t, "-cost", "testdata/cost_demo.te")
	if code != exitClean {
		t.Fatalf("exit code %d: %s", code, out)
	}
	for _, want := range []string{"steps", "cycles", "resolved"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cost render missing %q:\n%s", want, out)
		}
	}
}

// golden compares got against testdata/name, rewriting under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestJSONGolden pins the machine-readable output byte for byte: the
// findings document for a dirty unit and the findings+cost document for a
// clean one. Regenerate with
//
//	go test ./cmd/tcfvet -update
func TestJSONGolden(t *testing.T) {
	code, out, _ := vet(t, "-json", "testdata/findings_demo.te")
	if code != exitFindings {
		t.Fatalf("exit code %d", code)
	}
	golden(t, "findings_demo.json", out)

	code, out, _ = vet(t, "-json", "-cost", "testdata/cost_demo.te")
	if code != exitClean {
		t.Fatalf("exit code %d", code)
	}
	golden(t, "cost_demo.json", out)
}

// TestJSONShape decodes the -json -cost document and checks the fields
// scripting clients depend on.
func TestJSONShape(t *testing.T) {
	_, out, _ := vet(t, "-json", "-cost", "testdata/cost_demo.te")
	var doc struct {
		Units    int `json:"units"`
		Findings []struct {
			Severity string `json:"severity"`
			Check    string `json:"check"`
		} `json:"findings"`
		Costs []struct {
			Program  string `json:"program"`
			Resolved bool   `json:"resolved"`
			Steps    struct {
				Min, Max int64
			} `json:"steps"`
		} `json:"costs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if doc.Units != 1 || len(doc.Findings) != 0 || len(doc.Costs) != 1 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	c := doc.Costs[0]
	if !c.Resolved || c.Steps.Min <= 0 || c.Steps.Min != c.Steps.Max {
		t.Fatalf("cost report not exact: %+v", c)
	}
}
