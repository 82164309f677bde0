package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// goldenSeed is the seed whose simulated statistics are checked in. A run
// on another seed still checks backend identity, the references and the
// cost predictions; only the comparison with the golden file is skipped.
const goldenSeed = 1

// goldenFile holds the exact simulated statistics of a workload's fixed
// programs for goldenSeed, so a change meant only to speed up the simulator
// cannot move a simulated number unnoticed.
type goldenFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Programs map[string]simStats `json:"programs"`
}

func goldenPath(workload string) string {
	return filepath.Join("golden", workload+".json")
}

// checkGolden compares the run's statistics with the golden file, or
// rewrites the file when update is set. Every mismatch is a failed
// operation.
func (r *result) checkGolden(update bool) error {
	path := goldenPath(r.Workload)
	if update {
		return writeJSON(path, goldenFile{Workload: r.Workload, Seed: goldenSeed, Programs: r.Sims})
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("bench: %s is missing; create it with -update-golden", path)
	}
	if err != nil {
		return err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("bench: %s: %w", path, err)
	}
	names := make([]string, 0, len(r.Sims))
	for name := range r.Sims {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := g.Programs[name]
		if !ok {
			r.note(1, []error{fmt.Errorf("%s: %s has no golden statistics", path, name)})
		} else if got := r.Sims[name]; got != want {
			r.note(1, []error{fmt.Errorf("%s: %s: statistics %+v differ from the golden %+v", path, name, got, want)})
		}
	}
	if len(g.Programs) != len(r.Sims) {
		r.note(1, []error{fmt.Errorf("%s lists %d programs, the run had %d", path, len(g.Programs), len(r.Sims))})
	}
	return nil
}
