package gen

import (
	"embed"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// corpusFS holds a pinned copy of the 16 programs of
// internal/codegen/testdata, so adding a program to the compiler's test
// corpus does not change the serve-hot workload.
//
//go:embed corpus/*.te
var corpusFS embed.FS

// Corpus returns the 16 corpus programs in name order. Their reference
// outputs are the hand-written "// EXPECT:" lines of the files.
func Corpus() ([]*Program, error) {
	entries, err := corpusFS.ReadDir("corpus")
	if err != nil {
		return nil, err
	}
	var out []*Program
	for _, e := range entries {
		data, err := corpusFS.ReadFile("corpus/" + e.Name())
		if err != nil {
			return nil, err
		}
		p := &Program{Name: strings.TrimSuffix(e.Name(), ".te"), Source: string(data)}
		found := false
		for _, line := range strings.Split(p.Source, "\n") {
			rest, ok := strings.CutPrefix(line, "// EXPECT:")
			if !ok {
				continue
			}
			found = true
			for _, f := range strings.Fields(rest) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("gen: %s: bad EXPECT value %q", e.Name(), f)
				}
				p.WantOutputs = append(p.WantOutputs, v)
			}
		}
		if !found {
			return nil, fmt.Errorf("gen: %s has no // EXPECT: line", e.Name())
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
