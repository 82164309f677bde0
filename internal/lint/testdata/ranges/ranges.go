// Package ranges is a lint fixture whose only finding needs its import's
// types: the map it ranges over is declared in the maps fixture.
package ranges

import "tcfpram/internal/lint/testdata/maps"

func keys() (ks []string) {
	for k := range maps.Counts() {
		ks = append(ks, k)
	}
	return ks
}
