// Package maps is a lint fixture with one finding of each rule and a map
// that another fixture ranges over across the package boundary.
package maps

import (
	"math/rand"
	"time"
)

// Counts returns a map for the importing fixture to range over.
func Counts() map[string]int { return map[string]int{"a": 1, "b": 2} }

func stamp() int64 { return time.Now().UnixNano() + rand.Int63() }

func sum() (s int) {
	for _, v := range Counts() {
		s += v
	}
	return s
}
