// Package topology provides the distance metric of the (extended) PRAM-NUMA
// model: the relative distance between a processor group and a target memory
// block, which the distance-aware interconnection network turns into routing
// latency (latency proportional to distance, Section 2.1 / 3.1).
package topology

import (
	"errors"
	"fmt"
)

// ErrBadShape reports an invalid topology shape (nonpositive node count or
// negative distance). Constructors return it
// (wrapped) instead of panicking: topologies are built from untrusted
// request parameters on the serve path, so a bad shape must fail the one
// request, not the process.
var ErrBadShape = errors.New("topology: invalid shape")

// Topology defines a distance metric over n processor groups, where group i
// is co-located with memory block i.
type Topology interface {
	// Name identifies the topology family and size.
	Name() string
	// Size returns the number of groups/blocks.
	Size() int
	// Distance returns the hop distance from group g to memory block m.
	// Distance(g, g) == 0.
	Distance(g, m int) int
	// Diameter returns the maximum distance between any pair.
	Diameter() int
}

// Must unwraps a constructor result, panicking on error. For trusted
// call sites (tests, compiled-in experiment sweeps) where the shape is a
// constant; request-path code must handle the error instead.
func Must[T Topology](t T, err error) T {
	if err != nil {
		panic(err)
	}
	return t
}

func checkSize(n int) error {
	if n <= 0 {
		return fmt.Errorf("size %d must be positive: %w", n, ErrBadShape)
	}
	return nil
}

func checkPair(t Topology, g, m int) {
	if g < 0 || g >= t.Size() || m < 0 || m >= t.Size() {
		panic(fmt.Sprintf("topology: pair (%d,%d) out of range for size %d", g, m, t.Size()))
	}
}

// Ring is a bidirectional ring of n nodes.
type Ring struct{ n int }

// NewRing returns a ring topology of n nodes.
func NewRing(n int) (Ring, error) {
	if err := checkSize(n); err != nil {
		return Ring{}, err
	}
	return Ring{n}, nil
}

func (r Ring) Name() string { return fmt.Sprintf("ring(%d)", r.n) }
func (r Ring) Size() int    { return r.n }

func (r Ring) Distance(g, m int) int {
	checkPair(r, g, m)
	d := g - m
	if d < 0 {
		d = -d
	}
	if alt := r.n - d; alt < d {
		d = alt
	}
	return d
}

func (r Ring) Diameter() int { return r.n / 2 }

// Mesh2D is a w×h mesh without wraparound; node i sits at (i mod w, i / w).
type Mesh2D struct{ w, h int }

// NewMesh2D returns a w×h mesh.
func NewMesh2D(w, h int) (Mesh2D, error) {
	if err := checkSize(w); err != nil {
		return Mesh2D{}, err
	}
	if err := checkSize(h); err != nil {
		return Mesh2D{}, err
	}
	return Mesh2D{w, h}, nil
}

func (m Mesh2D) Name() string { return fmt.Sprintf("mesh(%dx%d)", m.w, m.h) }
func (m Mesh2D) Size() int    { return m.w * m.h }

// Coord returns the (x, y) position of node i.
func (m Mesh2D) Coord(i int) (x, y int) { return i % m.w, i / m.w }

func (m Mesh2D) Distance(g, t int) int {
	checkPair(m, g, t)
	gx, gy := m.Coord(g)
	tx, ty := m.Coord(t)
	return abs(gx-tx) + abs(gy-ty)
}

func (m Mesh2D) Diameter() int { return (m.w - 1) + (m.h - 1) }

// Torus2D is a w×h mesh with wraparound links in both dimensions.
type Torus2D struct{ w, h int }

// NewTorus2D returns a w×h torus.
func NewTorus2D(w, h int) (Torus2D, error) {
	if err := checkSize(w); err != nil {
		return Torus2D{}, err
	}
	if err := checkSize(h); err != nil {
		return Torus2D{}, err
	}
	return Torus2D{w, h}, nil
}

func (t Torus2D) Name() string { return fmt.Sprintf("torus(%dx%d)", t.w, t.h) }
func (t Torus2D) Size() int    { return t.w * t.h }

// Coord returns the (x, y) position of node i.
func (t Torus2D) Coord(i int) (x, y int) { return i % t.w, i / t.w }

func (t Torus2D) Distance(g, m int) int {
	checkPair(t, g, m)
	gx, gy := t.Coord(g)
	mx, my := t.Coord(m)
	dx := abs(gx - mx)
	if alt := t.w - dx; alt < dx {
		dx = alt
	}
	dy := abs(gy - my)
	if alt := t.h - dy; alt < dy {
		dy = alt
	}
	return dx + dy
}

func (t Torus2D) Diameter() int { return t.w/2 + t.h/2 }

// Uniform treats every remote block as equidistant at distance d (a crossbar
// or an idealized high-bandwidth network); local access is distance 0.
type Uniform struct {
	n int
	d int
}

// NewUniform returns a uniform-distance topology of n nodes at distance d.
func NewUniform(n, d int) (Uniform, error) {
	if err := checkSize(n); err != nil {
		return Uniform{}, err
	}
	if d < 0 {
		return Uniform{}, fmt.Errorf("uniform distance %d must be nonnegative: %w", d, ErrBadShape)
	}
	return Uniform{n, d}, nil
}

func (u Uniform) Name() string { return fmt.Sprintf("uniform(%d,d=%d)", u.n, u.d) }
func (u Uniform) Size() int    { return u.n }

func (u Uniform) Distance(g, m int) int {
	checkPair(u, g, m)
	if g == m {
		return 0
	}
	return u.d
}

func (u Uniform) Diameter() int {
	if u.n == 1 {
		return 0
	}
	return u.d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
