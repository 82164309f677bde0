package topology

import (
	"errors"
	"testing"
	"testing/quick"
)

func all() []Topology {
	return []Topology{
		Must(NewRing(1)), Must(NewRing(2)), Must(NewRing(7)), Must(NewRing(8)),
		Must(NewMesh2D(1, 1)), Must(NewMesh2D(4, 4)), Must(NewMesh2D(3, 5)),
		Must(NewTorus2D(4, 4)), Must(NewTorus2D(5, 3)),
		Must(NewUniform(1, 4)), Must(NewUniform(8, 4)), Must(NewUniform(8, 0)),
	}
}

// Metric axioms: identity, symmetry, non-negativity, bounded by diameter.
func TestMetricAxioms(t *testing.T) {
	for _, topo := range all() {
		n := topo.Size()
		maxSeen := 0
		for g := 0; g < n; g++ {
			if d := topo.Distance(g, g); d != 0 {
				t.Errorf("%s: Distance(%d,%d) = %d, want 0", topo.Name(), g, g, d)
			}
			for m := 0; m < n; m++ {
				d := topo.Distance(g, m)
				if d < 0 {
					t.Errorf("%s: negative distance %d", topo.Name(), d)
				}
				if d != topo.Distance(m, g) {
					t.Errorf("%s: asymmetric distance (%d,%d)", topo.Name(), g, m)
				}
				if d > topo.Diameter() {
					t.Errorf("%s: distance %d exceeds diameter %d", topo.Name(), d, topo.Diameter())
				}
				if d > maxSeen {
					maxSeen = d
				}
			}
		}
		if n > 1 && maxSeen != topo.Diameter() {
			t.Errorf("%s: max distance %d != diameter %d", topo.Name(), maxSeen, topo.Diameter())
		}
	}
}

// Triangle inequality (all implemented metrics are graph distances).
func TestTriangleInequality(t *testing.T) {
	for _, topo := range all() {
		n := topo.Size()
		if n > 16 {
			continue
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if topo.Distance(a, c) > topo.Distance(a, b)+topo.Distance(b, c) {
						t.Fatalf("%s: triangle violated (%d,%d,%d)", topo.Name(), a, b, c)
					}
				}
			}
		}
	}
}

func TestKnownDistances(t *testing.T) {
	r := Must(NewRing(8))
	if r.Distance(0, 4) != 4 || r.Distance(0, 7) != 1 || r.Distance(2, 6) != 4 {
		t.Error("ring distances wrong")
	}
	m := Must(NewMesh2D(4, 4))
	if m.Distance(0, 15) != 6 || m.Distance(0, 3) != 3 || m.Distance(5, 10) != 2 {
		t.Error("mesh distances wrong")
	}
	to := Must(NewTorus2D(4, 4))
	if to.Distance(0, 3) != 1 || to.Distance(0, 15) != 2 {
		t.Error("torus distances wrong")
	}
	u := Must(NewUniform(8, 4))
	if u.Distance(0, 1) != 4 || u.Distance(3, 3) != 0 {
		t.Error("uniform distances wrong")
	}
}

func TestTorusWraparoundNeverFartherThanMesh(t *testing.T) {
	prop := func(a, b uint8) bool {
		mesh := Must(NewMesh2D(6, 6))
		tor := Must(NewTorus2D(6, 6))
		g, m := int(a)%36, int(b)%36
		return tor.Distance(g, m) <= mesh.Distance(g, m)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"ring(0)", func() error { _, err := NewRing(0); return err }()},
		{"mesh(0,3)", func() error { _, err := NewMesh2D(0, 3); return err }()},
		{"torus(3,0)", func() error { _, err := NewTorus2D(3, 0); return err }()},
		{"uniform(0,1)", func() error { _, err := NewUniform(0, 1); return err }()},
		{"uniform(4,-1)", func() error { _, err := NewUniform(4, -1); return err }()},
	} {
		if !errors.Is(tc.err, ErrBadShape) {
			t.Errorf("%s: err = %v, want ErrBadShape", tc.name, tc.err)
		}
	}
}

// Distance on out-of-range pairs still panics: pair indices come from the
// machine's own loops, never from requests, so a violation is a library bug.
func TestDistancePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Must(NewRing(4)).Distance(0, 9)
}

func TestNames(t *testing.T) {
	for _, topo := range all() {
		if topo.Name() == "" {
			t.Error("empty topology name")
		}
	}
}
