package lattice

import (
	"math"
	"testing"
	"testing/quick"

	"mdkmc/internal/vec"
)

const a0 = 2.855 // Fe lattice constant used throughout the tests

func TestNewValidates(t *testing.T) {
	for _, bad := range [][4]float64{{0, 1, 1, 1}, {1, -1, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", bad)
				}
			}()
			New(int(bad[0]), int(bad[1]), int(bad[2]), bad[3])
		}()
	}
}

func TestIndexCoordBijection(t *testing.T) {
	l := New(5, 7, 3, a0)
	seen := make(map[int]bool)
	for z := 0; z < l.Nz; z++ {
		for y := 0; y < l.Ny; y++ {
			for x := 0; x < l.Nx; x++ {
				for b := int8(0); b <= 1; b++ {
					c := Coord{int32(x), int32(y), int32(z), b}
					idx := l.Index(c)
					if idx < 0 || idx >= l.NumSites() {
						t.Fatalf("index %d out of range for %+v", idx, c)
					}
					if seen[idx] {
						t.Fatalf("duplicate index %d", idx)
					}
					seen[idx] = true
					if got := l.Coord(idx); got != c {
						t.Fatalf("Coord(Index(%+v)) = %+v", c, got)
					}
				}
			}
		}
	}
	if len(seen) != l.NumSites() {
		t.Fatalf("covered %d of %d sites", len(seen), l.NumSites())
	}
}

func TestWrapProperty(t *testing.T) {
	l := New(4, 5, 6, a0)
	f := func(x, y, z int16, b bool) bool {
		var bb int8
		if b {
			bb = 1
		}
		c := l.Wrap(Coord{int32(x), int32(y), int32(z), bb})
		inBox := c.X >= 0 && int(c.X) < l.Nx &&
			c.Y >= 0 && int(c.Y) < l.Ny &&
			c.Z >= 0 && int(c.Z) < l.Nz
		// Wrapping must be idempotent and congruent mod box size.
		congruent := (int32(x)-c.X)%int32(l.Nx) == 0 &&
			(int32(y)-c.Y)%int32(l.Ny) == 0 &&
			(int32(z)-c.Z)%int32(l.Nz) == 0
		return inBox && congruent && l.Wrap(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPositionBasis(t *testing.T) {
	l := New(3, 3, 3, a0)
	corner := l.Position(Coord{1, 2, 0, 0})
	if corner != (vec.V{X: a0, Y: 2 * a0, Z: 0}) {
		t.Errorf("corner position = %v", corner)
	}
	center := l.Position(Coord{0, 0, 0, 1})
	want := vec.V{X: a0 / 2, Y: a0 / 2, Z: a0 / 2}
	if vec.Dist(center, want) > 1e-12 {
		t.Errorf("center position = %v, want %v", center, want)
	}
}

// nearestSite is NearestSiteUnwrapped wrapped into the box: the lattice
// coordinate whose ideal position is closest to p.
func nearestSite(l *Lattice, p vec.V) Coord { return l.Wrap(l.NearestSiteUnwrapped(p)) }

func TestNearestSiteExactOnSites(t *testing.T) {
	l := New(4, 4, 4, a0)
	for idx := 0; idx < l.NumSites(); idx++ {
		c := l.Coord(idx)
		if got := nearestSite(l, l.Position(c)); got != c {
			t.Fatalf("NearestSite(Position(%+v)) = %+v", c, got)
		}
	}
}

func TestNearestSitePerturbed(t *testing.T) {
	l := New(4, 4, 4, a0)
	// Displacements below half the 1NN distance must keep the assignment.
	d := 0.4 * l.FirstNeighborDistance() / 2
	for idx := 0; idx < l.NumSites(); idx += 7 {
		c := l.Coord(idx)
		p := l.Position(c).Add(vec.V{X: d, Y: -d / 2, Z: d / 3})
		if got := nearestSite(l, p); got != c {
			t.Fatalf("perturbed NearestSite = %+v, want %+v", got, c)
		}
	}
}

func TestMinImage(t *testing.T) {
	l := New(4, 4, 4, a0)
	side := l.Side()
	// Two points across the periodic boundary are close.
	pa := vec.V{X: 0.1, Y: 0, Z: 0}
	pb := vec.V{X: side.X - 0.1, Y: 0, Z: 0}
	d := l.MinImage(pa, pb)
	if math.Abs(d.X-0.2) > 1e-12 || d.Y != 0 || d.Z != 0 {
		t.Errorf("MinImage = %v, want {0.2 0 0}", d)
	}
}

func TestFirstNeighborDistance(t *testing.T) {
	l := New(2, 2, 2, a0)
	want := a0 * math.Sqrt(3) / 2
	if got := l.FirstNeighborDistance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("1NN distance = %v, want %v", got, want)
	}
}

func TestNeighborOffsetsShells(t *testing.T) {
	l := New(8, 8, 8, a0)
	// Cutoff just above the 2NN distance a: shells are 8 (1NN) + 6 (2NN).
	tab := l.NeighborOffsets(a0 * 1.01)
	for b := int8(0); b <= 1; b++ {
		offs := tab.PerBase[b]
		if len(offs) != 14 {
			t.Fatalf("basis %d: %d offsets within 1.01a, want 14", b, len(offs))
		}
		first := tab.FirstShell(b)
		if len(first) != 8 {
			t.Fatalf("basis %d: first shell has %d sites, want 8", b, len(first))
		}
		for _, o := range first {
			if math.Abs(o.R-l.FirstNeighborDistance()) > 1e-9 {
				t.Fatalf("first-shell distance %v", o.R)
			}
			if o.DB == b {
				t.Fatalf("BCC 1NN must change basis, got offset %+v for basis %d", o, b)
			}
		}
	}
}

func TestNeighborOffsetsSymmetry(t *testing.T) {
	// Every offset from basis b to basis nb must have a mirror offset from
	// basis nb back to basis b with negated displacement.
	l := New(8, 8, 8, a0)
	tab := l.NeighborOffsets(2.5 * a0)
	for b := int8(0); b <= 1; b++ {
		for _, o := range tab.PerBase[b] {
			found := false
			for _, back := range tab.PerBase[o.DB] {
				if back.DB == b && back.Disp.Add(o.Disp).Norm() < 1e-9 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("offset %+v from basis %d has no mirror", o, b)
			}
		}
	}
}

func TestNeighborOffsetsAgreeWithBruteForce(t *testing.T) {
	l := New(10, 10, 10, a0)
	cutoff := 1.97 * a0
	tab := l.NeighborOffsets(cutoff)
	// Brute force from a central interior site.
	for b := int8(0); b <= 1; b++ {
		central := Coord{5, 5, 5, b}
		origin := l.Position(central)
		brute := make(map[Coord]bool)
		for idx := 0; idx < l.NumSites(); idx++ {
			c := l.Coord(idx)
			if c == central {
				continue
			}
			if vec.Dist(l.Position(c), origin) <= cutoff {
				brute[c] = true
			}
		}
		if len(brute) != len(tab.PerBase[b]) {
			t.Fatalf("basis %d: brute force %d, table %d", b, len(brute), len(tab.PerBase[b]))
		}
		for _, o := range tab.PerBase[b] {
			n := o.Apply(central)
			if !brute[n] {
				t.Fatalf("offset %+v lands on %+v not found by brute force", o, n)
			}
		}
	}
}

func TestOffsetDistancesMatchDisp(t *testing.T) {
	l := New(6, 6, 6, a0)
	tab := l.NeighborOffsets(2.2 * a0)
	for b := 0; b < 2; b++ {
		prev := 0.0
		for _, o := range tab.PerBase[b] {
			if math.Abs(o.Disp.Norm()-o.R) > 1e-12 {
				t.Fatalf("offset %+v: |Disp| != R", o)
			}
			if o.R < prev-1e-12 {
				t.Fatalf("offsets not sorted by distance")
			}
			prev = o.R
		}
	}
}

func TestMaxCellReach(t *testing.T) {
	l := New(8, 8, 8, a0)
	tab := l.NeighborOffsets(1.97 * a0) // within 2 cells
	if got := tab.MaxCellReach(); got != 2 {
		t.Errorf("MaxCellReach = %d, want 2", got)
	}
}

func TestNeighborOffsetsPanicsOnBadCutoff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for non-positive cutoff")
		}
	}()
	New(2, 2, 2, a0).NeighborOffsets(0)
}

func TestNearestSiteMatchesBruteForce(t *testing.T) {
	l := New(4, 4, 4, a0)
	// Random probe points: the analytic nearest-site must match an
	// exhaustive search over all sites and their periodic images.
	f := func(xr, yr, zr uint16) bool {
		p := vec.V{
			X: float64(xr) / 65535 * l.Side().X,
			Y: float64(yr) / 65535 * l.Side().Y,
			Z: float64(zr) / 65535 * l.Side().Z,
		}
		got := nearestSite(l, p)
		best := math.Inf(1)
		var want Coord
		for idx := 0; idx < l.NumSites(); idx++ {
			c := l.Coord(idx)
			if d := l.MinImage(p, l.Position(c)).Norm(); d < best {
				best = d
				want = c
			}
		}
		gotD := l.MinImage(p, l.Position(got)).Norm()
		// Ties are possible on cell boundaries; accept equal distance.
		return math.Abs(gotD-best) < 1e-9 || got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNearestSiteUnwrappedKeepsImage(t *testing.T) {
	l := New(4, 4, 4, a0)
	// A point just outside the box maps to an out-of-box coordinate.
	p := vec.V{X: -0.3, Y: 0.1, Z: 0.2}
	c := l.NearestSiteUnwrapped(p)
	if c.X != 0 || c.B != 0 {
		t.Errorf("unwrapped nearest of %v = %+v", p, c)
	}
	q := vec.V{X: float64(l.Nx)*l.A + 0.3, Y: 0, Z: 0}
	c2 := l.NearestSiteUnwrapped(q)
	if int(c2.X) != l.Nx {
		t.Errorf("beyond-box point anchored at %+v, want X=%d", c2, l.Nx)
	}
}
