package lattice

import (
	"math"
	"sort"

	"mdkmc/internal/vec"
)

// Offset is a static displacement to a neighbor site, expressed in unit-cell
// deltas plus the basis of the neighbor. Because BCC is a Bravais lattice,
// the geometric displacement set is identical for every site; with the
// two-site-per-cell storage convention the cell deltas differ between the
// two bases, so offsets are generated per central basis.
type Offset struct {
	DX, DY, DZ int32   // unit-cell delta
	DB         int8    // neighbor basis minus nothing: the *absolute* basis of the neighbor
	R          float64 // distance to the neighbor in Å
	Disp       vec.V   // displacement vector in Å
}

// OffsetTable holds, for each central basis (0 = corner, 1 = center), the
// static offsets to all sites within the cutoff radius, sorted by distance.
// It is computed once at startup and shared read-only by all workers — the
// in-memory realization of the paper's "indexes of the neighbor atoms for
// each central atom can be calculated in the same way".
type OffsetTable struct {
	Cutoff  float64
	PerBase [2][]Offset
}

// Apply returns the (unwrapped) coordinate of the neighbor of c reached via
// o. The caller wraps it if periodic images are wanted.
func (o Offset) Apply(c Coord) Coord {
	return Coord{X: c.X + o.DX, Y: c.Y + o.DY, Z: c.Z + o.DZ, B: o.DB}
}

// NeighborOffsets enumerates all lattice sites within cutoff (exclusive of
// the site itself) of a central site of each basis. The search range is
// derived from the cutoff; results are sorted by (distance, cell delta,
// basis) so the table is deterministic.
func (l *Lattice) NeighborOffsets(cutoff float64) *OffsetTable {
	if cutoff <= 0 {
		//mdvet:ignore errpanic documented constructor precondition: the cutoff comes from the potential, not job input
		panic("lattice: non-positive cutoff")
	}
	reach := int32(math.Ceil(cutoff/l.A)) + 1
	t := &OffsetTable{Cutoff: cutoff}
	for b := int8(0); b <= 1; b++ {
		central := Coord{B: b}
		origin := l.Position(central)
		var offs []Offset
		for dz := -reach; dz <= reach; dz++ {
			for dy := -reach; dy <= reach; dy++ {
				for dx := -reach; dx <= reach; dx++ {
					for nb := int8(0); nb <= 1; nb++ {
						n := Coord{X: dx, Y: dy, Z: dz, B: nb}
						if n == central {
							continue
						}
						d := l.Position(n).Sub(origin)
						r := d.Norm()
						if r <= cutoff {
							offs = append(offs, Offset{
								DX: dx, DY: dy, DZ: dz, DB: nb, R: r, Disp: d,
							})
						}
					}
				}
			}
		}
		sort.Slice(offs, func(i, j int) bool {
			a, b := offs[i], offs[j]
			if a.R != b.R {
				return a.R < b.R
			}
			if a.DZ != b.DZ {
				return a.DZ < b.DZ
			}
			if a.DY != b.DY {
				return a.DY < b.DY
			}
			if a.DX != b.DX {
				return a.DX < b.DX
			}
			return a.DB < b.DB
		})
		t.PerBase[b] = offs
	}
	return t
}

// FirstShell returns the offsets of the first neighbor shell (the 8 nearest
// neighbors of BCC) for the given basis; these are the only sites a vacancy
// can exchange with in the KMC model ("there are eight possible events for a
// vacancy").
func (t *OffsetTable) FirstShell(basis int8) []Offset {
	offs := t.PerBase[basis]
	if len(offs) == 0 {
		return nil
	}
	first := offs[0].R
	n := 0
	for n < len(offs) && offs[n].R <= first+1e-9 {
		n++
	}
	return offs[:n]
}

// MaxCellReach returns the maximum |cell delta| in any dimension across the
// table; the ghost halo must be at least this many cells wide.
func (t *OffsetTable) MaxCellReach() int {
	max := int32(0)
	for b := 0; b < 2; b++ {
		for _, o := range t.PerBase[b] {
			for _, d := range [3]int32{o.DX, o.DY, o.DZ} {
				if d < 0 {
					d = -d
				}
				if d > max {
					max = d
				}
			}
		}
	}
	return int(max)
}
