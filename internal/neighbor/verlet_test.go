package neighbor

import (
	"mdkmc/internal/lattice"
	"mdkmc/internal/vec"
)

// VerletList is the classical per-atom neighbor list used by LAMMPS: every
// atom stores the indexes of all atoms within cutoff+skin, and the list is
// rebuilt only when some atom has moved more than half the skin since the
// last build. It is the memory-hungry baseline of the paper's comparison
// ("the memory consumption of neighbor list is costly"), kept test-only: the
// oracle of TestThreeStructuresAgree and a column of
// BenchmarkAblationNeighborStructures.
type VerletList struct {
	L      *lattice.Lattice
	Cutoff float64
	Skin   float64

	Neigh  [][]int32 // per-atom neighbor indexes (within cutoff+skin)
	refPos []vec.V   // positions at last build
	Builds int       // number of Build calls, for cost accounting
}

// NewVerletList creates an empty list for the periodic box of l.
func NewVerletList(l *lattice.Lattice, cutoff, skin float64) *VerletList {
	return &VerletList{L: l, Cutoff: cutoff, Skin: skin}
}

// Build recomputes every atom's neighbor list from scratch using an interior
// cell grid (O(N)).
func (v *VerletList) Build(pos []vec.V) {
	v.Builds++
	r := v.Cutoff + v.Skin
	grid := newCellGrid(v.L, r)
	grid.build(pos)
	if cap(v.Neigh) < len(pos) {
		v.Neigh = make([][]int32, len(pos))
	}
	v.Neigh = v.Neigh[:len(pos)]
	r2 := r * r
	for i := range pos {
		v.Neigh[i] = v.Neigh[i][:0]
		grid.eachNear(pos, i, r2, func(j int32) {
			v.Neigh[i] = append(v.Neigh[i], j)
		})
	}
	if cap(v.refPos) < len(pos) {
		v.refPos = make([]vec.V, len(pos))
	}
	v.refPos = v.refPos[:len(pos)]
	copy(v.refPos, pos)
}

// NeedsRebuild reports whether any atom moved more than skin/2 since the
// last Build (the standard safety criterion: two atoms approaching each
// other can close at most skin in combined displacement).
func (v *VerletList) NeedsRebuild(pos []vec.V) bool {
	if len(pos) != len(v.refPos) {
		return true
	}
	limit2 := (v.Skin / 2) * (v.Skin / 2)
	for i := range pos {
		if v.L.MinImage(pos[i], v.refPos[i]).Norm2() > limit2 {
			return true
		}
	}
	return false
}

// Neighbors returns atom i's neighbor candidates (within cutoff+skin;
// callers filter by the true cutoff).
func (v *VerletList) Neighbors(i int) []int32 { return v.Neigh[i] }

// MemoryBytes returns the heap footprint of the neighbor storage itself
// (lists + reference positions), excluding the atom arrays that every
// structure needs.
func (v *VerletList) MemoryBytes() int {
	total := 24 * cap(v.refPos) // refPos
	for i := range v.Neigh {
		total += 4*cap(v.Neigh[i]) + 24 // slice header + payload
	}
	return total
}

// cellGrid is a throwaway binning helper shared by VerletList and
// LinkedCell.
type cellGrid struct {
	l        *lattice.Lattice
	nc       [3]int
	head     []int32
	next     []int32
	invWidth [3]float64
}

func newCellGrid(l *lattice.Lattice, minWidth float64) *cellGrid {
	g := &cellGrid{l: l}
	side := l.Side()
	for d, s := range [3]float64{side.X, side.Y, side.Z} {
		n := int(s / minWidth)
		if n < 1 {
			n = 1
		}
		g.nc[d] = n
		g.invWidth[d] = float64(n) / s
	}
	g.head = make([]int32, g.nc[0]*g.nc[1]*g.nc[2])
	return g
}

func (g *cellGrid) cellOf(p vec.V) int {
	cx := wrapCell(int(p.X*g.invWidth[0]), g.nc[0])
	cy := wrapCell(int(p.Y*g.invWidth[1]), g.nc[1])
	cz := wrapCell(int(p.Z*g.invWidth[2]), g.nc[2])
	return (cz*g.nc[1]+cy)*g.nc[0] + cx
}

func wrapCell(c, n int) int {
	c %= n
	if c < 0 {
		c += n
	}
	return c
}

func (g *cellGrid) build(pos []vec.V) {
	for i := range g.head {
		g.head[i] = -1
	}
	if cap(g.next) < len(pos) {
		g.next = make([]int32, len(pos))
	}
	g.next = g.next[:len(pos)]
	for i, p := range pos {
		c := g.cellOf(p)
		g.next[i] = g.head[c]
		g.head[c] = int32(i)
	}
}

// eachNear calls fn for every atom j != i with |min-image(pos[j]-pos[i])|² <= r2,
// scanning the 27 surrounding cells (fewer when the grid is coarse).
func (g *cellGrid) eachNear(pos []vec.V, i int, r2 float64, fn func(j int32)) {
	p := pos[i]
	cx := wrapCell(int(p.X*g.invWidth[0]), g.nc[0])
	cy := wrapCell(int(p.Y*g.invWidth[1]), g.nc[1])
	cz := wrapCell(int(p.Z*g.invWidth[2]), g.nc[2])
	// When a dimension has fewer than 3 cells, scanning ±1 would visit the
	// same cell twice; restrict the stencil.
	span := func(n int) []int {
		switch {
		case n >= 3:
			return []int{-1, 0, 1}
		case n == 2:
			return []int{0, 1}
		default:
			return []int{0}
		}
	}
	var visited [27]int
	nVisited := 0
	for _, dz := range span(g.nc[2]) {
		for _, dy := range span(g.nc[1]) {
			for _, dx := range span(g.nc[0]) {
				c := (wrapCell(cz+dz, g.nc[2])*g.nc[1]+wrapCell(cy+dy, g.nc[1]))*g.nc[0] + wrapCell(cx+dx, g.nc[0])
				dup := false
				for _, seen := range visited[:nVisited] {
					if seen == c {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				visited[nVisited] = c
				nVisited++
				for j := g.head[c]; j >= 0; j = g.next[j] {
					if int(j) == i {
						continue
					}
					if g.l.MinImage(pos[j], p).Norm2() <= r2 {
						fn(j)
					}
				}
			}
		}
	}
}
