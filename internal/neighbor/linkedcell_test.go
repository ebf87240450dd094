package neighbor

import (
	"mdkmc/internal/lattice"
	"mdkmc/internal/vec"
)

// LinkedCell is the cell-list baseline used by IMD, ls1-MarDyn and CoMD: the
// box is divided into cells at least one cutoff wide, atoms are binned each
// step, and interaction partners are found by scanning the surrounding
// cells. Memory is modest but the bins are rebuilt every step ("it should
// update the atoms within each cell at each time step, which leads to high
// computational overhead"). Like VerletList it is test-only.
type LinkedCell struct {
	L      *lattice.Lattice
	Cutoff float64

	grid   *cellGrid
	pos    []vec.V
	Builds int
}

// NewLinkedCell creates the structure for the periodic box of l.
func NewLinkedCell(l *lattice.Lattice, cutoff float64) *LinkedCell {
	return &LinkedCell{L: l, Cutoff: cutoff, grid: newCellGrid(l, cutoff)}
}

// Build bins the atoms; must be called whenever positions change.
func (c *LinkedCell) Build(pos []vec.V) {
	c.Builds++
	c.pos = pos
	c.grid.build(pos)
}

// EachNeighbor calls fn for every atom within cutoff of atom i.
func (c *LinkedCell) EachNeighbor(i int, fn func(j int32)) {
	c.grid.eachNear(c.pos, i, c.Cutoff*c.Cutoff, fn)
}

// MemoryBytes returns the heap footprint of the binning structure.
func (c *LinkedCell) MemoryBytes() int {
	return 4*len(c.grid.head) + 4*cap(c.grid.next)
}
