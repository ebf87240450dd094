package lattice

import (
	"fmt"
	"io"
)

// Box is the rectangular subdomain of unit cells owned by one process in the
// standard domain decomposition ("we use the standard domain decomposition
// to equally partition the simulation box", paper §2), together with a ghost
// halo wide enough to cover the interaction cutoff.
//
// Coordinates handled by a Box are *unwrapped* global cell coordinates: a
// ghost cell on the low side of a box at the box edge keeps its negative
// coordinate locally and is wrapped only when the owning rank is looked up.
type Box struct {
	L     *Lattice
	Lo    [3]int // first owned cell per dimension (inclusive)
	Hi    [3]int // one past the last owned cell (exclusive)
	Ghost int    // halo width in cells
}

// Ext returns the local storage extent (owned + both halos) in dimension d.
func (b *Box) Ext(d int) int { return b.Hi[d] - b.Lo[d] + 2*b.Ghost }

// OwnedCells returns the number of owned cells.
func (b *Box) OwnedCells() int {
	return (b.Hi[0] - b.Lo[0]) * (b.Hi[1] - b.Lo[1]) * (b.Hi[2] - b.Lo[2])
}

// NumOwnedSites returns the number of owned lattice sites.
func (b *Box) NumOwnedSites() int { return 2 * b.OwnedCells() }

// NumLocalSites returns the number of sites in local storage, halo included.
func (b *Box) NumLocalSites() int { return 2 * b.Ext(0) * b.Ext(1) * b.Ext(2) }

// InLocal reports whether the unwrapped global coordinate c falls inside the
// local storage region (owned or halo).
func (b *Box) InLocal(c Coord) bool {
	for d, v := range [3]int{int(c.X), int(c.Y), int(c.Z)} {
		if v < b.Lo[d]-b.Ghost || v >= b.Hi[d]+b.Ghost {
			return false
		}
	}
	return true
}

// Owns reports whether c (unwrapped) is an owned cell of this box.
func (b *Box) Owns(c Coord) bool {
	for d, v := range [3]int{int(c.X), int(c.Y), int(c.Z)} {
		if v < b.Lo[d] || v >= b.Hi[d] {
			return false
		}
	}
	return true
}

// LocalIndex maps an unwrapped global coordinate inside the local region to
// its dense local array index. It panics when c is outside the region; ghost
// exchange must have placed every referenced site beforehand.
func (b *Box) LocalIndex(c Coord) int {
	lx := int(c.X) - b.Lo[0] + b.Ghost
	ly := int(c.Y) - b.Lo[1] + b.Ghost
	lz := int(c.Z) - b.Lo[2] + b.Ghost
	ex, ey := b.Ext(0), b.Ext(1)
	if lx < 0 || lx >= ex || ly < 0 || ly >= ey || lz < 0 || lz >= b.Ext(2) {
		//mdvet:ignore errpanic documented contract: callers must pre-place every referenced site; an error return would poison the hot indexing path
		panic(fmt.Sprintf("lattice: coord %+v outside box [%v,%v)+g%d", c, b.Lo, b.Hi, b.Ghost))
	}
	return ((lz*ey+ly)*ex+lx)*2 + int(c.B)
}

// GlobalCoord inverts LocalIndex, returning the unwrapped global coordinate.
func (b *Box) GlobalCoord(local int) Coord {
	bb := int8(local & 1)
	cell := local >> 1
	ex, ey := b.Ext(0), b.Ext(1)
	lx := cell % ex
	cell /= ex
	ly := cell % ey
	lz := cell / ey
	return Coord{
		X: int32(lx + b.Lo[0] - b.Ghost),
		Y: int32(ly + b.Lo[1] - b.Ghost),
		Z: int32(lz + b.Lo[2] - b.Ghost),
		B: bb,
	}
}

// EachOwned calls fn for every owned site, in canonical owned order
// (x fastest, basis innermost).
func (b *Box) EachOwned(fn func(c Coord, local int)) {
	b.EachOwnedCellRange(0, b.OwnedCells(), fn)
}

// EachOwnedCellRange calls fn for the sites of owned cells [lo, hi) in the
// canonical owned-cell order; the ranges of a partition of [0, OwnedCells())
// tile EachOwned exactly. It is the work-splitting primitive of the CPE
// slab decomposition, and every force round walks it: the cell coordinates
// and the local index are computed once at lo and carried from cell to cell.
func (b *Box) EachOwnedCellRange(lo, hi int, fn func(c Coord, local int)) {
	if lo >= hi {
		return
	}
	nx := b.Hi[0] - b.Lo[0]
	ny := b.Hi[1] - b.Lo[1]
	x, y, z := lo%nx, (lo/nx)%ny, lo/(nx*ny)
	ex, ey := b.Ext(0), b.Ext(1)
	local := (((z+b.Ghost)*ey+y+b.Ghost)*ex + x + b.Ghost) * 2
	for cell := lo; cell < hi; cell++ {
		c := Coord{X: int32(x + b.Lo[0]), Y: int32(y + b.Lo[1]), Z: int32(z + b.Lo[2])}
		fn(c, local)
		c.B = 1
		fn(c, local+1)
		local += 2
		if x++; x == nx {
			x = 0
			local += 2 * (ex - nx) // over the two x halos
			if y++; y == ny {
				y = 0
				z++
				local += 2 * ex * (ey - ny) // over the two y halos
			}
		}
	}
}

// SpanCells returns the cell range [lo,hi) of worker i among n workers over
// the owned cells, remainder cells going to the lower workers.
func (b *Box) SpanCells(n, i int) (lo, hi int) { return span(b.OwnedCells(), n, i) }

// SpanLocalSites returns the local-site range [lo,hi) of worker i among n
// workers over all local sites (owned and ghost); the work-splitting
// primitive of passes that sweep the full halo, such as the embedding fill.
func (b *Box) SpanLocalSites(n, i int) (lo, hi int) { return span(b.NumLocalSites(), n, i) }

// Grid is a Cartesian process grid over the lattice cells. By default each
// dimension is split uniformly (span); a grid built by NewGridCuts instead
// carries explicit slab boundaries per dimension, the geometry the
// telemetry-driven repartitioner and the elastic-restart re-shard loader
// work in.
type Grid struct {
	L          *Lattice
	Px, Py, Pz int

	// cuts, when non-nil in a dimension, are the P_d+1 strictly increasing
	// slab boundaries of that dimension (first 0, last N_d). A nil slice
	// means the uniform span() split.
	cuts [3][]int
}

// ShardSource describes where an M-rank checkpoint of either engine came
// from: the source decomposition and a way to open each source rank's
// shard. Open is called with ranks 0..Grid.Ranks()-1 in order; the caller
// owns closing semantics through the returned ReadCloser.
type ShardSource struct {
	Grid *Grid
	Open func(rank int) (io.ReadCloser, error)
}

// NewGrid validates and builds a process grid. Each dimension of the process
// grid must not exceed the cell count of that dimension.
func NewGrid(l *Lattice, px, py, pz int) (*Grid, error) {
	if px <= 0 || py <= 0 || pz <= 0 {
		return nil, fmt.Errorf("lattice: non-positive process grid %dx%dx%d", px, py, pz)
	}
	if px > l.Nx || py > l.Ny || pz > l.Nz {
		return nil, fmt.Errorf("lattice: process grid %dx%dx%d exceeds cells %dx%dx%d",
			px, py, pz, l.Nx, l.Ny, l.Nz)
	}
	return &Grid{L: l, Px: px, Py: py, Pz: pz}, nil
}

// NewGridCuts builds a rectilinear process grid with explicit slab
// boundaries. cuts[d] must hold P_d+1 strictly increasing values starting at
// 0 and ending at the cell count of dimension d; every slab must be at least
// one cell wide. A nil cuts[d] falls back to the uniform split of that
// dimension.
func NewGridCuts(l *Lattice, px, py, pz int, cuts [3][]int) (*Grid, error) {
	g, err := NewGrid(l, px, py, pz)
	if err != nil {
		return nil, err
	}
	dims := [3]int{l.Nx, l.Ny, l.Nz}
	ps := [3]int{px, py, pz}
	for d := 0; d < 3; d++ {
		cs := cuts[d]
		if cs == nil {
			continue
		}
		if len(cs) != ps[d]+1 {
			return nil, fmt.Errorf("lattice: dim %d has %d cut values, want %d for %d slabs",
				d, len(cs), ps[d]+1, ps[d])
		}
		if cs[0] != 0 || cs[len(cs)-1] != dims[d] {
			return nil, fmt.Errorf("lattice: dim %d cuts %v must start at 0 and end at %d",
				d, cs, dims[d])
		}
		for i := 1; i < len(cs); i++ {
			if cs[i] <= cs[i-1] {
				return nil, fmt.Errorf("lattice: dim %d cuts %v not strictly increasing", d, cs)
			}
		}
		g.cuts[d] = append([]int(nil), cs...)
	}
	return g, nil
}

// Cuts returns the materialized slab boundaries of every dimension (the
// uniform span boundaries when no explicit cuts were set): cuts[d] has
// P_d+1 entries, first 0, last the cell count. The result is a copy.
func (g *Grid) Cuts() [3][]int {
	dims := [3]int{g.L.Nx, g.L.Ny, g.L.Nz}
	ps := [3]int{g.Px, g.Py, g.Pz}
	var out [3][]int
	for d := 0; d < 3; d++ {
		out[d] = make([]int, ps[d]+1)
		if g.cuts[d] != nil {
			copy(out[d], g.cuts[d])
			continue
		}
		for i := 0; i < ps[d]; i++ {
			lo, hi := span(dims[d], ps[d], i)
			out[d][i] = lo
			out[d][i+1] = hi
		}
	}
	return out
}

// Ranks returns the total rank count Px*Py*Pz.
func (g *Grid) Ranks() int { return g.Px * g.Py * g.Pz }

// RankCoord returns the process-grid coordinates of rank r (x fastest).
func (g *Grid) RankCoord(r int) (x, y, z int) {
	x = r % g.Px
	r /= g.Px
	y = r % g.Py
	z = r / g.Py
	return
}

// Rank returns the rank at process-grid coordinates, wrapped periodically.
func (g *Grid) Rank(x, y, z int) int {
	x = int(wrapInt(int32(x), int32(g.Px)))
	y = int(wrapInt(int32(y), int32(g.Py)))
	z = int(wrapInt(int32(z), int32(g.Pz)))
	return (z*g.Py+y)*g.Px + x
}

// span returns the cell range [lo,hi) of slot i among p slots over n cells,
// distributing remainders to the lower slots.
func span(n, p, i int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Box returns the subdomain owned by rank r with the given ghost width.
func (g *Grid) Box(r, ghost int) *Box {
	x, y, z := g.RankCoord(r)
	b := &Box{L: g.L, Ghost: ghost}
	for d, slot := range [3]int{x, y, z} {
		if cs := g.cuts[d]; cs != nil {
			b.Lo[d], b.Hi[d] = cs[slot], cs[slot+1]
		} else {
			dims := [3]int{g.L.Nx, g.L.Ny, g.L.Nz}
			ps := [3]int{g.Px, g.Py, g.Pz}
			b.Lo[d], b.Hi[d] = span(dims[d], ps[d], slot)
		}
	}
	return b
}

// RankOfCell returns the rank owning the wrapped global cell (x,y,z).
func (g *Grid) RankOfCell(x, y, z int32) int {
	return g.Rank(g.Slot(0, x), g.Slot(1, y), g.Slot(2, z))
}

// Slot returns which of the P_d slabs of dimension d contains cell
// coordinate v (wrapped periodically), consulting explicit cuts when
// present. The grid is rectilinear, so a cell's owner is the rank at its
// three slots.
func (g *Grid) Slot(d int, v int32) int {
	n := [3]int{g.L.Nx, g.L.Ny, g.L.Nz}[d]
	p := [3]int{g.Px, g.Py, g.Pz}[d]
	w := int(wrapInt(v, int32(n)))
	cs := g.cuts[d]
	if cs == nil {
		return slotOf(w, n, p)
	}
	// Binary search: largest i with cs[i] <= w.
	lo, hi := 0, p-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if cs[mid] <= w {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// slotOf inverts span: which of the p slots contains cell v of n.
func slotOf(v, n, p int) int {
	base, rem := n/p, n%p
	// First rem slots have base+1 cells.
	boundary := rem * (base + 1)
	if v < boundary {
		return v / (base + 1)
	}
	if base == 0 {
		return rem - 1 // unreachable when grid validated: p <= n
	}
	return rem + (v-boundary)/base
}
