// Package lattice models the Body-Centered Cubic (BCC) crystal geometry of
// the simulated iron sample: site coordinates, dense linear indexing in
// spatial order (the ordering that makes the paper's lattice neighbor list
// possible), periodic boundary handling, static neighbor-offset generation,
// and the per-process subdomain boxes used by the domain decomposition.
//
// A BCC crystal with Nx×Ny×Nz unit cells has two sites per cell: the cube
// corner (basis 0) at (i,j,k)·a and the body center (basis 1) at
// (i+½, j+½, k+½)·a, where a is the lattice constant. Sites are stored in
// the spatial order ((k·Ny + j)·Nx + i)·2 + basis, so the array index of any
// neighbor is the index of the central site plus a static, basis-dependent
// offset — the key property exploited by the lattice neighbor list
// (paper §2.1.1).
package lattice

import (
	"fmt"
	"math"

	"mdkmc/internal/vec"
)

// Coord identifies a lattice site by unit cell (X, Y, Z) and basis B
// (0 = corner, 1 = body center). Cell coordinates may lie outside the
// simulation box before periodic wrapping.
type Coord struct {
	X, Y, Z int32
	B       int8
}

// Lattice describes a periodic BCC simulation box.
type Lattice struct {
	Nx, Ny, Nz int     // unit cells per dimension
	A          float64 // lattice constant in Å
}

// New returns a BCC lattice with the given cell counts and lattice constant.
// It panics on non-positive arguments: a zero-size simulation box is always
// a programming error.
func New(nx, ny, nz int, a float64) *Lattice {
	if nx <= 0 || ny <= 0 || nz <= 0 || a <= 0 {
		//mdvet:ignore errpanic documented constructor precondition: config validation rejects bad geometry before any New call
		panic(fmt.Sprintf("lattice: invalid geometry %dx%dx%d a=%v", nx, ny, nz, a))
	}
	return &Lattice{Nx: nx, Ny: ny, Nz: nz, A: a}
}

// NumSites returns the total number of lattice sites (2 per unit cell).
func (l *Lattice) NumSites() int { return 2 * l.Nx * l.Ny * l.Nz }

// Side returns the box edge lengths in Å.
func (l *Lattice) Side() vec.V {
	return vec.V{X: float64(l.Nx) * l.A, Y: float64(l.Ny) * l.A, Z: float64(l.Nz) * l.A}
}

// Index maps a wrapped coordinate to its dense linear index in spatial
// order. The coordinate must already be inside the box (use Wrap first for
// coordinates that may have crossed a periodic boundary).
func (l *Lattice) Index(c Coord) int {
	return ((int(c.Z)*l.Ny+int(c.Y))*l.Nx+int(c.X))*2 + int(c.B)
}

// Coord inverts Index.
func (l *Lattice) Coord(idx int) Coord {
	b := int8(idx & 1)
	cell := idx >> 1
	x := cell % l.Nx
	cell /= l.Nx
	y := cell % l.Ny
	z := cell / l.Ny
	return Coord{X: int32(x), Y: int32(y), Z: int32(z), B: b}
}

// Wrap applies periodic boundary conditions to c, returning the canonical
// in-box coordinate.
func (l *Lattice) Wrap(c Coord) Coord {
	c.X = wrapInt(c.X, int32(l.Nx))
	c.Y = wrapInt(c.Y, int32(l.Ny))
	c.Z = wrapInt(c.Z, int32(l.Nz))
	return c
}

func wrapInt(v, n int32) int32 {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// Position returns the ideal (undisplaced) position of site c in Å. Each
// product is rounded on its own, so no caller fuses it into a later add or
// subtract (see vec.V.Dot).
func (l *Lattice) Position(c Coord) vec.V {
	half := float64(0.5 * float64(c.B))
	return vec.V{
		X: float64((float64(c.X) + half) * l.A),
		Y: float64((float64(c.Y) + half) * l.A),
		Z: float64((float64(c.Z) + half) * l.A),
	}
}

// NearestSiteUnwrapped returns the lattice coordinate whose ideal position
// is closest to p. This is the Wigner-Seitz cell assignment that links
// run-away atoms to their nearest lattice point (paper §2.1.1, Figure 3).
// There is no periodic wrap: the result keeps the (possibly out-of-box) cell
// coordinates of the image nearest to p, which is what a subdomain working
// in its own unwrapped frame needs.
func (l *Lattice) NearestSiteUnwrapped(p vec.V) Coord {
	// Candidate 1: nearest corner site.
	corner := Coord{
		X: int32(math.Round(p.X / l.A)),
		Y: int32(math.Round(p.Y / l.A)),
		Z: int32(math.Round(p.Z / l.A)),
		B: 0,
	}
	// Candidate 2: nearest body-center site.
	center := Coord{
		X: int32(math.Round(p.X/l.A - 0.5)),
		Y: int32(math.Round(p.Y/l.A - 0.5)),
		Z: int32(math.Round(p.Z/l.A - 0.5)),
		B: 1,
	}
	dc := vec.Dist(p, l.Position(corner))
	db := vec.Dist(p, l.Position(center))
	if dc <= db {
		return corner
	}
	return center
}

// MinImage returns the minimum-image displacement d = a - b under periodic
// boundary conditions, i.e. the shortest vector from b to a.
func (l *Lattice) MinImage(a, b vec.V) vec.V {
	side := l.Side()
	d := a.Sub(b)
	d.X -= side.X * math.Round(d.X/side.X)
	d.Y -= side.Y * math.Round(d.Y/side.Y)
	d.Z -= side.Z * math.Round(d.Z/side.Z)
	return d
}

// FirstNeighborDistance returns the 1NN distance a·√3/2 (corner to body
// center).
func (l *Lattice) FirstNeighborDistance() float64 { return l.A * math.Sqrt(3) / 2 }
