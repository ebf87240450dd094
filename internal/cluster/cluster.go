// Package cluster analyzes the spatial distribution of vacancies: connected
// components under lattice adjacency (union-find), size histograms, and a
// dispersion metric. It quantifies the paper's Figure 17 observation that
// vacancies are "very dispersive" after MD and form clusters after KMC.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"mdkmc/internal/lattice"
)

// Analysis is the result of clustering a set of vacancy sites.
type Analysis struct {
	NumVacancies int
	NumClusters  int
	// Sizes is the cluster size histogram: Sizes[s] = number of clusters
	// with exactly s members (index 0 unused).
	Sizes map[int]int
	// Largest is the size of the largest cluster.
	Largest int
	// MeanSize is the average cluster size.
	MeanSize float64
	// ClusteredFraction is the fraction of vacancies in clusters of 2+.
	ClusteredFraction float64
}

// unionFind is a weighted quick-union with path compression.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Vacancies clusters the given (wrapped) vacancy sites of lattice l: two
// vacancies belong to the same cluster when they are within shells shells of
// each other (1 = first neighbors, 2 = first or second, ...).
func Vacancies(l *lattice.Lattice, sites []lattice.Coord, shells int) Analysis {
	if shells < 1 {
		shells = 1
	}
	// Adjacency cutoff: distance of the requested shell plus epsilon.
	dists := []float64{
		l.A * math.Sqrt(3) / 2, // 1NN
		l.A,                    // 2NN
		l.A * math.Sqrt2,       // 3NN
	}
	if shells > len(dists) {
		shells = len(dists)
	}
	cutoff := dists[shells-1] + 1e-9

	index := make(map[lattice.Coord]int, len(sites))
	for i, c := range sites {
		index[c] = i
	}
	tab := l.NeighborOffsets(cutoff)
	u := newUnionFind(len(sites))
	for i, c := range sites {
		for _, o := range tab.PerBase[c.B] {
			n := l.Wrap(o.Apply(c))
			if j, ok := index[n]; ok {
				u.union(i, j)
			}
		}
	}

	a := Analysis{NumVacancies: len(sites), Sizes: map[int]int{}}
	rootSize := map[int]int{}
	for i := range sites {
		rootSize[u.find(i)]++
	}
	clustered := 0
	for _, s := range rootSize {
		a.NumClusters++
		a.Sizes[s]++
		if s > a.Largest {
			a.Largest = s
		}
		if s >= 2 {
			clustered += s
		}
	}
	if a.NumClusters > 0 {
		a.MeanSize = float64(a.NumVacancies) / float64(a.NumClusters)
	}
	if a.NumVacancies > 0 {
		a.ClusteredFraction = float64(clustered) / float64(a.NumVacancies)
	}
	return a
}

// String renders the analysis as the one-line summary used by the
// experiment harnesses.
func (a Analysis) String() string {
	return fmt.Sprintf("vacancies=%d clusters=%d largest=%d mean=%.2f clustered=%.1f%%",
		a.NumVacancies, a.NumClusters, a.Largest, a.MeanSize, 100*a.ClusteredFraction)
}

// Render projects the vacancy sites onto the XY plane as ASCII art (the
// repository's stand-in for the paper's Figure 17 renderings): '.' for
// empty columns, digits/'#' for vacancy counts.
func Render(l *lattice.Lattice, sites []lattice.Coord, width, height int) string {
	if width < 1 || height < 1 {
		return ""
	}
	grid := make([]int, width*height)
	side := l.Side()
	for _, c := range sites {
		p := l.Position(c)
		x := int(p.X / side.X * float64(width))
		y := int(p.Y / side.Y * float64(height))
		if x >= width {
			x = width - 1
		}
		if y >= height {
			y = height - 1
		}
		grid[y*width+x]++
	}
	var b strings.Builder
	for y := height - 1; y >= 0; y-- {
		for x := 0; x < width; x++ {
			n := grid[y*width+x]
			switch {
			case n == 0:
				b.WriteByte('.')
			case n < 10:
				b.WriteByte(byte('0' + n))
			default:
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
