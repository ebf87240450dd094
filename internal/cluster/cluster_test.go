package cluster

import (
	"strings"
	"testing"
	"testing/quick"

	"mdkmc/internal/lattice"
	"mdkmc/internal/rng"
)

const a0 = 2.855

func TestEmpty(t *testing.T) {
	l := lattice.New(4, 4, 4, a0)
	a := Vacancies(l, nil, 1)
	if a.NumVacancies != 0 || a.NumClusters != 0 || a.ClusteredFraction != 0 {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestSingleton(t *testing.T) {
	l := lattice.New(4, 4, 4, a0)
	a := Vacancies(l, []lattice.Coord{{X: 1, Y: 1, Z: 1, B: 0}}, 1)
	if a.NumClusters != 1 || a.Largest != 1 || a.ClusteredFraction != 0 {
		t.Errorf("singleton analysis: %+v", a)
	}
}

func TestAdjacentPairClusters(t *testing.T) {
	l := lattice.New(6, 6, 6, a0)
	// Corner (2,2,2) and center (2,2,2) are 1NN.
	sites := []lattice.Coord{
		{X: 2, Y: 2, Z: 2, B: 0},
		{X: 2, Y: 2, Z: 2, B: 1},
	}
	a := Vacancies(l, sites, 1)
	if a.NumClusters != 1 || a.Largest != 2 {
		t.Errorf("pair analysis: %+v", a)
	}
	if a.ClusteredFraction != 1 {
		t.Errorf("clustered fraction %v", a.ClusteredFraction)
	}
}

func TestSeparatedPairDoesNotCluster(t *testing.T) {
	l := lattice.New(8, 8, 8, a0)
	sites := []lattice.Coord{
		{X: 1, Y: 1, Z: 1, B: 0},
		{X: 5, Y: 5, Z: 5, B: 0},
	}
	a := Vacancies(l, sites, 2)
	if a.NumClusters != 2 || a.Largest != 1 {
		t.Errorf("separated analysis: %+v", a)
	}
}

func TestSecondShellOption(t *testing.T) {
	l := lattice.New(8, 8, 8, a0)
	// Two corners one lattice constant apart: 2NN.
	sites := []lattice.Coord{
		{X: 2, Y: 2, Z: 2, B: 0},
		{X: 3, Y: 2, Z: 2, B: 0},
	}
	if a := Vacancies(l, sites, 1); a.NumClusters != 2 {
		t.Errorf("1-shell should not join 2NN: %+v", a)
	}
	if a := Vacancies(l, sites, 2); a.NumClusters != 1 {
		t.Errorf("2-shell should join 2NN: %+v", a)
	}
}

func TestPeriodicWrapJoins(t *testing.T) {
	l := lattice.New(6, 6, 6, a0)
	// The center of the last cell and the corner of the first are 1NN
	// across the periodic boundary.
	sites := []lattice.Coord{
		{X: 5, Y: 5, Z: 5, B: 1},
		{X: 0, Y: 0, Z: 0, B: 0},
	}
	a := Vacancies(l, sites, 1)
	if a.NumClusters != 1 {
		t.Errorf("periodic 1NN pair not joined: %+v", a)
	}
}

// bruteForce is an O(N^2) flood-fill reference.
func bruteForce(l *lattice.Lattice, sites []lattice.Coord, cutoff float64) int {
	n := len(sites)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := l.MinImage(l.Position(sites[i]), l.Position(sites[j])).Norm()
			if d <= cutoff+1e-9 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	seen := make([]bool, n)
	clusters := 0
	var stack []int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		clusters++
		stack = append(stack[:0], i)
		seen[i] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
	}
	return clusters
}

func TestUnionFindMatchesFloodFill(t *testing.T) {
	l := lattice.New(8, 8, 8, a0)
	r := rng.New(17)
	f := func(seed uint16) bool {
		r.Reseed(uint64(seed))
		nSites := 5 + r.Intn(40)
		seen := map[int]bool{}
		var sites []lattice.Coord
		for len(sites) < nSites {
			g := r.Intn(l.NumSites())
			if !seen[g] {
				seen[g] = true
				sites = append(sites, l.Coord(g))
			}
		}
		a := Vacancies(l, sites, 1)
		want := bruteForce(l, sites, l.FirstNeighborDistance())
		return a.NumClusters == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramAndString(t *testing.T) {
	l := lattice.New(6, 6, 6, a0)
	sites := []lattice.Coord{
		{X: 2, Y: 2, Z: 2, B: 0},
		{X: 2, Y: 2, Z: 2, B: 1},
		{X: 5, Y: 1, Z: 1, B: 0},
	}
	a := Vacancies(l, sites, 1)
	if !strings.Contains(a.String(), "clusters=2") {
		t.Errorf("String() = %q", a.String())
	}
	if len(a.Sizes) != 2 || a.Sizes[1] != 1 || a.Sizes[2] != 1 {
		t.Errorf("size histogram %v, want one cluster each of sizes 1 and 2", a.Sizes)
	}
}

func TestRender(t *testing.T) {
	l := lattice.New(6, 6, 6, a0)
	sites := []lattice.Coord{{X: 0, Y: 0, Z: 0, B: 0}, {X: 5, Y: 5, Z: 0, B: 0}}
	img := Render(l, sites, 12, 6)
	lines := strings.Split(strings.TrimRight(img, "\n"), "\n")
	if len(lines) != 6 || len(lines[0]) != 12 {
		t.Fatalf("render shape wrong: %d lines", len(lines))
	}
	nonEmpty := strings.Count(img, "1")
	if nonEmpty != 2 {
		t.Errorf("render should show 2 sites, got %d", nonEmpty)
	}
	if Render(l, sites, 0, 5) != "" {
		t.Errorf("degenerate render should be empty")
	}
}
