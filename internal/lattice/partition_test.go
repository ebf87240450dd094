package lattice

import (
	"reflect"
	"testing"
)

// ownerGrids is the matrix of decompositions the re-shard loader must handle:
// non-square and non-power-of-two rank grids over non-divisible cell counts,
// with and without explicit cuts.
var ownerGrids = []struct {
	name       string
	nx, ny, nz int
	px, py, pz int
	cuts       [3][]int // zero value = uniform
}{
	{name: "serial", nx: 5, ny: 7, nz: 3, px: 1, py: 1, pz: 1},
	{name: "slab-3", nx: 11, ny: 4, nz: 4, px: 3, py: 1, pz: 1},
	{name: "pencil-3x2", nx: 9, ny: 7, nz: 5, px: 3, py: 2, pz: 1},
	{name: "brick-2x3x5", nx: 8, ny: 9, nz: 11, px: 2, py: 3, pz: 5},
	{name: "tall-1x1x7", nx: 4, ny: 4, nz: 15, px: 1, py: 1, pz: 7},
	{name: "prime-13", nx: 13, ny: 3, nz: 3, px: 13, py: 1, pz: 1},
	{
		name: "cuts-skewed-x", nx: 12, ny: 6, nz: 6, px: 3, py: 1, pz: 1,
		cuts: [3][]int{{0, 2, 5, 12}, nil, nil},
	},
	{
		name: "cuts-mixed", nx: 10, ny: 9, nz: 8, px: 2, py: 3, pz: 2,
		cuts: [3][]int{{0, 7, 10}, {0, 2, 4, 9}, nil},
	},
}

func buildGrid(t *testing.T, nx, ny, nz, px, py, pz int, cuts [3][]int) *Grid {
	t.Helper()
	l := New(nx, ny, nz, a0)
	g, err := NewGridCuts(l, px, py, pz, cuts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEveryCellOwnedExactlyOnce asserts the owner-mapping invariant the
// re-shard loader depends on: across all rank boxes, every global cell is
// owned by exactly one rank, and RankOfCell agrees with Box.Owns.
func TestEveryCellOwnedExactlyOnce(t *testing.T) {
	for _, tc := range ownerGrids {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGrid(t, tc.nx, tc.ny, tc.nz, tc.px, tc.py, tc.pz, tc.cuts)
			owner := make(map[[3]int]int)
			for r := 0; r < g.Ranks(); r++ {
				b := g.Box(r, 1)
				if b.OwnedCells() < 1 {
					t.Fatalf("rank %d owns %d cells", r, b.OwnedCells())
				}
				for z := b.Lo[2]; z < b.Hi[2]; z++ {
					for y := b.Lo[1]; y < b.Hi[1]; y++ {
						for x := b.Lo[0]; x < b.Hi[0]; x++ {
							if prev, dup := owner[[3]int{x, y, z}]; dup {
								t.Fatalf("cell (%d,%d,%d) owned by ranks %d and %d", x, y, z, prev, r)
							}
							owner[[3]int{x, y, z}] = r
						}
					}
				}
			}
			if len(owner) != tc.nx*tc.ny*tc.nz {
				t.Fatalf("boxes cover %d cells, want %d", len(owner), tc.nx*tc.ny*tc.nz)
			}
			for cell, r := range owner {
				if got := g.RankOfCell(int32(cell[0]), int32(cell[1]), int32(cell[2])); got != r {
					t.Fatalf("RankOfCell(%v) = %d, but box of rank %d owns it", cell, got, r)
				}
			}
		})
	}
}

// TestGhostHalosSymmetric asserts halo symmetry: whenever a ghost cell of
// rank a is owned by rank b, some ghost cell of rank b is owned by rank a.
// Asymmetric halos would deadlock the ghost exchange.
func TestGhostHalosSymmetric(t *testing.T) {
	for _, tc := range ownerGrids {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGrid(t, tc.nx, tc.ny, tc.nz, tc.px, tc.py, tc.pz, tc.cuts)
			peers := make(map[[2]int]bool)
			for r := 0; r < g.Ranks(); r++ {
				b := g.Box(r, 1)
				for z := b.Lo[2] - b.Ghost; z < b.Hi[2]+b.Ghost; z++ {
					for y := b.Lo[1] - b.Ghost; y < b.Hi[1]+b.Ghost; y++ {
						for x := b.Lo[0] - b.Ghost; x < b.Hi[0]+b.Ghost; x++ {
							if b.Owns(Coord{X: int32(x), Y: int32(y), Z: int32(z)}) {
								continue
							}
							o := g.RankOfCell(int32(x), int32(y), int32(z))
							if o != r {
								peers[[2]int{r, o}] = true
							}
						}
					}
				}
			}
			for p := range peers {
				if !peers[[2]int{p[1], p[0]}] {
					t.Errorf("rank %d reads ghosts from %d but not vice versa", p[0], p[1])
				}
			}
		})
	}
}

func TestNewGridCutsValidation(t *testing.T) {
	l := New(10, 10, 10, a0)
	cases := []struct {
		name string
		cuts [3][]int
	}{
		{"wrong-length", [3][]int{{0, 10}, nil, nil}},
		{"bad-start", [3][]int{{1, 5, 10}, nil, nil}},
		{"bad-end", [3][]int{{0, 5, 9}, nil, nil}},
		{"non-increasing", [3][]int{{0, 5, 5, 10}, nil, nil}},
		{"decreasing", [3][]int{{0, 7, 3, 10}, nil, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			px := len(tc.cuts[0]) - 1
			if tc.name == "wrong-length" {
				px = 2
			}
			if _, err := NewGridCuts(l, px, 1, 1, tc.cuts); err == nil {
				t.Errorf("cuts %v accepted", tc.cuts[0])
			}
		})
	}
}

// TestCutsRoundTrip: rebuilding a grid from its materialized Cuts() yields
// identical boxes — the property elastic restart relies on when the manifest
// records the source topology.
func TestCutsRoundTrip(t *testing.T) {
	for _, tc := range ownerGrids {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGrid(t, tc.nx, tc.ny, tc.nz, tc.px, tc.py, tc.pz, tc.cuts)
			g2, err := NewGridCuts(g.L, tc.px, tc.py, tc.pz, g.Cuts())
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < g.Ranks(); r++ {
				a, b := g.Box(r, 2), g2.Box(r, 2)
				if a.Lo != b.Lo || a.Hi != b.Hi {
					t.Fatalf("rank %d box differs after round-trip: %v/%v vs %v/%v", r, a.Lo, a.Hi, b.Lo, b.Hi)
				}
			}
			if !reflect.DeepEqual(g.Cuts(), g2.Cuts()) {
				t.Errorf("Cuts not stable under round-trip")
			}
		})
	}
}

// uniform reports whether the grid uses the default uniform split in every
// dimension (no explicit cuts, or cuts equal to the uniform boundaries).
func uniform(g *Grid) bool {
	dims := [3]int{g.L.Nx, g.L.Ny, g.L.Nz}
	ps := [3]int{g.Px, g.Py, g.Pz}
	for d := 0; d < 3; d++ {
		if g.cuts[d] == nil {
			continue
		}
		for i := 0; i < ps[d]; i++ {
			lo, hi := span(dims[d], ps[d], i)
			if g.cuts[d][i] != lo || g.cuts[d][i+1] != hi {
				return false
			}
		}
	}
	return true
}

func TestUniformDetection(t *testing.T) {
	l := New(10, 8, 6, a0)
	g, err := NewGrid(l, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !uniform(g) {
		t.Errorf("plain grid not reported uniform")
	}
	// Explicit cuts equal to the uniform split are still uniform.
	gu, err := NewGridCuts(l, 2, 2, 2, g.Cuts())
	if err != nil {
		t.Fatal(err)
	}
	if !uniform(gu) {
		t.Errorf("explicit uniform cuts not reported uniform")
	}
	gs, err := NewGridCuts(l, 2, 2, 2, [3][]int{{0, 3, 10}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if uniform(gs) {
		t.Errorf("skewed cuts reported uniform")
	}
}

func TestFitCutsBalancesHotCore(t *testing.T) {
	l := New(16, 6, 6, a0)
	// Hot core in the low-x quarter, 9x the cost of the rest — the cascade
	// profile: the PKA region dominates.
	cost := func(x, y, z int) float64 {
		if x < 4 {
			return 10
		}
		return 1
	}
	cuts, err := FitCuts(l, 4, 1, 1, [3]int{2, 1, 1}, cost)
	if err != nil {
		t.Fatal(err)
	}
	cs := cuts[0]
	if cs[0] != 0 || cs[4] != 16 {
		t.Fatalf("cuts %v do not span [0,16]", cs)
	}
	// Slabs over the hot core must be narrower than cold slabs.
	if hot := cs[1] - cs[0]; hot >= 4 {
		t.Errorf("first slab width %d not shrunk toward hot core (cuts %v)", hot, cs)
	}
	// Per-slab cost imbalance must beat the uniform split's.
	slabCost := func(bounds []int) (maxC, sum float64) {
		for i := 0; i+1 < len(bounds); i++ {
			var c float64
			for x := bounds[i]; x < bounds[i+1]; x++ {
				for y := 0; y < 6; y++ {
					for z := 0; z < 6; z++ {
						c += cost(x, y, z)
					}
				}
			}
			if c > maxC {
				maxC = c
			}
			sum += c
		}
		return
	}
	fitMax, total := slabCost(cs)
	uniMax, _ := slabCost([]int{0, 4, 8, 12, 16})
	mean := total / 4
	if fitMax/mean >= uniMax/mean {
		t.Errorf("fitted imbalance %.2f not below uniform %.2f (cuts %v)", fitMax/mean, uniMax/mean, cs)
	}
	// minWidth respected.
	for i := 0; i+1 < len(cs); i++ {
		if cs[i+1]-cs[i] < 2 {
			t.Errorf("slab %d thinner than minWidth 2: cuts %v", i, cs)
		}
	}
}

func TestFitCutsZeroCostUniform(t *testing.T) {
	l := New(9, 9, 9, a0)
	cuts, err := FitCuts(l, 3, 2, 1, [3]int{1, 1, 1}, func(x, y, z int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 6, 9}; !reflect.DeepEqual(cuts[0], want) {
		t.Errorf("zero-cost x cuts %v, want %v", cuts[0], want)
	}
	if want := []int{0, 5, 9}; !reflect.DeepEqual(cuts[1], want) {
		t.Errorf("zero-cost y cuts %v, want %v", cuts[1], want)
	}
}

func TestFitCutsRejectsBadInput(t *testing.T) {
	l := New(6, 6, 6, a0)
	if _, err := FitCuts(l, 4, 1, 1, [3]int{2, 1, 1}, func(x, y, z int) float64 { return 1 }); err == nil {
		t.Errorf("4 slabs of width 2 in 6 cells accepted")
	}
	if _, err := FitCuts(l, 2, 1, 1, [3]int{1, 1, 1}, func(x, y, z int) float64 { return -1 }); err == nil {
		t.Errorf("negative cost accepted")
	}
}

func TestChooseGridNearCubic(t *testing.T) {
	cases := []struct {
		cells    [3]int
		ranks    int
		minWidth int
		want     [3]int
	}{
		{[3]int{12, 12, 12}, 8, 1, [3]int{2, 2, 2}},
		{[3]int{12, 12, 12}, 4, 5, [3]int{2, 2, 1}},
		{[3]int{12, 12, 12}, 2, 5, [3]int{2, 1, 1}},
		{[3]int{12, 12, 12}, 1, 5, [3]int{1, 1, 1}},
		{[3]int{15, 15, 15}, 3, 5, [3]int{3, 1, 1}},
		{[3]int{24, 6, 6}, 6, 3, [3]int{6, 1, 1}},
	}
	for _, tc := range cases {
		l := New(tc.cells[0], tc.cells[1], tc.cells[2], a0)
		px, py, pz, err := ChooseGrid(l, tc.ranks, tc.minWidth)
		if err != nil {
			t.Errorf("ChooseGrid(%v, %d, %d): %v", tc.cells, tc.ranks, tc.minWidth, err)
			continue
		}
		if got := [3]int{px, py, pz}; got != tc.want {
			t.Errorf("ChooseGrid(%v, %d, %d) = %v, want %v", tc.cells, tc.ranks, tc.minWidth, got, tc.want)
		}
	}
	// Infeasible: 5 ranks need a 5-slab axis but no axis fits 5*5 cells.
	l := New(12, 12, 12, a0)
	if _, _, _, err := ChooseGrid(l, 5, 5); err == nil {
		t.Errorf("infeasible grid request accepted")
	}
}
