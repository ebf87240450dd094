package lattice

import (
	"testing"
	"testing/quick"
)

func TestGridValidation(t *testing.T) {
	l := New(4, 4, 4, a0)
	if _, err := NewGrid(l, 0, 1, 1); err == nil {
		t.Errorf("zero grid dimension accepted")
	}
	if _, err := NewGrid(l, 5, 1, 1); err == nil {
		t.Errorf("grid larger than cells accepted")
	}
	if _, err := NewGrid(l, 2, 2, 2); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestRankCoordBijection(t *testing.T) {
	l := New(12, 12, 12, a0)
	g, err := NewGrid(l, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Ranks(); r++ {
		x, y, z := g.RankCoord(r)
		if got := g.Rank(x, y, z); got != r {
			t.Fatalf("Rank(RankCoord(%d)) = %d", r, got)
		}
	}
	// Periodic wrapping of the process grid.
	if g.Rank(-1, 0, 0) != g.Rank(g.Px-1, 0, 0) {
		t.Errorf("negative rank coordinate not wrapped")
	}
}

func TestBoxesPartitionLattice(t *testing.T) {
	l := New(11, 7, 5, a0) // deliberately non-divisible
	g, err := NewGrid(l, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[[3]int]int)
	total := 0
	for r := 0; r < g.Ranks(); r++ {
		b := g.Box(r, 1)
		total += b.OwnedCells()
		for z := b.Lo[2]; z < b.Hi[2]; z++ {
			for y := b.Lo[1]; y < b.Hi[1]; y++ {
				for x := b.Lo[0]; x < b.Hi[0]; x++ {
					owned[[3]int{x, y, z}]++
				}
			}
		}
	}
	if total != l.Nx*l.Ny*l.Nz {
		t.Fatalf("boxes cover %d cells, want %d", total, l.Nx*l.Ny*l.Nz)
	}
	for cell, n := range owned {
		if n != 1 {
			t.Fatalf("cell %v owned by %d ranks", cell, n)
		}
	}
}

func TestRankOfCellMatchesBoxes(t *testing.T) {
	l := New(9, 10, 11, a0)
	g, err := NewGrid(l, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Ranks(); r++ {
		b := g.Box(r, 0)
		for z := b.Lo[2]; z < b.Hi[2]; z++ {
			for y := b.Lo[1]; y < b.Hi[1]; y++ {
				for x := b.Lo[0]; x < b.Hi[0]; x++ {
					if got := g.RankOfCell(int32(x), int32(y), int32(z)); got != r {
						t.Fatalf("RankOfCell(%d,%d,%d) = %d, want %d", x, y, z, got, r)
					}
				}
			}
		}
	}
	// Wrapped coordinates resolve to the same owner.
	if g.RankOfCell(-1, 0, 0) != g.RankOfCell(int32(l.Nx-1), 0, 0) {
		t.Errorf("RankOfCell does not wrap")
	}
}

func TestLocalIndexBijection(t *testing.T) {
	l := New(8, 8, 8, a0)
	g, err := NewGrid(l, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Box(3, 2)
	seen := make(map[int]bool)
	for z := b.Lo[2] - b.Ghost; z < b.Hi[2]+b.Ghost; z++ {
		for y := b.Lo[1] - b.Ghost; y < b.Hi[1]+b.Ghost; y++ {
			for x := b.Lo[0] - b.Ghost; x < b.Hi[0]+b.Ghost; x++ {
				for bb := int8(0); bb <= 1; bb++ {
					c := Coord{int32(x), int32(y), int32(z), bb}
					if !b.InLocal(c) {
						t.Fatalf("coord %+v should be in local region", c)
					}
					idx := b.LocalIndex(c)
					if idx < 0 || idx >= b.NumLocalSites() {
						t.Fatalf("local index %d out of range", idx)
					}
					if seen[idx] {
						t.Fatalf("duplicate local index %d", idx)
					}
					seen[idx] = true
					if got := b.GlobalCoord(idx); got != c {
						t.Fatalf("GlobalCoord(LocalIndex(%+v)) = %+v", c, got)
					}
				}
			}
		}
	}
	if len(seen) != b.NumLocalSites() {
		t.Fatalf("covered %d of %d local sites", len(seen), b.NumLocalSites())
	}
}

func TestLocalIndexPanicsOutside(t *testing.T) {
	l := New(8, 8, 8, a0)
	g, _ := NewGrid(l, 2, 2, 2)
	b := g.Box(0, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("LocalIndex outside region did not panic")
		}
	}()
	b.LocalIndex(Coord{X: int32(b.Hi[0] + b.Ghost), Y: 0, Z: 0})
}

func TestEachOwnedVisitsExactlyOwned(t *testing.T) {
	l := New(6, 6, 6, a0)
	g, _ := NewGrid(l, 2, 1, 1)
	b := g.Box(1, 1)
	count := 0
	b.EachOwned(func(c Coord, local int) {
		if !b.Owns(c) {
			t.Fatalf("EachOwned visited non-owned %+v", c)
		}
		if b.LocalIndex(c) != local {
			t.Fatalf("local index mismatch for %+v", c)
		}
		count++
	})
	if count != b.NumOwnedSites() {
		t.Errorf("EachOwned visited %d sites, want %d", count, b.NumOwnedSites())
	}
}

func TestEachOwnedCellRangeMatchesLocalIndex(t *testing.T) {
	// The range walk carries (x, y, z) and the local index from cell to cell
	// instead of deriving them; on a ragged box with a non-zero origin it
	// must visit, for every [lo, hi) — empty and single-cell ranges included
	// — exactly what the cell ordinal and LocalIndex derive, in the
	// documented order (x fastest, basis innermost).
	type visit struct {
		c     Coord
		local int
	}
	b := &Box{L: New(12, 9, 10, a0), Lo: [3]int{4, 2, 3}, Hi: [3]int{9, 5, 7}, Ghost: 2}
	nx, ny := b.Hi[0]-b.Lo[0], b.Hi[1]-b.Lo[1]
	var all []visit
	for cell := 0; cell < b.OwnedCells(); cell++ {
		for bb := int8(0); bb <= 1; bb++ {
			c := Coord{
				X: int32(cell%nx + b.Lo[0]),
				Y: int32(cell/nx%ny + b.Lo[1]),
				Z: int32(cell/(nx*ny) + b.Lo[2]),
				B: bb,
			}
			all = append(all, visit{c, b.LocalIndex(c)})
		}
	}
	for lo := 0; lo <= b.OwnedCells(); lo++ {
		for hi := lo; hi <= b.OwnedCells(); hi++ {
			want := all[2*lo : 2*hi]
			i := 0
			b.EachOwnedCellRange(lo, hi, func(c Coord, local int) {
				if i >= len(want) {
					t.Fatalf("range [%d,%d) visits more than %d sites", lo, hi, len(want))
				}
				if want[i] != (visit{c, local}) {
					t.Fatalf("range [%d,%d) visit %d: got %+v local %d, want %+v", lo, hi, i, c, local, want[i])
				}
				i++
			})
			if i != len(want) {
				t.Fatalf("range [%d,%d) visited %d sites, want %d", lo, hi, i, len(want))
			}
		}
	}
}

func TestSpanSlotOfInverse(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := int(pRaw%8) + 1
		if p > n {
			p = n
		}
		for i := 0; i < p; i++ {
			lo, hi := span(n, p, i)
			for v := lo; v < hi; v++ {
				if slotOf(v, n, p) != i {
					return false
				}
			}
		}
		// Spans must tile [0,n).
		lo0, _ := span(n, p, 0)
		_, hiL := span(n, p, p-1)
		return lo0 == 0 && hiL == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
