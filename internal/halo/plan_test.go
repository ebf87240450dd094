package halo

import (
	"fmt"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// planCase is one decomposition the symmetry property is checked on.
type planCase struct {
	name  string
	cells [3]int
	grid  [3]int
	cuts  [3][]int
	ghost int
}

// The ghost widths are the engines': 2 and 3 cells for MD (default and
// wide-margin tables), 3 and 5 for KMC (2·reach+1).
var planCases = []planCase{
	{name: "one rank, all self-images", cells: [3]int{6, 6, 6}, grid: [3]int{1, 1, 1}, ghost: 2},
	{name: "2x1x1 uniform", cells: [3]int{12, 6, 6}, grid: [3]int{2, 1, 1}, ghost: 2},
	{name: "2x2x1 kmc halo", cells: [3]int{12, 12, 6}, grid: [3]int{2, 2, 1}, ghost: 5},
	{name: "3x2x1 boxes as thin as the halo", cells: [3]int{9, 6, 3}, grid: [3]int{3, 2, 1}, ghost: 3},
	{name: "3x3x3 uniform", cells: [3]int{9, 9, 9}, grid: [3]int{3, 3, 3}, ghost: 3},
	{name: "3x3x3 uneven spans", cells: [3]int{10, 8, 7}, grid: [3]int{3, 3, 3}, ghost: 2},
	{name: "2x2x1 boxes thinner than the halo", cells: [3]int{4, 4, 4}, grid: [3]int{2, 2, 1}, ghost: 3},
	{name: "3x1x1 rectilinear cuts", cells: [3]int{12, 6, 6}, grid: [3]int{3, 1, 1},
		cuts: [3][]int{{0, 2, 7, 12}, nil, nil}, ghost: 2},
	{name: "2x3x1 rectilinear cuts, kmc halo", cells: [3]int{14, 17, 5}, grid: [3]int{2, 3, 1},
		cuts: [3][]int{{0, 5, 14}, {0, 5, 10, 17}, nil}, ghost: 5},
}

// testClasses exercises both directions, self-copies, and ranges that
// depend on the holder's box (as the KMC sector bands do): class 0 is the
// whole shell, refreshed, with self-images; class 1 is the one-cell band
// around the box, pushed back; class 2 is the low-x half of the shell,
// refreshed.
var testClasses = []Class{
	{Self: true},
	{Push: true, Cells: func(h *lattice.Box) (lo, hi [3]int) {
		for d := range lo {
			lo[d], hi[d] = h.Lo[d]-1, h.Hi[d]+1
		}
		return lo, hi
	}},
	{Cells: func(h *lattice.Box) (lo, hi [3]int) {
		for d := range lo {
			lo[d], hi[d] = h.Lo[d]-h.Ghost, h.Hi[d]+h.Ghost
		}
		hi[0] = (h.Lo[0] + h.Hi[0]) / 2
		return lo, hi
	}},
}

func (tc planCase) build(t *testing.T) (*lattice.Grid, []*Plan, []*lattice.Box) {
	t.Helper()
	l := lattice.New(tc.cells[0], tc.cells[1], tc.cells[2], 2.855)
	grid, err := lattice.NewGridCuts(l, tc.grid[0], tc.grid[1], tc.grid[2], tc.cuts)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*Plan, grid.Ranks())
	boxes := make([]*lattice.Box, grid.Ranks())
	for r := range plans {
		plans[r] = Build(grid, r, tc.ghost, testClasses)
		boxes[r] = grid.Box(r, tc.ghost)
	}
	return grid, plans, boxes
}

// eachGhost calls fn for every cell of box's ghost shell in holder order,
// with its wrapped image and the rank owning that, by visiting every cell of
// the storage box: the oracle of the plan's per-axis enumeration.
func eachGhost(grid *lattice.Grid, box *lattice.Box, fn func(c, w lattice.Coord, owner int)) {
	g := box.Ghost
	for z := box.Lo[2] - g; z < box.Hi[2]+g; z++ {
		for y := box.Lo[1] - g; y < box.Hi[1]+g; y++ {
			for x := box.Lo[0] - g; x < box.Hi[0]+g; x++ {
				c := lattice.Coord{X: int32(x), Y: int32(y), Z: int32(z)}
				if w := grid.L.Wrap(c); !box.Owns(c) {
					fn(c, w, grid.RankOfCell(w.X, w.Y, w.Z))
				}
			}
		}
	}
}

func peerIndex(pl *Plan, rank int) int {
	for i, p := range pl.Peers {
		if p == rank {
			return i
		}
	}
	return -1
}

// TestPlanSymmetry: with no world at all, every rank's locally computed plan
// agrees with every other's — for each ordered (sender, receiver) pair and
// each class, the sender's list and the receiver's list name the same
// wrapped cells in the same order, and are empty together.
func TestPlanSymmetry(t *testing.T) {
	for _, tc := range planCases {
		t.Run(tc.name, func(t *testing.T) {
			grid, plans, boxes := tc.build(t)
			l := grid.L
			for s := range plans {
				for r := range plans {
					if s == r {
						continue
					}
					si, ri := peerIndex(plans[s], r), peerIndex(plans[r], s)
					if (si < 0) != (ri < 0) {
						t.Fatalf("rank %d lists %d as a peer: %v, but %d lists %d: %v",
							s, r, si >= 0, r, s, ri >= 0)
					}
					if si < 0 {
						continue
					}
					for k := range testClasses {
						send, recv := plans[s].send[k][si], plans[r].recv[k][ri]
						if len(send) != len(recv) {
							t.Fatalf("class %d, %d→%d: sender packs %d cells, receiver expects %d",
								k, s, r, len(send), len(recv))
						}
						for i := range send {
							sw := l.Wrap(boxes[s].GlobalCoord(send[i]))
							rw := l.Wrap(boxes[r].GlobalCoord(recv[i].Local))
							if sw != rw {
								t.Fatalf("class %d, %d→%d, cell %d: sender packs %+v, receiver unpacks %+v",
									k, s, r, i, sw, rw)
							}
						}
					}
				}
			}
		})
	}
}

// TestPlanHolderOrder: on the ghost holder's side every list walks the shell
// in z, y, x order (ascending local index), keeps duplicate periodic images,
// carries the image shift, and class 0 — every cell, self-images included —
// covers the shell exactly: self-copies are precisely the shell cells whose
// wrapped image this rank owns, each copied from that owned cell.
func TestPlanHolderOrder(t *testing.T) {
	for _, tc := range planCases {
		t.Run(tc.name, func(t *testing.T) {
			grid, plans, boxes := tc.build(t)
			l := grid.L
			for r, pl := range plans {
				box := boxes[r]
				ascending := func(what string, locals []int) {
					for i := 1; i < len(locals); i++ {
						if locals[i] <= locals[i-1] {
							t.Fatalf("rank %d %s: local %d follows %d: not holder order", r, what, locals[i], locals[i-1])
						}
					}
				}
				for k, cl := range testClasses {
					for i := range pl.Peers {
						if cl.Push {
							ascending(fmt.Sprintf("class %d send", k), pl.send[k][i])
							continue
						}
						locals := make([]int, len(pl.recv[k][i]))
						for j, c := range pl.recv[k][i] {
							locals[j] = c.Local
							g := box.GlobalCoord(c.Local)
							if want := l.Position(g).Sub(l.Position(l.Wrap(g))); c.Shift != want {
								t.Fatalf("rank %d class %d: cell %+v shift %v, want %v", r, k, g, c.Shift, want)
							}
						}
						ascending(fmt.Sprintf("class %d recv", k), locals)
					}
				}

				// Class 0 partitions the shell by owner.
				covered := map[int]int{} // ghost local -> owner it is filled from
				for _, sc := range pl.self[0] {
					covered[sc.dst.Local] = r
					g := box.GlobalCoord(sc.dst.Local)
					if w := l.Wrap(g); !box.Owns(w) || sc.src != box.LocalIndex(w) {
						t.Fatalf("rank %d: self-copy into %+v from local %d, want its owned image %+v", r, g, sc.src, w)
					}
				}
				for i, peer := range pl.Peers {
					for _, c := range pl.recv[0][i] {
						if _, dup := covered[c.Local]; dup {
							t.Fatalf("rank %d: ghost cell %d filled twice", r, c.Local)
						}
						covered[c.Local] = peer
					}
				}
				shell := 0
				eachGhost(grid, box, func(c, _ lattice.Coord, owner int) {
					shell++
					if got, ok := covered[box.LocalIndex(c)]; !ok || got != owner {
						t.Fatalf("rank %d: ghost cell %+v owned by %d is filled from %d (covered: %v)", r, c, owner, got, ok)
					}
				})
				if len(covered) != shell {
					t.Fatalf("rank %d: plan fills %d cells, shell has %d", r, len(covered), shell)
				}
			}
		})
	}
}

// TestPlanWithoutClassesIsThePeerSet: a plan without classes gets the same
// peers and no lists.
func TestPlanWithoutClassesIsThePeerSet(t *testing.T) {
	for _, tc := range planCases {
		grid, plans, _ := tc.build(t)
		for r, full := range plans {
			bare := Build(grid, r, tc.ghost, nil)
			if fmt.Sprint(bare.Peers) != fmt.Sprint(full.Peers) {
				t.Errorf("%s rank %d: peers %v without classes, %v with", tc.name, r, bare.Peers, full.Peers)
			}
			if bare.send != nil || bare.recv != nil || bare.self != nil {
				t.Errorf("%s rank %d: a plan without classes built lists", tc.name, r)
			}
		}
	}
}

// TestExchange runs the loop in a real world: after a refresh of class 0
// every ghost cell holds its owner's value, a push of class 1 lands the
// holders' band values on the owners, and a receiver that reads less than
// the sender packed fails with the channel's package prefix.
func TestExchange(t *testing.T) {
	tc := planCases[3] // 3x2x1, boxes as thin as the halo: duplicate images
	grid, _, _ := tc.build(t)
	l := grid.L
	err := mpi.NewWorld(grid.Ranks()).RunE(func(c *mpi.Comm) error {
		pl := Build(grid, c.Rank(), tc.ghost, testClasses)
		box := grid.Box(c.Rank(), tc.ghost)
		val := make([]int32, box.NumLocalSites())
		box.EachOwned(func(g lattice.Coord, local int) { val[local] = int32(l.Index(g)) })
		pack := func(p *Packer, local int) { p.I32(val[local]) }

		pl.Exchange(c, Channel{Pkg: "test", Tag: 1, Class: 0}, pack,
			func(u *Unpacker, cell Cell) { val[cell.Local] = u.I32() })
		for local := 0; local < len(val); local += 2 {
			if want := int32(l.Index(l.Wrap(box.GlobalCoord(local)))); val[local] != want {
				return fmt.Errorf("rank %d: cell %+v holds %d after the refresh, want %d",
					c.Rank(), box.GlobalCoord(local), val[local], want)
			}
		}

		pushed := 0
		pl.Exchange(c, Channel{Pkg: "test", Tag: 2, Class: 1}, pack,
			func(u *Unpacker, cell Cell) {
				pushed++
				if got := u.I32(); got != val[cell.Local] || !box.Owns(box.GlobalCoord(cell.Local)) {
					panic(fmt.Errorf("rank %d: push delivered %d to local %d holding %d", c.Rank(), got, cell.Local, val[cell.Local]))
				}
			})
		if pushed == 0 {
			return fmt.Errorf("rank %d: the write band delivered nothing", c.Rank())
		}

		pl.Exchange(c, Channel{Pkg: "test", Tag: 3, Class: 2},
			func(p *Packer, local int) { p.I32(val[local]); p.U8(0) },
			func(u *Unpacker, cell Cell) { u.I32() })
		return fmt.Errorf("rank %d: trailing bytes went unnoticed", c.Rank())
	})
	if err == nil || !strings.Contains(err.Error(), "test: ") || !strings.Contains(err.Error(), "trailing byte(s) in ghost message (tag 3)") {
		t.Fatalf("RunE = %v, want the trailing-bytes error of tag 3", err)
	}
}
