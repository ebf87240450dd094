package kmc

import (
	"fmt"
	"slices"
	"testing"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
)

// sectorGrids are decompositions the sector geometry is checked on: one to
// three slabs per axis, uneven cuts, and slabs at the 3-cell floor that
// Validate accepts (a 3-cell slab splits into 1- and 2-cell halves).
var sectorGrids = []struct {
	name        string
	cells, grid [3]int
	cuts        [3][]int
}{
	{"2x1x1 floor slab", [3]int{7, 6, 6}, [3]int{2, 1, 1}, [3][]int{{0, 3, 7}, nil, nil}},
	{"2x2x1", [3]int{10, 9, 6}, [3]int{2, 2, 1}, [3][]int{{0, 5, 10}, {0, 3, 9}, nil}},
	{"2x2x2", [3]int{8, 8, 9}, [3]int{2, 2, 2}, [3][]int{nil, nil, {0, 3, 9}}},
	{"3x3x3 uneven", [3]int{15, 11, 10}, [3]int{3, 3, 3}, [3][]int{{0, 3, 7, 15}, {0, 4, 7, 11}, {0, 3, 6, 10}}},
}

func sectorConfig(i int, protocol Protocol) Config {
	cfg := testConfig()
	cfg.Cells, cfg.Grid, cfg.Cuts = sectorGrids[i].cells, sectorGrids[i].grid, sectorGrids[i].cuts
	cfg.Protocol = protocol
	return cfg
}

// classifyBandRef is the classifier the traditional protocol's ghost lists
// were once built from, kept as an oracle: ghost cell c of the holder's box
// is in the read halo (bit getBand+sec) of every sector within the ghost
// width of it, and in the write band (bit putBand+sec) of every sector
// within one cell, by the Chebyshev distance to the octant — the largest
// of the per-axis distances to the half the octant takes on that axis.
func classifyBandRef(holder *lattice.Box, c lattice.Coord) uint32 {
	var dist [3][2]int // per axis: distance to the low half, to the high half
	for d, v := range [3]int{int(c.X), int(c.Y), int(c.Z)} {
		lo, hi := holder.Lo[d], holder.Hi[d]
		mid := lo + (hi-lo)/2
		dist[d] = [2]int{max(lo-v, v-mid+1, 0), max(mid-v, v-hi+1, 0)}
	}
	var mask uint32
	for sec := 0; sec < 8; sec++ {
		d := max(dist[0][sec&1], dist[1][sec>>1&1], dist[2][sec>>2&1])
		if d <= holder.Ghost {
			mask |= 1 << (getBand + sec)
		}
		if d <= 1 {
			mask |= 1 << (putBand + sec)
		}
	}
	return mask
}

// eachStorageCell calls fn for every cell of box's storage range, z, then
// y, then x ascending: holder order.
func eachStorageCell(box *lattice.Box, fn func(c lattice.Coord)) {
	g := box.Ghost
	for z := box.Lo[2] - g; z < box.Hi[2]+g; z++ {
		for y := box.Lo[1] - g; y < box.Hi[1]+g; y++ {
			for x := box.Lo[0] - g; x < box.Hi[0]+g; x++ {
				fn(lattice.Coord{X: int32(x), Y: int32(y), Z: int32(z)})
			}
		}
	}
}

// TestBandListsMatchClassifier: every traditional band class delivers, on
// every rank, exactly the cells the classifier oracle names, in holder
// order, between the same local sites: a refresh brings the owner's cell
// to each ghost cell of the holder's shell in the class, and a push carries
// each such ghost cell back to its owner.
func TestBandListsMatchClassifier(t *testing.T) {
	for i, sg := range sectorGrids {
		t.Run(sg.name, func(t *testing.T) {
			cfg := sectorConfig(i, Traditional)
			grid, _, err := cfg.layout()
			if err != nil {
				t.Fatal(err)
			}
			ghost := cfg.GhostWidth()
			// want[k][receiver][sender]: (sender local, receiver local) pairs.
			want := make([][][][][2]int, 16)
			for k := range want {
				want[k] = make([][][][2]int, grid.Ranks())
				for r := range want[k] {
					want[k][r] = make([][][2]int, grid.Ranks())
				}
			}
			for h := 0; h < grid.Ranks(); h++ {
				hb := grid.Box(h, ghost)
				eachStorageCell(hb, func(c lattice.Coord) {
					w := grid.L.Wrap(c)
					o := grid.RankOfCell(w.X, w.Y, w.Z)
					if hb.Owns(c) || o == h {
						return
					}
					held, owned := hb.LocalIndex(c), grid.Box(o, ghost).LocalIndex(w)
					m := classifyBandRef(hb, c)
					for k := range want {
						switch {
						case m&(1<<k) == 0:
						case k >= putBand:
							want[k][o][h] = append(want[k][o][h], [2]int{held, owned})
						default:
							want[k][h][o] = append(want[k][h][o], [2]int{owned, held})
						}
					}
				})
			}
			got := make([][16][][3]int, grid.Ranks()) // per receiver and class: (sender, sender local, receiver local)
			runWorld(t, cfg, func(st *State) {
				me := st.Comm.Rank()
				for k := 0; k < 16; k++ {
					st.plan.Exchange(st.Comm, halo.Channel{Pkg: "kmc", Tag: 300 + k, Class: k},
						func(p *halo.Packer, local int) {
							p.I32(int32(me))
							p.I32(int32(local))
						},
						func(u *halo.Unpacker, c halo.Cell) {
							from, local := int(u.I32()), int(u.I32())
							got[me][k] = append(got[me][k], [3]int{from, local, c.Local})
						})
				}
			})
			for r := range got {
				for k := range want {
					var w [][3]int
					for s, pairs := range want[k][r] {
						for _, p := range pairs {
							w = append(w, [3]int{s, p[0], p[1]})
						}
					}
					if !slices.Equal(got[r][k], w) {
						t.Errorf("rank %d class %d: receives %d cell(s) %v, the classifier names %d %v",
							r, k, len(got[r][k]), got[r][k], len(w), w)
					}
				}
			}
		})
	}
}

// TestSectorRoundPeers: each on-demand round sec messages, from every rank
// q, exactly the peers of q that hold, owned or as a ghost, a cell within
// one cell of q's sector sec — a cell of the (2g+1)³ cube around one — and
// every rank receives from exactly the ranks that message it.
func TestSectorRoundPeers(t *testing.T) {
	for i, sg := range sectorGrids {
		t.Run(sg.name, func(t *testing.T) {
			cfg := sectorConfig(i, OnDemand)
			grid, _, err := cfg.layout()
			if err != nil {
				t.Fatal(err)
			}
			g := int32(cfg.GhostWidth())
			l := grid.L
			cube := map[lattice.Coord][]int{} // wrapped cell -> owners of its cube
			holders := func(w lattice.Coord) []int {
				if rs, ok := cube[w]; ok {
					return rs
				}
				var rs []int
				for dz := -g; dz <= g; dz++ {
					for dy := -g; dy <= g; dy++ {
						for dx := -g; dx <= g; dx++ {
							if r := grid.RankOfCell(w.X+dx, w.Y+dy, w.Z+dz); !slices.Contains(rs, r) {
								rs = append(rs, r)
							}
						}
					}
				}
				cube[w] = rs
				return rs
			}
			// sends[q][sec]: the ranks q's round sec messages.
			sends := make([][8]map[int]bool, grid.Ranks())
			for q := range sends {
				qb := grid.Box(q, int(g))
				peers := map[int]bool{}
				eachStorageCell(qb, func(c lattice.Coord) {
					w := l.Wrap(c)
					peers[grid.RankOfCell(w.X, w.Y, w.Z)] = true
				})
				for sec := range sends[q] {
					sends[q][sec] = map[int]bool{}
				}
				eachStorageCell(qb, func(c lattice.Coord) {
					m := classifyBandRef(qb, c)
					for sec := range sends[q] {
						if m&(1<<(putBand+sec)) == 0 {
							continue
						}
						for _, r := range holders(l.Wrap(c)) {
							if r != q && peers[r] {
								sends[q][sec][r] = true
							}
						}
					}
				})
			}
			got := make([][8]string, grid.Ranks()) // per rank and round: messages sent, ranks received from
			runWorld(t, cfg, func(st *State) {
				me := st.Comm.Rank()
				for sec := 0; sec < 8; sec++ {
					var from []int
					before := st.Comm.Stats().MsgsSent
					st.plan.ExchangeSparse(st.Comm, halo.Channel{Pkg: "kmc", Tag: 400 + sec, Class: sec},
						func(_ *halo.Unpacker, q int) { from = append(from, q) })
					got[me][sec] = fmt.Sprint(st.Comm.Stats().MsgsSent-before, from)
				}
			})
			for r := range got {
				for sec := 0; sec < 8; sec++ {
					var from []int
					for q := range sends {
						if sends[q][sec][r] {
							from = append(from, q)
						}
					}
					if want := fmt.Sprint(len(sends[r][sec]), from); got[r][sec] != want {
						t.Errorf("rank %d round %d: sent and received from %s, want %s", r, sec, got[r][sec], want)
					}
				}
			}
		})
	}
}

// TestOctantSplitsTheBox: on every rank of every grid, each owned cell lies
// in exactly one sector's octant, the one sectorOf names, and for a sweep
// of cells over the storage range the octants grown by a reach hold
// exactly the sectors with an owned cell within that reach on every axis
// (at the footprint's reach, the sets invalidateNear reads).
func TestOctantSplitsTheBox(t *testing.T) {
	for i, sg := range sectorGrids {
		t.Run(sg.name, func(t *testing.T) {
			runWorld(t, sectorConfig(i, OnDemand), func(st *State) {
				box := st.Box
				var cells [8][]lattice.Coord
				box.EachOwned(func(c lattice.Coord, _ int) {
					var in []int
					for sec := 0; sec < 8; sec++ {
						lo, hi := octant(box, sec, 0)
						if int(c.X) >= lo[0] && int(c.X) < hi[0] && int(c.Y) >= lo[1] && int(c.Y) < hi[1] &&
							int(c.Z) >= lo[2] && int(c.Z) < hi[2] {
							in = append(in, sec)
						}
					}
					if len(in) != 1 || in[0] != st.sectorOf(c) {
						t.Errorf("rank %d: owned cell %+v lies in the octants of sectors %v, sectorOf says %d",
							st.Comm.Rank(), c, in, st.sectorOf(c))
						return
					}
					cells[in[0]] = append(cells[in[0]], c)
				})
				for _, reach := range []int{0, 1, 2, int(st.reads.reach)} {
					near := newSectorSets(box, reach)
					if reach == int(st.reads.reach) {
						near = st.nearSectors
					}
					eachStorageCell(box, func(c lattice.Coord) {
						var want uint8
						for sec, owned := range cells {
							for _, o := range owned {
								if max(abs(int(c.X-o.X)), abs(int(c.Y-o.Y)), abs(int(c.Z-o.Z))) <= reach {
									want |= 1 << sec
									break
								}
							}
						}
						if got := near.of(box, c); got != want {
							t.Errorf("rank %d: cell %+v lies in the octants grown by %d of sectors %08b, want %08b",
								st.Comm.Rank(), c, reach, got, want)
						}
					})
				}
			})
		})
	}
}

func abs(v int) int { return max(v, -v) }
