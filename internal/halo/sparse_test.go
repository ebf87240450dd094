package halo

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// sparseCases are the peer shapes a sparse round meets: several distinct
// peers that every region reaches, a periodic pair whose single peer is
// both neighbours, and slabs wide enough that a region reaches only some
// of the peers.
var sparseCases = []planCase{
	{name: "2x2x1", cells: [3]int{12, 12, 6}, grid: [3]int{2, 2, 1}, ghost: 5},
	{name: "2x1x1 periodic, one peer on both sides", cells: [3]int{12, 6, 6}, grid: [3]int{2, 1, 1}, ghost: 2},
	{name: "3x3x1 wide slabs", cells: [3]int{24, 24, 6}, grid: [3]int{3, 3, 1}, ghost: 3},
}

// octantRegions are eight region classes shaped like the KMC sectors: class
// k is octant k of the owner's box (bit d of k picks the high half on axis
// d, split at lo + (hi-lo)/2) widened by the one-cell write band.
func octantRegions() []Class {
	cs := make([]Class, 8)
	for k := range cs {
		cs[k].Region = func(owner *lattice.Box) (lo, hi [3]int) {
			for d := range lo {
				mid := owner.Lo[d] + (owner.Hi[d]-owner.Lo[d])/2
				if k>>d&1 == 0 {
					lo[d], hi[d] = owner.Lo[d]-1, mid+1
				} else {
					lo[d], hi[d] = mid-1, owner.Hi[d]+1
				}
			}
			return lo, hi
		}
	}
	return cs
}

// sparseClasses: class 0 reaches every peer (as MD's migrants do), class 1
// is the low octant of octantRegions.
var sparseClasses = []Class{{}, octantRegions()[0]}

// runDeadline runs body on every rank and fails the test, instead of
// hanging it, when the world has not finished within a minute — which is
// what a rank waiting for a peer that never sends looks like.
func runDeadline(t *testing.T, w *mpi.World, body func(c *mpi.Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.RunE(body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatal("the exchange deadlocked: a rank waits for a message no peer sends")
		return nil
	}
}

// sparseWorld runs body on every rank of tc's grid with a fresh plan of
// sparseClasses and the rank's point-to-point send counter.
func sparseWorld(t *testing.T, tc planCase, body func(c *mpi.Comm, pl *Plan, sent func() int64) error) error {
	t.Helper()
	grid, _, _ := tc.build(t)
	return runDeadline(t, mpi.NewWorld(grid.Ranks()), func(c *mpi.Comm) error {
		reg := telemetry.New(c.Rank())
		c.AttachTelemetry(reg)
		return body(c, Build(grid, c.Rank(), tc.ghost, sparseClasses), func() int64 {
			for _, m := range reg.Snapshot().Metrics {
				if m.Name == "mpi/p2p/msgs-sent" {
					return m.Value
				}
			}
			return -1
		})
	})
}

// TestExchangeSparsePoliciesDeliverTheSame: over three rounds (some peers
// idle, one round wholly empty) a round that reaches every peer and one
// scoped to a region hand apply the identical (from, record) sequence on
// every rank when the records go to peers both reach, the per-peer packers
// start each round empty, and an empty round costs exactly one message per
// peer on the class's send list.
func TestExchangeSparsePoliciesDeliverTheSame(t *testing.T) {
	for _, tc := range sparseCases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]string // per class, per rank: the delivery log
			for class := range got {
				got[class] = make([]string, tc.grid[0]*tc.grid[1]*tc.grid[2])
				err := sparseWorld(t, tc, func(c *mpi.Comm, pl *Plan, sent func() int64) error {
					var log strings.Builder
					ch := Channel{Pkg: "test", Tag: 7, Class: class}
					for round := 0; round < 3; round++ {
						for _, i := range pl.to[1] {
							peer := pl.Peers[i]
							if round == 1 || (c.Rank()+peer+round)%3 == 0 {
								continue // idle towards this peer
							}
							p, ok := pl.Sparse(peer)
							if !ok || len(p.Bytes()) != 0 {
								return fmt.Errorf("rank %d round %d: packer of peer %d missing or not empty", c.Rank(), round, peer)
							}
							for k := 0; k <= peer; k++ {
								p.I32(int32(1000*round + 100*c.Rank() + k))
							}
						}
						before := sent()
						pl.ExchangeSparse(c, ch, func(u *Unpacker, from int) {
							for !u.Done() {
								fmt.Fprintf(&log, "%d:%d ", from, u.I32())
							}
						})
						if round != 1 {
							continue
						}
						if d, want := sent()-before, int64(len(pl.to[class])); d != want {
							return fmt.Errorf("rank %d class %d: the empty round sent %d message(s), want %d",
								c.Rank(), class, d, want)
						}
					}
					if _, ok := pl.Sparse(c.Rank()); ok {
						return fmt.Errorf("rank %d is its own sparse peer", c.Rank())
					}
					got[class][c.Rank()] = log.String()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for r := range got[0] {
				if got[0][r] == "" || got[0][r] != got[1][r] {
					t.Errorf("rank %d: the all-peers round delivered %q, the scoped one %q", r, got[0][r], got[1][r])
				}
			}
		})
	}
}

// TestExchangeSparseTruncatedRecord: a payload cut mid-record fails the
// round with the channel's package prefix and the offset, not with a raw
// slice-bounds panic.
func TestExchangeSparseTruncatedRecord(t *testing.T) {
	for _, pkg := range []string{"md", "kmc"} {
		err := sparseWorld(t, sparseCases[1], func(c *mpi.Comm, pl *Plan, _ func() int64) error {
			// Rank 1 slips a payload cut mid-record ahead of its round: one
			// 8-byte record and 3 bytes of the next.
			if c.Rank() == 1 {
				c.Send(0, 9, make([]byte, 11))
			}
			pl.ExchangeSparse(c, Channel{Pkg: pkg, Tag: 9}, func(u *Unpacker, _ int) {
				for !u.Done() {
					u.I64()
				}
			})
			if c.Rank() == 0 {
				return fmt.Errorf("the truncated record went unnoticed")
			}
			return nil
		})
		want := pkg + ": truncated ghost message: need 8 byte(s) for i64/f64 at offset 8 of 11"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunE = %v, want %q", err, want)
		}
	}
}

// TestExchangeSparseRejectsUnreachedPeer: a record routed to a peer that
// the round's class does not reach is a routing bug, and the round panics
// with the channel's package prefix instead of dropping it.
func TestExchangeSparseRejectsUnreachedPeer(t *testing.T) {
	err := sparseWorld(t, sparseCases[2], func(c *mpi.Comm, pl *Plan, _ func() int64) error {
		if c.Rank() == 0 {
			unreached := slices.IndexFunc(pl.Peers, func(q int) bool {
				_, reached := slices.BinarySearch(pl.to[1], slices.Index(pl.Peers, q))
				return !reached
			})
			if unreached < 0 {
				return fmt.Errorf("class 1 reaches every peer of rank 0: the case tests nothing")
			}
			p, _ := pl.Sparse(pl.Peers[unreached])
			p.U8(1)
		}
		pl.ExchangeSparse(c, Channel{Pkg: "kmc", Tag: 9, Class: 1}, func(u *Unpacker, _ int) {})
		return nil
	})
	if want := "kmc: 1 byte(s) routed to rank"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunE = %v, want %q", err, want)
	}
}

// TestSparseListsMatchBruteForce: on 2x2x2 and 3x3x3 grids, uniform and
// uneven, with the KMC ghost width, each octant class's send list is
// exactly the set of peers that Interest names for some cell of the class's
// region (so every record about such a cell is routable, and no peer is
// messaged for nothing), and every rank's receive list is the transpose of
// its peers' send lists.
func TestSparseListsMatchBruteForce(t *testing.T) {
	classes := octantRegions()
	for _, tc := range []planCase{
		{name: "2x2x2 uniform", cells: [3]int{12, 12, 12}, grid: [3]int{2, 2, 2}, ghost: 3},
		{name: "2x2x2 uneven", cells: [3]int{13, 12, 11}, grid: [3]int{2, 2, 2},
			cuts: [3][]int{{0, 4, 13}, {0, 8, 12}, {0, 5, 11}}, ghost: 3},
		{name: "3x3x3 uniform", cells: [3]int{24, 24, 24}, grid: [3]int{3, 3, 3}, ghost: 3},
		{name: "3x3x3 uneven", cells: [3]int{23, 19, 17}, grid: [3]int{3, 3, 3},
			cuts: [3][]int{{0, 3, 13, 23}, {0, 7, 12, 19}, {0, 5, 9, 17}}, ghost: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid, _, boxes := tc.build(t)
			plans := make([]*Plan, grid.Ranks())
			for r := range plans {
				plans[r] = Build(grid, r, tc.ghost, classes)
			}
			for r, pl := range plans {
				box := boxes[r]
				for k, cl := range classes {
					want := map[int]bool{} // peer indices some region cell interests
					lo, hi := cl.Region(box)
					for z := lo[2]; z < hi[2]; z++ {
						for y := lo[1]; y < hi[1]; y++ {
							for x := lo[0]; x < hi[0]; x++ {
								c := lattice.Coord{X: int32(x), Y: int32(y), Z: int32(z)}
								for _, p := range pl.Interest(box.LocalIndex(c), grid.L.Wrap(c)) {
									for i := range pl.sparse {
										if &pl.sparse[i] == p {
											want[i] = true
										}
									}
								}
							}
						}
					}
					var wantList []int
					for i := range pl.Peers {
						if want[i] {
							wantList = append(wantList, i)
						}
					}
					if !slices.Equal(pl.to[k], wantList) {
						t.Errorf("rank %d class %d: send list %v, the region's cells interest peers %v",
							r, k, pl.to[k], wantList)
					}
					for i, q := range pl.Peers {
						_, fromQ := slices.BinarySearch(pl.from[k], i)
						_, qSends := slices.BinarySearch(plans[q].to[k], slices.Index(plans[q].Peers, r))
						if fromQ != qSends {
							t.Errorf("rank %d class %d: receives from rank %d = %v, but rank %d sends to it = %v",
								r, k, q, fromQ, q, qSends)
						}
					}
				}
			}
		})
	}
}

// TestInterestedRanksMatchBruteForce: on every planCases grid, and on one
// whose 2-cell slabs are thinner than the halo, Interest names for every
// local cell of every rank exactly the peers that own a cell of the
// (2g+1)³ cube around it, in ascending rank, and gives the same answer
// again from its memo.
func TestInterestedRanksMatchBruteForce(t *testing.T) {
	cases := append(slices.Clone(planCases),
		planCase{name: "3x1x1 slabs thinner than the halo", cells: [3]int{6, 6, 6}, grid: [3]int{3, 1, 1}, ghost: 3})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			grid, _, boxes := tc.build(t)
			l := grid.L
			g := int32(tc.ghost)
			cube := map[lattice.Coord][]int{} // wrapped cell -> ranks owning a cell of its cube, ascending
			owners := func(w lattice.Coord) []int {
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
				slices.Sort(rs)
				cube[w] = rs
				return rs
			}
			for rank, box := range boxes {
				pl := Build(grid, rank, tc.ghost, nil)
				for local := 0; local < box.NumLocalSites(); local += 2 {
					w := l.Wrap(box.GlobalCoord(local))
					var want []*Packer
					for _, r := range owners(w) {
						if p, ok := pl.Sparse(r); ok {
							want = append(want, p)
						}
					}
					got := pl.Interest(local, w)
					if !slices.Equal(got, want) || !slices.Equal(pl.Interest(local, w), got) {
						t.Fatalf("rank %d cell %+v: Interest names %d packer(s), the cube's owners %v give %d",
							rank, w, len(got), owners(w), len(want))
					}
				}
			}
		})
	}
}
