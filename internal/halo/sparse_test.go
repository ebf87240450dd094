package halo

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// sparseCases are the two peer shapes a sparse round meets: several
// distinct peers, and a periodic pair whose single peer is both neighbours.
var sparseCases = []planCase{
	{name: "2x2x1", cells: [3]int{12, 12, 6}, grid: [3]int{2, 2, 1}, ghost: 5},
	{name: "2x1x1 periodic, one peer on both sides", cells: [3]int{12, 6, 6}, grid: [3]int{2, 1, 1}, ghost: 2},
}

// sparseWorld runs body on every rank of tc's grid with a fresh class-less
// plan, a window when oneSided, and the rank's message counters.
func sparseWorld(t *testing.T, tc planCase, oneSided bool,
	body func(c *mpi.Comm, pl *Plan, win *mpi.Win, sent func(path string) int64) error) error {
	t.Helper()
	grid, _, _ := tc.build(t)
	return mpi.NewWorld(grid.Ranks()).RunE(func(c *mpi.Comm) error {
		reg := telemetry.New(c.Rank())
		c.AttachTelemetry(reg)
		var win *mpi.Win
		if oneSided {
			win = mpi.NewWin(c)
		}
		return body(c, Build(grid, c.Rank(), tc.ghost, nil, nil), win, func(path string) int64 {
			for _, m := range reg.Snapshot().Metrics {
				if m.Name == "mpi/"+path+"/msgs-sent" {
					return m.Value
				}
			}
			return -1
		})
	})
}

// TestExchangeSparsePoliciesDeliverTheSame: over three rounds (some peers
// idle, one round wholly empty) the two-sided and the one-sided policy hand
// apply the identical (from, record) sequence on every rank, the per-peer
// packers start each round empty, and an empty round costs exactly one
// message per peer two-sided and no put at all one-sided.
func TestExchangeSparsePoliciesDeliverTheSame(t *testing.T) {
	for _, tc := range sparseCases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2][]string // per policy, per rank: the delivery log
			for policy, oneSided := range []bool{false, true} {
				got[policy] = make([]string, tc.grid[0]*tc.grid[1]*tc.grid[2])
				err := sparseWorld(t, tc, oneSided, func(c *mpi.Comm, pl *Plan, win *mpi.Win, sent func(string) int64) error {
					var log strings.Builder
					ch := Channel{Pkg: "test", Tag: 7}
					for round := 0; round < 3; round++ {
						for _, peer := range pl.Peers {
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
						p2p, puts := sent("p2p"), sent("win")
						pl.ExchangeSparse(c, ch, win, func(u *Unpacker, from int) {
							for !u.Done() {
								fmt.Fprintf(&log, "%d:%d ", from, u.I32())
							}
						})
						if round != 1 {
							continue
						}
						wantP2P, wantPuts := int64(len(pl.Peers)), int64(0)
						if oneSided {
							wantP2P = 0
						}
						if dp, dw := sent("p2p")-p2p, sent("win")-puts; dp != wantP2P || dw != wantPuts {
							return fmt.Errorf("rank %d: the empty round sent %d message(s) and %d put(s), want %d and %d",
								c.Rank(), dp, dw, wantP2P, wantPuts)
						}
					}
					if _, ok := pl.Sparse(c.Rank()); ok {
						return fmt.Errorf("rank %d is its own sparse peer", c.Rank())
					}
					got[policy][c.Rank()] = log.String()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for r := range got[0] {
				if got[0][r] == "" || got[0][r] != got[1][r] {
					t.Errorf("rank %d: two-sided delivered %q, one-sided %q", r, got[0][r], got[1][r])
				}
			}
		})
	}
}

// TestExchangeSparseTruncatedRecord: a payload cut mid-record fails the
// round with the channel's package prefix and the offset, under either
// policy — not with a raw slice-bounds panic.
func TestExchangeSparseTruncatedRecord(t *testing.T) {
	for _, pkg := range []string{"md", "kmc"} {
		for _, oneSided := range []bool{false, true} {
			err := sparseWorld(t, sparseCases[1], oneSided, func(c *mpi.Comm, pl *Plan, win *mpi.Win, _ func(string) int64) error {
				// Rank 1 slips a payload cut mid-record ahead of its round: one
				// 8-byte record and 3 bytes of the next.
				if cut := make([]byte, 11); c.Rank() == 1 && win == nil {
					c.Send(0, 9, cut)
				} else if c.Rank() == 1 {
					win.Put(0, cut)
				}
				pl.ExchangeSparse(c, Channel{Pkg: pkg, Tag: 9}, win, func(u *Unpacker, _ int) {
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
				t.Errorf("one-sided=%v: RunE = %v, want %q", oneSided, err, want)
			}
		}
	}
}

// TestInterestedRanksMatchBruteForce: interestedRanks uses the 27-corner
// shortcut; verify it against scanning the full cube of cells within the
// ghost distance, and Interest against it (the same ranks' packers, and the
// same answer again from the memo).
func TestInterestedRanksMatchBruteForce(t *testing.T) {
	tc := planCase{cells: [3]int{22, 22, 11}, grid: [3]int{2, 2, 1}, ghost: 5}
	grid, _, boxes := tc.build(t)
	for rank, box := range boxes {
		pl := Build(grid, rank, tc.ghost, nil, nil)
		g := int32(tc.ghost)
		probe := func(w lattice.Coord) {
			got := pl.interestedRanks(w)
			want := map[int]bool{}
			for dz := -g; dz <= g; dz++ {
				for dy := -g; dy <= g; dy++ {
					for dx := -g; dx <= g; dx++ {
						r := grid.RankOfCell(w.X+dx, w.Y+dy, w.Z+dz)
						if r != rank {
							want[r] = true
						}
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("cell %+v: interest %v vs brute-force %v", w, got, want)
			}
			var packers []*Packer
			for _, r := range got {
				if !want[r] {
					t.Fatalf("cell %+v: spurious interested rank %d", w, r)
				}
				if p, ok := pl.Sparse(r); ok {
					packers = append(packers, p)
				}
			}
			local := box.LocalIndex(w)
			if first := pl.Interest(local, w); !slices.Equal(first, packers) || !slices.Equal(pl.Interest(local, w), first) {
				t.Fatalf("cell %+v: Interest does not name the packers of ranks %v", w, got)
			}
		}
		// Probe corners, edges and interior of the owned region.
		for _, c := range []lattice.Coord{
			{X: int32(box.Lo[0]), Y: int32(box.Lo[1]), Z: int32(box.Lo[2])},
			{X: int32(box.Hi[0] - 1), Y: int32(box.Hi[1] - 1), Z: int32(box.Hi[2] - 1)},
			{X: int32(box.Lo[0] + 3), Y: int32(box.Lo[1]), Z: int32(box.Lo[2] + 2)},
			{X: int32((box.Lo[0] + box.Hi[0]) / 2), Y: int32((box.Lo[1] + box.Hi[1]) / 2), Z: int32((box.Lo[2] + box.Hi[2]) / 2)},
		} {
			probe(grid.L.Wrap(c))
		}
	}
}
