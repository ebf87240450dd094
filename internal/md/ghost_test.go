package md

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// TestTruncatedGhostMessageFailsDescriptively: a short position, density or
// migrant payload from a peer fails the world with an md error that names the
// offset — not with a raw index-out-of-range runtime panic — so the serve
// layer reports one failed job.
func TestTruncatedGhostMessageFailsDescriptively(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 0
	cfg.Grid = [3]int{2, 1, 1}
	cases := []struct {
		name string
		tag  int
		recv func(r *Rank)
	}{
		{"positions", tagPos, func(r *Rank) { r.Ex.ExchangePositions(r.Store) }},
		{"densities", tagRho, func(r *Rank) { r.Ex.ExchangeDensities(r.Store) }},
		{"migrants", tagMig, func(r *Rank) { r.relink() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mpi.NewWorld(2).RunE(func(c *mpi.Comm) error {
				r, err := NewRank(cfg, c)
				if err != nil {
					return err
				}
				if c.Rank() == 1 {
					c.Send(0, tc.tag, make([]byte, 11)) // every record is longer
					return nil
				}
				tc.recv(r)
				return nil
			})
			var rp mpi.RankPanic
			if !errors.As(err, &rp) || rp.Rank != 0 {
				t.Fatalf("RunE = %v, want a RankPanic from rank 0", err)
			}
			for _, want := range []string{"md: truncated ghost message", "at offset", "of 11"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
			if _, isRuntime := rp.Value.(runtime.Error); isRuntime {
				t.Errorf("raw runtime panic %v, want a descriptive md error", rp.Value)
			}
		})
	}
}

// TestMigrantRecordValidated: a well-formed migrant record for an owned cell
// must still name a lattice site and a known element. A basis outside {0,1}
// would anchor the atom to another cell's site, and an unknown element has
// mass 0, which the next half-kick turns into an infinite velocity.
func TestMigrantRecordValidated(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 0
	cfg.Grid = [3]int{2, 1, 1}
	cases := []struct {
		fragment string
		basis    uint8
		elem     uint8
	}{
		{"basis 2 outside {0,1}", 2, uint8(units.Fe)},
		{"unknown element code 9", 0, 9},
	}
	for _, tc := range cases {
		t.Run(tc.fragment, func(t *testing.T) {
			err := mpi.NewWorld(2).RunE(func(c *mpi.Comm) error {
				r, err := NewRank(cfg, c)
				if err != nil {
					return err
				}
				if c.Rank() == 1 {
					var p halo.Packer
					for _, x := range []int64{1, 1, 1} { // a cell rank 0 owns
						p.I64(x)
					}
					p.U8(tc.basis)
					p.I64(42)
					p.U8(tc.elem)
					p.Vec(r.L.Position(lattice.Coord{X: 1, Y: 1, Z: 1}))
					p.Vec(vec.V{})
					c.Send(0, tagMig, p.Bytes())
					return nil
				}
				r.relink()
				return nil
			})
			var rp mpi.RankPanic
			if !errors.As(err, &rp) || rp.Rank != 0 {
				t.Fatalf("RunE = %v, want a RankPanic from rank 0", err)
			}
			for _, want := range []string{"md: received migrant 42", tc.fragment} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not contain %q", err, want)
				}
			}
		})
	}
}

// TestGhostWidthIsTheHaloNewRankUses: Config.GhostWidth — what the topology
// choosers take as the minimum slab width — is the ghost width NewRank gives
// its box, for pure Fe and both ways of asking for the Fe-Cu potential; and
// the default configuration still reports 2 cells.
func TestGhostWidthIsTheHaloNewRankUses(t *testing.T) {
	def := DefaultConfig()
	if got := def.GhostWidth(); got != 2 {
		t.Errorf("default GhostWidth = %d, want 2", got)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"fe", func(c *Config) {}},
		{"fecu-fraction", func(c *Config) { c.CuFraction = 0.25 }},
		{"cu-host", func(c *Config) { c.Species = units.Cu }},
		{"fe-wide-cells", func(c *Config) { c.A = 2 * units.LatticeConstantFe }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Temperature = 0
			tc.mut(&cfg)
			runWorld(t, cfg, func(r *Rank) {
				if got := cfg.GhostWidth(); got != r.Box.Ghost {
					t.Errorf("GhostWidth = %d, NewRank's box has ghost %d", got, r.Box.Ghost)
				}
			})
		})
	}
}
