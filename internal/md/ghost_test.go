package md

import (
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
)

// TestParseCellRequests: the ghost-handshake decoder resolves owned cells to
// local indices and rejects a request for a cell outside the receiver's
// subdomain with a descriptive error — a per-job failure, not a process
// abort (DESIGN.md §17, errpanic).
func TestParseCellRequests(t *testing.T) {
	l := lattice.New(4, 4, 4, 2.855)
	grid, err := lattice.NewGrid(l, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	box := grid.Box(0, 1) // rank 0 owns x ∈ [0,2)

	owned := lattice.Coord{X: 1, Y: 2, Z: 3}
	var p packer
	p.i64(int64(owned.X))
	p.i64(int64(owned.Y))
	p.i64(int64(owned.Z))
	list, err := parseCellRequests(p.buf, box, 1, 0)
	if err != nil {
		t.Fatalf("owned-cell request rejected: %v", err)
	}
	if len(list) != 1 || list[0] != box.LocalIndex(owned) {
		t.Fatalf("got %v, want [%d]", list, box.LocalIndex(owned))
	}

	var bad packer
	bad.i64(3) // x=3 belongs to rank 1
	bad.i64(0)
	bad.i64(0)
	if _, err := parseCellRequests(bad.buf, box, 1, 0); err == nil {
		t.Fatal("non-owned cell request accepted")
	} else if !strings.Contains(err.Error(), "non-owned cell") {
		t.Fatalf("error %q does not name the non-owned cell", err)
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
