package kmc

import (
	"strings"
	"testing"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
)

// wantKMCPanic runs fn and asserts it panics with an error whose message
// carries the "kmc:" prefix and the given fragment — the contract malformed
// ghost messages must honor (a raw slice-bounds panic would carry neither).
func wantKMCPanic(t *testing.T, fragment string, fn func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("no panic for malformed input (want kmc error with %q)", fragment)
		}
		err, ok := p.(error)
		if !ok {
			t.Fatalf("panic value %v (%T) is not an error", p, p)
		}
		if !strings.HasPrefix(err.Error(), "kmc:") {
			t.Errorf("error %q lacks the kmc: prefix", err)
		}
		if !strings.Contains(err.Error(), fragment) {
			t.Errorf("error %q does not mention %q", err, fragment)
		}
	}()
	fn()
}

// TestUnpackerTruncatedMessage: reads past the buffer end must fail with a
// descriptive kmc error, for every partial prefix of a dirty record.
func TestUnpackerTruncatedMessage(t *testing.T) {
	// A full dirty record is 14 bytes (3×i32 + basis + occupancy); every
	// strict prefix is a truncation.
	var p halo.Packer
	p.I32(3)
	p.I32(4)
	p.I32(5)
	p.U8(0)
	p.U8(Vacant)
	for cut := 1; cut < len(p.Bytes()); cut++ {
		u := halo.NewUnpacker("kmc", p.Bytes()[:cut])
		wantKMCPanic(t, "truncated ghost message", func() {
			for !u.Done() {
				u.I32()
				u.I32()
				u.I32()
				u.U8()
				u.U8()
			}
		})
	}
}

// TestApplyDirtyTruncated: the on-demand receive path rejects a truncated
// wire message with a kmc error instead of a slice-bounds panic.
func TestApplyDirtyTruncated(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		var p halo.Packer
		packDirty(&p, st.L.Wrap(st.Box.GlobalCoord(0)), Vacant)
		wantKMCPanic(t, "truncated ghost message", func() {
			st.applyDirty(halo.NewUnpacker("kmc", p.Bytes()[:len(p.Bytes())-1]), 0)
		})
	})
}

// TestApplyDirtyInvisibleCell: structurally valid records that reference
// cells outside the receiver's region are rejected descriptively too.
func TestApplyDirtyInvisibleCell(t *testing.T) {
	cfg := testConfig()
	cfg.Cells = [3]int{28, 12, 12}
	cfg.Grid = [3]int{2, 1, 1}
	runWorld(t, cfg, func(st *State) {
		if st.Comm.Rank() != 0 {
			return
		}
		// Rank 0 owns x ∈ [0,14) plus a 5-cell ghost halo on each side; the
		// slab around x=20 lies deep in rank 1's interior, beyond both the
		// halo and its periodic images, so it is invisible here.
		var p halo.Packer
		packDirty(&p, lattice.Coord{X: 20, Y: 6, Z: 6}, Vacant)
		wantKMCPanic(t, "invisible cell", func() {
			st.applyDirty(halo.NewUnpacker("kmc", p.Bytes()), 1)
		})
	})
}

// TestApplyDirtyBadRecord: a record for a visible cell must still name a
// site and a species that exist. A basis outside {0,1} would rewrite a
// different cell's site, and an occupancy code past the species count would
// index past the shell tables.
func TestApplyDirtyBadRecord(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		w := st.L.Wrap(st.Box.GlobalCoord(0))
		cases := []struct {
			fragment string
			basis    int8
			occ      uint8
		}{
			{"basis 2 outside {0,1}", 2, Vacant},
			{"unknown occupancy code 3", 0, numSpecies},
		}
		for _, tc := range cases {
			var p halo.Packer
			bad := w
			bad.B = tc.basis
			packDirty(&p, bad, tc.occ)
			wantKMCPanic(t, tc.fragment, func() {
				st.applyDirty(halo.NewUnpacker("kmc", p.Bytes()), 0)
			})
		}
	})
}

// TestGhostWidthIsTheHaloNewStateUses: Config.GhostWidth — the minimum slab
// width the topology choosers respect — is the 2·reach+1 halo NewState gives
// its box, for pure Fe and both ways of asking for the Fe-Cu potential; and
// the default configuration still reports 3 cells.
func TestGhostWidthIsTheHaloNewStateUses(t *testing.T) {
	def := DefaultConfig()
	if got := def.GhostWidth(); got != 3 {
		t.Errorf("default GhostWidth = %d, want 3", got)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"fe", func(c *Config) {}},
		{"fecu-concentration", func(c *Config) { c.CuConcentration = 0.02 }},
		{"fecu-sites", func(c *Config) { c.CuSites = []int{5} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			runWorld(t, cfg, func(st *State) {
				if got := cfg.GhostWidth(); got != st.Box.Ghost || got != 2*st.reach+1 {
					t.Errorf("GhostWidth = %d, NewState's box has ghost %d (reach %d)",
						got, st.Box.Ghost, st.reach)
				}
			})
		})
	}
}
