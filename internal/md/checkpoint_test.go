package md

import (
	"bytes"
	"encoding/gob"
	"io"
	"reflect"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/vec"
)

// TestCheckpointResumeIdentical: run A for 40 steps; run B for 20, save,
// restore into a fresh rank, run 20 more; positions must match bitwise.
func TestCheckpointResumeIdentical(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 600

	positions := func(r *Rank) map[int64]vec.V {
		out := make(map[int64]vec.V)
		r.Box.EachOwned(func(_ lattice.Coord, local int) {
			if !r.Store.IsVacancy(local) {
				out[r.Store.ID[local]] = r.Store.R[local]
			}
			r.Store.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
				out[a.ID] = a.R
			})
		})
		return out
	}

	var straight map[int64]vec.V
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 40; i++ {
			r.Step()
		}
		straight = positions(r)
	})

	var blob bytes.Buffer
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 20; i++ {
			r.Step()
		}
		if err := r.Save(&blob); err != nil {
			t.Errorf("save: %v", err)
		}
	})

	var resumed map[int64]vec.V
	runWorld(t, cfg, func(r *Rank) {
		if err := r.Restore(bytes.NewReader(blob.Bytes())); err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		if r.StepCount != 20 {
			t.Errorf("restored step count %d", r.StepCount)
		}
		for i := 0; i < 20; i++ {
			r.Step()
		}
		resumed = positions(r)
	})

	if len(resumed) != len(straight) {
		t.Fatalf("atom counts differ: %d vs %d", len(resumed), len(straight))
	}
	for id, p := range straight {
		if resumed[id] != p {
			t.Fatalf("atom %d diverged after resume: %v vs %v", id, resumed[id], p)
		}
	}
}

func TestCheckpointRejectsWrongRank(t *testing.T) {
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 6, 6}
	cfg.Grid = [3]int{2, 1, 1}
	blobs := make([]bytes.Buffer, 2)
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		r, err := NewRank(cfg, c)
		if err != nil {
			panic(err)
		}
		if err := r.Save(&blobs[c.Rank()]); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	w2 := mpi.NewWorld(2)
	w2.Run(func(c *mpi.Comm) {
		r, err := NewRank(cfg, c)
		if err != nil {
			panic(err)
		}
		// Deliberately cross the streams.
		other := (c.Rank() + 1) % 2
		if err := r.Restore(bytes.NewReader(blobs[other].Bytes())); err == nil {
			t.Errorf("rank %d accepted rank %d's checkpoint", c.Rank(), other)
		}
	})
}

func TestCheckpointRejectsWrongGeometry(t *testing.T) {
	small := smallConfig()
	var blob bytes.Buffer
	runWorld(t, small, func(r *Rank) {
		if err := r.Save(&blob); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	big := smallConfig()
	big.Cells = [3]int{8, 8, 8}
	runWorld(t, big, func(r *Rank) {
		if err := r.Restore(bytes.NewReader(blob.Bytes())); err == nil {
			t.Errorf("mismatched geometry accepted")
		}
	})
}

// TestCheckpointResumeIdenticalParallel is the round-trip property under a
// 2-rank decomposition with a multi-worker force pool: Save after 20 steps,
// Restore into fresh ranks, run 20 more — bit-identical to 40 straight
// steps. Workers is a documented bit-identical knob, so the resumed world
// deliberately uses a different count than the saver.
func TestCheckpointResumeIdenticalParallel(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 600
	cfg.Cells = [3]int{12, 6, 6}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Workers = 3

	positions := func(r *Rank) map[int64]vec.V {
		out := make(map[int64]vec.V)
		r.Box.EachOwned(func(_ lattice.Coord, local int) {
			if !r.Store.IsVacancy(local) {
				out[r.Store.ID[local]] = r.Store.R[local]
			}
			r.Store.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
				out[a.ID] = a.R
			})
		})
		return out
	}
	merge := func(perRank []map[int64]vec.V) map[int64]vec.V {
		out := make(map[int64]vec.V)
		for _, m := range perRank {
			for id, p := range m {
				out[id] = p
			}
		}
		return out
	}

	ranks := cfg.Ranks()
	straightPer := make([]map[int64]vec.V, ranks)
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 40; i++ {
			r.Step()
		}
		straightPer[r.Comm.Rank()] = positions(r)
	})

	blobs := make([]bytes.Buffer, ranks)
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 20; i++ {
			r.Step()
		}
		if err := r.Save(&blobs[r.Comm.Rank()]); err != nil {
			t.Errorf("save: %v", err)
		}
	})

	resumedPer := make([]map[int64]vec.V, ranks)
	resumedCfg := cfg
	resumedCfg.Workers = 2 // different pool size must not change the bits
	runWorld(t, resumedCfg, func(r *Rank) {
		if err := r.Restore(bytes.NewReader(blobs[r.Comm.Rank()].Bytes())); err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			r.Step()
		}
		resumedPer[r.Comm.Rank()] = positions(r)
	})

	straight, resumed := merge(straightPer), merge(resumedPer)
	if len(resumed) != len(straight) {
		t.Fatalf("atom counts differ: %d vs %d", len(resumed), len(straight))
	}
	for id, p := range straight {
		if resumed[id] != p {
			t.Fatalf("atom %d diverged after parallel resume: %v vs %v", id, resumed[id], p)
		}
	}
}

// TestRestoreDoesNotReinjectPKA (the restart-after-injection audit): NewRank
// applies cfg.PKA before any Restore, so a restarted run has injected the
// recoil a second time by the time the snapshot loads. Restore must fully
// overwrite the velocities — the recoil's kinetic energy appears in the
// resumed trajectory exactly once, never stacked.
func TestRestoreDoesNotReinjectPKA(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 0
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 120}

	// Reference: 20 uninterrupted steps.
	var straightKE, straightPE float64
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 20; i++ {
			r.Step()
		}
		straightKE, straightPE = r.TotalEnergy()
	})

	// Save mid-cascade at step 10.
	var blob bytes.Buffer
	var keAtSave float64
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.Step()
		}
		keAtSave, _ = r.TotalEnergy()
		if err := r.Save(&blob); err != nil {
			t.Errorf("save: %v", err)
		}
	})

	// Restart: the fresh rank has the PKA injected again; Restore erases it.
	runWorld(t, cfg, func(r *Rank) {
		if err := r.Restore(bytes.NewReader(blob.Bytes())); err != nil {
			t.Errorf("restore: %v", err)
			return
		}
		if ke, _ := r.TotalEnergy(); ke != keAtSave {
			t.Errorf("kinetic energy after restore %v eV, want %v — the construction-time PKA leaked into the restored state",
				ke, keAtSave)
		}
		for i := 0; i < 20-10; i++ {
			r.Step()
		}
		ke, pe := r.TotalEnergy()
		if ke != straightKE || pe != straightPE {
			t.Errorf("resumed energies (%v, %v), uninterrupted run had (%v, %v)",
				ke, pe, straightKE, straightPE)
		}
	})

	// Sanity: at T = 0 the cascade's entire kinetic energy is the recoil's.
	var ke0 float64
	runWorld(t, cfg, func(r *Rank) { ke0, _ = r.TotalEnergy() })
	if d := ke0 - 120; d > 1e-9 || d < -1e-9 {
		t.Errorf("kinetic energy at construction %v eV, want the 120 eV recoil", ke0)
	}
}

// TestRestoreRejectsCorruptSnapshot: a checkpoint file is input from
// outside the program. Every way one field of it can be wrong — a per-site
// slice of the wrong length, a run-away reference outside the pool, a chain
// that loops or shares a slot — must surface at the trust boundary as a
// descriptive error from Restore and RestoreResharded, not as a partial
// copy, an index panic or a hang in a later chain walk; and a rejected
// Restore must leave the live store exactly as it was.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 600
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 120}

	// A cascade state: run-away chains in use and freed pool slots.
	var good bytes.Buffer
	chained := -1 // a site with a run-away chain
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 200 && chained < 0; i++ {
			r.Step()
			if snap := r.Store.Snapshot(); snap.Free != neighbor.NoRunaway {
				for site, head := range snap.Head {
					if head != neighbor.NoRunaway {
						chained = site
					}
				}
			}
		}
		if err := r.Save(&good); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	if chained < 0 {
		t.Fatalf("cascade left no state with both a run-away chain and a freed pool slot")
	}

	cases := []struct {
		name   string
		mutate func(s *neighbor.Snapshot)
		want   string // what the error must name
	}{
		{"short Type", func(s *neighbor.Snapshot) { s.Type = s.Type[:len(s.Type)-1] }, "field Type"},
		{"short R", func(s *neighbor.Snapshot) { s.R = s.R[:len(s.R)/2] }, "field R"},
		{"short Vel", func(s *neighbor.Snapshot) { s.Vel = nil }, "field Vel"},
		{"short F", func(s *neighbor.Snapshot) { s.F = s.F[:1] }, "field F"},
		{"short Rho", func(s *neighbor.Snapshot) { s.Rho = s.Rho[:len(s.Rho)-1] }, "field Rho"},
		{"long Head", func(s *neighbor.Snapshot) { s.Head = append(s.Head, neighbor.NoRunaway) }, "field Head"},
		{"Head past Pool", func(s *neighbor.Snapshot) { s.Head[0] = int32(len(s.Pool)) }, "Head chain (site 0) references run-away"},
		{"Head negative", func(s *neighbor.Snapshot) { s.Head[3] = -7 }, "Head chain (site 3) references run-away -7"},
		{"Next past Pool", func(s *neighbor.Snapshot) { s.Pool[s.Head[chained]].Next = int32(len(s.Pool)) + 5 }, "Head chain"},
		{"Free past Pool", func(s *neighbor.Snapshot) { s.Free = int32(len(s.Pool)) }, "Free chain"},
		{"Next cycle", func(s *neighbor.Snapshot) { s.Pool[s.Head[chained]].Next = s.Head[chained] }, "a second time"},
		{"chain shares the free list", func(s *neighbor.Snapshot) { s.Head[0] = s.Free }, "a second time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp checkpoint
			if err := gob.NewDecoder(bytes.NewReader(good.Bytes())).Decode(&cp); err != nil {
				t.Fatalf("decode: %v", err)
			}
			tc.mutate(&cp.Store)
			var bad bytes.Buffer
			if err := gob.NewEncoder(&bad).Encode(cp); err != nil {
				t.Fatalf("encode: %v", err)
			}
			check := func(op string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted the corrupt snapshot", op)
				} else if msg := err.Error(); !strings.HasPrefix(msg, "md: ") ||
					!strings.Contains(msg, "neighbor: snapshot") || !strings.Contains(msg, tc.want) {
					t.Errorf("%s error %q does not name %q", op, msg, tc.want)
				}
			}
			runWorld(t, cfg, func(r *Rank) {
				before := r.Store.Snapshot()
				check("Restore", r.Restore(bytes.NewReader(bad.Bytes())))
				if !reflect.DeepEqual(before, r.Store.Snapshot()) || r.StepCount != 0 {
					t.Errorf("rejected Restore modified the live state")
				}
				check("RestoreResharded", r.RestoreResharded(ShardSource{
					Grid: r.Grid,
					Open: func(int) (io.ReadCloser, error) {
						return io.NopCloser(bytes.NewReader(bad.Bytes())), nil
					},
				}))
			})
		})
	}
}
