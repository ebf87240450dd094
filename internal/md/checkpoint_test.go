package md

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/units"
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
// field short or long of the owned-site count, a count that disagrees with
// the records, another rank's file, run-away counts that do not match the
// chain list, a species the run's potential lacks, a non-finite number —
// each in a file re-sealed so that its checksum holds, must
// surface at the trust boundary as a descriptive error from Restore and
// RestoreResharded, not as a partial copy, an index panic or a NaN
// trajectory; and a rejected Restore must leave the live state exactly as
// it was.
func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	cfg, good := cascadeRankFile(t)

	cases := []struct {
		name   string
		mutate func(rf *rankFile)
		want   string // what the error must name
	}{
		{"short Type", func(rf *rankFile) { rf.Type = rf.Type[:len(rf.Type)-1] }, "records take"},
		{"short R", func(rf *rankFile) { rf.R = rf.R[:len(rf.R)/2] }, "records take"},
		{"short Vel", func(rf *rankFile) { rf.Vel = nil }, "records take"},
		{"short F", func(rf *rankFile) { rf.F = rf.F[:1] }, "records take"},
		{"long Runaways", func(rf *rankFile) { rf.Runaways = append(rf.Runaways, 0) }, "records take"},
		{"one owned site short", func(rf *rankFile) {
			n := len(rf.ID) - 1
			rf.ID, rf.Type, rf.R, rf.Vel, rf.F, rf.Runaways = rf.ID[:n], rf.Type[:n], rf.R[:n], rf.Vel[:n], rf.F[:n], rf.Runaways[:n]
		}, "owned-site records, want"},
		{"wrong writer", func(rf *rankFile) { rf.Rank = 1 }, "checkpoint is for rank 1, want rank 0"},
		{"more run-away atoms than owned sites", func(rf *rankFile) {
			rf.Runaways[0] += int32(len(rf.ID))
			for range rf.ID {
				rf.Chain = append(rf.Chain, rf.Chain[0])
			}
		}, "rank file declares"},
		{"negative run-away count", func(rf *rankFile) { rf.Runaways[3] = -7 }, "field Runaways[3] is negative (-7)"},
		{"run-away counts past Chain", func(rf *rankFile) { rf.Runaways[0]++ }, "Chain holds"},
		{"unknown species", func(rf *rankFile) { rf.Type[5] = 9 }, "owned site 5 has element code 9"},
		{"species outside the potential", func(rf *rankFile) { rf.Type[5] = units.Cu }, "not a species of this run's potential [Fe]"},
		{"NaN x", func(rf *rankFile) { rf.R[5].X = math.NaN() }, "owned site 5 has non-finite R"},
		{"Inf velocity", func(rf *rankFile) { rf.Vel[2].Y = math.Inf(1) }, "owned site 2 has non-finite Vel"},
		{"NaN chain force", func(rf *rankFile) { rf.Chain[0].F.Z = math.NaN() }, "chain atom 0 has non-finite F"},
		{"unknown chain species", func(rf *rankFile) { rf.Chain[0].Type = 9 }, "chain atom 0 has element code 9"},
		{"NaN LastPE", func(rf *rankFile) { rf.LastPE = math.NaN() }, "LastPE NaN: want a non-negative step and a finite energy"},
		{"negative StepCount", func(rf *rankFile) { rf.StepCount = -3 }, "StepCount -3, LastPE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := mutateRankFile(t, good, tc.mutate)
			check := func(op string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted the corrupt snapshot", op)
				} else if msg := err.Error(); !strings.HasPrefix(msg, "md: ") || !strings.Contains(msg, tc.want) {
					t.Errorf("%s error %q does not name %q", op, msg, tc.want)
				}
			}
			runWorld(t, cfg, func(r *Rank) {
				before := stateOf(r)
				check("Restore", r.Restore(bytes.NewReader(bad)))
				if !reflect.DeepEqual(before, stateOf(r)) {
					t.Errorf("rejected Restore modified the live state")
				}
				check("RestoreResharded", r.RestoreResharded(ShardSource{
					Grid: r.Grid,
					Open: func(int) (io.ReadCloser, error) {
						return io.NopCloser(bytes.NewReader(bad)), nil
					},
				}))
			})
		})
	}
}

// TestRestoreRefusesVersion1File: rank files of the gob eras — version 1,
// a gob of the whole local store, ghosts, ρ and run-away pool included, and
// version 2, a gob of the owned atoms — are refused by the rank file format,
// not decoded into the wrong state.
func TestRestoreRefusesVersion1File(t *testing.T) {
	type storeV1 struct {
		ID   []int64
		Type []units.Element
		R    []vec.V
		Vel  []vec.V
		F    []vec.V
		Rho  []float64
		Head []int32
		Pool []neighbor.Runaway
		Free int32
	}
	type fileV1 struct {
		Version   int
		Rank      int
		StepCount int
		LastPE    float64
		Store     storeV1
	}
	type chainAtomV2 struct {
		ID        int64
		Type      units.Element
		R, Vel, F vec.V
	}
	type fileV2 struct {
		Version   int
		Rank      int
		StepCount int
		LastPE    float64
		ID        []int64
		Type      []units.Element
		R, Vel, F []vec.V
		Runaways  []int32
		Chain     []chainAtomV2
	}
	cfg := smallConfig()
	cfg.Temperature = 600
	var v1, v2, cur bytes.Buffer
	runWorld(t, cfg, func(r *Rank) {
		r.Step()
		s := r.Store
		err := gob.NewEncoder(&v1).Encode(fileV1{
			Version: 1, StepCount: r.StepCount, LastPE: r.LastPE,
			Store: storeV1{ID: s.ID, Type: s.Type, R: s.R, Vel: s.Vel, F: s.F, Rho: s.Rho, Head: s.Head, Free: neighbor.NoRunaway},
		})
		if err != nil {
			t.Errorf("encode: %v", err)
		}
		if err := r.Save(&cur); err != nil {
			t.Errorf("save: %v", err)
		}
	})
	rf := parseRankFile(t, cur.Bytes())
	err := gob.NewEncoder(&v2).Encode(fileV2{
		Version: 2, StepCount: int(rf.StepCount), LastPE: rf.LastPE,
		ID: rf.ID, Type: rf.Type, R: rf.R, Vel: rf.Vel, F: rf.F, Runaways: rf.Runaways,
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	runWorld(t, cfg, func(r *Rank) {
		before := stateOf(r)
		for _, old := range []*bytes.Buffer{&v1, &v2} {
			err := r.Restore(bytes.NewReader(old.Bytes()))
			if err == nil || !strings.HasPrefix(err.Error(), "md: ") || !strings.Contains(err.Error(), "rank file format") {
				t.Errorf("Restore of a gob rank file: error %v, want an md: error naming the rank file format", err)
			}
		}
		if !reflect.DeepEqual(before, stateOf(r)) {
			t.Errorf("refused Restore modified the live state")
		}
	})
}
