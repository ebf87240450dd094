package kmc

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// checkpoint is the serialized per-rank KMC state. Geometry and plans are
// rebuilt from the Config on restore; occupancy, densities and the clock
// are carried over, so the continued trajectory — whose RNG streams are a
// pure function of (seed, rank, cycle, sector) — is bit-identical to an
// uninterrupted run.
type checkpoint struct {
	Version int
	Rank    int
	Occ     []uint8
	Rho     []float64
	Time    float64
	Cycles  int
	Events  int
}

// Version history: 1 carried (Occ, Rho, Time, Cycles); 2 adds the
// cumulative per-rank event counter so a restarted run reports the same
// total event count as an uninterrupted one.
const checkpointVersion = 2

// Save writes this rank's mutable state; call it at a cycle boundary (the
// dirty set must be empty, which Cycle guarantees on return).
func (st *State) Save(w io.Writer) error {
	if len(st.dirty) != 0 {
		return fmt.Errorf("kmc: checkpoint requested mid-sector (%d dirty sites)", len(st.dirty))
	}
	return gob.NewEncoder(w).Encode(checkpoint{
		Version: checkpointVersion,
		Rank:    st.Comm.Rank(),
		Occ:     st.Occ,
		Rho:     st.Rho,
		Time:    st.Time,
		Cycles:  st.Cycles,
		Events:  st.Events,
	})
}

// Restore loads state written by Save into a state built with the same
// Config and world size. A rejected file leaves the state untouched.
func (st *State) Restore(rd io.Reader) error {
	cp, err := decode(rd, st.Comm.Rank(), len(st.Occ))
	if err != nil {
		return err
	}
	copy(st.Occ, cp.Occ)
	copy(st.Rho, cp.Rho)
	st.Time = cp.Time
	st.Cycles = cp.Cycles
	st.Events = cp.Events
	// Rebuild the owned-vacancy index and the event-rate cache from the
	// restored occupancy.
	st.rebuildVacancyIndex()
	return nil
}

// decode reads and checks the rank file of `rank`, input from outside the
// program: format version, writing rank, per-site slices of `sites` entries,
// known occupancy codes only (an unknown one would index past the
// per-species shell tables), finite densities (a NaN one indexes past the
// embedding table), a finite non-negative clock and non-negative counters —
// the rule Config.Validate applies. Restore and the re-shard merge share it.
func decode(rd io.Reader, rank, sites int) (*checkpoint, error) {
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return nil, fmt.Errorf("kmc: decoding checkpoint of rank %d: %w", rank, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("kmc: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Rank != rank {
		return nil, fmt.Errorf("kmc: checkpoint is for rank %d, want rank %d", cp.Rank, rank)
	}
	if len(cp.Occ) != sites {
		return nil, fmt.Errorf("kmc: rank %d checkpoint field Occ has %d entries, want %d sites", rank, len(cp.Occ), sites)
	}
	if len(cp.Rho) != sites {
		return nil, fmt.Errorf("kmc: rank %d checkpoint field Rho has %d entries, want %d sites", rank, len(cp.Rho), sites)
	}
	for i, occ := range cp.Occ {
		if occ >= numSpecies {
			return nil, fmt.Errorf("kmc: rank %d checkpoint field Occ[%d] holds unknown occupancy code %d", rank, i, occ)
		}
		if rho := cp.Rho[i]; math.IsNaN(rho) || math.IsInf(rho, 0) {
			return nil, fmt.Errorf("kmc: rank %d checkpoint field Rho[%d] holds non-finite density %v", rank, i, rho)
		}
	}
	if !(cp.Time >= 0) || math.IsInf(cp.Time, 1) || cp.Cycles < 0 || cp.Events < 0 {
		return nil, fmt.Errorf("kmc: rank %d checkpoint clock t=%v after %d cycles and %d events: want all finite and non-negative",
			rank, cp.Time, cp.Cycles, cp.Events)
	}
	return &cp, nil
}
