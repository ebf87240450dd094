package kmc

import (
	"encoding/gob"
	"fmt"
	"io"
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

// validate checks a decoded checkpoint — input from outside the program —
// against a state of `sites` local sites: both per-site slices have that
// length and every occupancy is a known code (an unknown one would index
// past the per-species shell tables).
func (cp *checkpoint) validate(sites int) error {
	if len(cp.Occ) != sites {
		return fmt.Errorf("checkpoint field Occ has %d entries, want %d sites", len(cp.Occ), sites)
	}
	if len(cp.Rho) != sites {
		return fmt.Errorf("checkpoint field Rho has %d entries, want %d sites", len(cp.Rho), sites)
	}
	for i, occ := range cp.Occ {
		if occ >= numSpecies {
			return fmt.Errorf("checkpoint field Occ[%d] holds unknown occupancy code %d", i, occ)
		}
	}
	return nil
}

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
// Config and world size.
func (st *State) Restore(rd io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return fmt.Errorf("kmc: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("kmc: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Rank != st.Comm.Rank() {
		return fmt.Errorf("kmc: checkpoint is for rank %d, this is rank %d", cp.Rank, st.Comm.Rank())
	}
	if err := cp.validate(len(st.Occ)); err != nil {
		return fmt.Errorf("kmc: rank %d %w", cp.Rank, err)
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
