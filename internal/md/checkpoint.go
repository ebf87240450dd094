package md

import (
	"encoding/gob"
	"fmt"
	"io"

	"mdkmc/internal/neighbor"
)

// checkpoint is the serialized per-rank MD state. The configuration itself
// is not stored: restoring requires building a Rank with the identical
// Config first, which also revalidates the geometry.
type checkpoint struct {
	Version   int
	Rank      int
	StepCount int
	LastPE    float64
	Store     neighbor.Snapshot
}

const checkpointVersion = 1

// Save writes this rank's complete mutable state. Each rank saves its own
// stream (one file per rank in a parallel run).
func (r *Rank) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(checkpoint{
		Version:   checkpointVersion,
		Rank:      r.Comm.Rank(),
		StepCount: r.StepCount,
		LastPE:    r.LastPE,
		Store:     r.Store.Snapshot(),
	})
}

// Restore loads state previously written by Save into a rank built with the
// same Config and world size. The continued trajectory is bit-identical to
// an uninterrupted run.
func (r *Rank) Restore(rd io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return fmt.Errorf("md: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("md: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Rank != r.Comm.Rank() {
		return fmt.Errorf("md: checkpoint is for rank %d, this is rank %d", cp.Rank, r.Comm.Rank())
	}
	if err := r.Store.Restore(cp.Store); err != nil {
		return fmt.Errorf("md: checkpoint of rank %d: %w", cp.Rank, err)
	}
	r.StepCount = cp.StepCount
	r.LastPE = cp.LastPE
	return nil
}
