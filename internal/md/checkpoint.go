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
// an uninterrupted run. A rejected file leaves the rank untouched.
func (r *Rank) Restore(rd io.Reader) error {
	cp, err := decode(rd, r.Comm.Rank(), len(r.Store.ID))
	if err != nil {
		return err
	}
	r.Store.Restore(cp.Store)
	r.StepCount = cp.StepCount
	r.LastPE = cp.LastPE
	return nil
}

// decode reads and checks the rank file of `rank`, input from outside the
// program: format version, writing rank, and a sound store of `sites` local
// sites (neighbor.Snapshot.Validate). Restore and the re-shard merge share it.
func decode(rd io.Reader, rank, sites int) (*checkpoint, error) {
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return nil, fmt.Errorf("md: decoding checkpoint of rank %d: %w", rank, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("md: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Rank != rank {
		return nil, fmt.Errorf("md: checkpoint is for rank %d, want rank %d", cp.Rank, rank)
	}
	if err := cp.Store.Validate(sites); err != nil {
		return nil, fmt.Errorf("md: checkpoint of rank %d: %w", rank, err)
	}
	return &cp, nil
}
