package md

import (
	"fmt"

	"mdkmc/internal/lattice"
)

// ShardSource is where an M-rank MD checkpoint came from.
type ShardSource = lattice.ShardSource

// RestoreResharded loads a checkpoint written by an M-rank decomposition
// into a rank of an N-rank decomposition of the same physical run: the one
// restart call, whatever the two decompositions are. Onto this rank's own
// decomposition (equal lattice.Grid cuts) it reads only its own shard
// through Restore, byte-exact. Otherwise it opens, in source-rank order,
// only the shards whose owned box overlaps its own, places the sites it
// owns, and recomputes ghosts, forces, densities and the owned potential
// energy from the merged positions. Sources ascending, sites in canonical
// owned order, chains preserved: every restart onto the same target
// topology yields the same trajectory. Collective: every rank calls it.
func (r *Rank) RestoreResharded(src ShardSource) error {
	same, err := src.Onto(r.Grid)
	if err != nil {
		return fmt.Errorf("md: %w", err)
	}
	if same {
		rd, err := src.Open(r.Comm.Rank())
		if err != nil {
			return fmt.Errorf("md: opening shard %d: %w", r.Comm.Rank(), err)
		}
		defer rd.Close()
		return r.Restore(rd)
	}

	placed, stepCount := 0, -1
	for s := 0; s < src.Grid.Ranks(); s++ {
		srcBox := src.Grid.Box(s, 0)
		if !overlaps(srcBox, r.Box) {
			continue
		}
		rd, err := src.Open(s)
		if err != nil {
			return fmt.Errorf("md: opening shard %d: %w", s, err)
		}
		sh, err := r.decode(rd, s, srcBox.NumOwnedSites())
		rd.Close()
		if err != nil {
			return err
		}
		if stepCount == -1 {
			stepCount = sh.stepCount
		} else if sh.stepCount != stepCount {
			return fmt.Errorf("md: shard %d at step %d, an earlier shard at step %d", s, sh.stepCount, stepCount)
		}
		placed += r.place(sh, srcBox)
	}
	if placed != r.Box.NumOwnedSites() {
		return fmt.Errorf("md: reshard covered %d of %d owned sites — source boxes do not partition the lattice",
			placed, r.Box.NumOwnedSites())
	}
	r.StepCount = stepCount
	// Rebuild ghosts and derived state (F, ρ, F′(ρ), LastPE) from the merged
	// positions under the new decomposition's reduction order.
	r.computeForces()
	return nil
}

// overlaps reports whether boxes a and b own a common cell. Owned cells are
// never wrapped, so the per-dimension interval test is exact.
func overlaps(a, b *lattice.Box) bool {
	for d := 0; d < 3; d++ {
		if a.Hi[d] <= b.Lo[d] || b.Hi[d] <= a.Lo[d] {
			return false
		}
	}
	return true
}
