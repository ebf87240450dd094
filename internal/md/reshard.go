package md

import (
	"fmt"

	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
)

// ShardSource is where an M-rank MD checkpoint came from.
type ShardSource = lattice.ShardSource

// RestoreResharded loads a checkpoint written by an M-rank decomposition
// into a rank of an N-rank decomposition of the same physical run: the one
// restart call, whatever the two decompositions are. Onto this rank's own
// decomposition (equal lattice.Grid cuts) it reads only this rank's shard
// through Restore, byte-exact. Otherwise every target rank scans all M
// source shards in rank order and keeps the owned sites (and their anchored
// run-away atoms) that fall inside its own subdomain; ghost state is rebuilt
// by the next ghost exchange, and forces, densities and the owned
// potential-energy share are recomputed from the merged positions. The merge
// order — source ranks ascending, sites in canonical owned order, run-away
// chains preserved — is deterministic, so every restart onto the same target
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

	// Drop the perfect-lattice initialization of NewRank: every owned site is
	// overwritten below, and stale run-away chains must not survive.
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		r.Store.ClearRunaways(local)
	})

	merged := 0
	stepCount := -1
	for s := 0; s < src.Grid.Ranks(); s++ {
		srcBox := src.Grid.Box(s, r.Box.Ghost)
		rd, err := src.Open(s)
		if err != nil {
			return fmt.Errorf("md: opening shard %d: %w", s, err)
		}
		cp, err := decode(rd, s, srcBox.NumLocalSites())
		rd.Close()
		if err != nil {
			return err
		}
		if stepCount == -1 {
			stepCount = cp.StepCount
		} else if cp.StepCount != stepCount {
			return fmt.Errorf("md: shard %d at step %d, shard 0 at step %d", s, cp.StepCount, stepCount)
		}
		srcBox.EachOwned(func(c lattice.Coord, srcLocal int) {
			if !r.Box.Owns(c) {
				// Not ours; chains anchored here belong to the rank owning c.
				return
			}
			dst := r.Box.LocalIndex(c)
			r.Store.ID[dst] = cp.Store.ID[srcLocal]
			r.Store.Type[dst] = cp.Store.Type[srcLocal]
			r.Store.R[dst] = cp.Store.R[srcLocal]
			r.Store.Vel[dst] = cp.Store.Vel[srcLocal]
			r.Store.F[dst] = cp.Store.F[srcLocal]
			r.Store.Rho[dst] = cp.Store.Rho[srcLocal]
			// Re-chain the run-aways anchored at this site. AddRunaway
			// prepends, so walking the source chain into a buffer and adding
			// in reverse preserves the source chain order exactly.
			var chain []neighbor.Runaway
			for ref := cp.Store.Head[srcLocal]; ref != neighbor.NoRunaway; ref = cp.Store.Pool[ref].Next {
				chain = append(chain, cp.Store.Pool[ref])
			}
			for i := len(chain) - 1; i >= 0; i-- {
				a := chain[i]
				a.Next = neighbor.NoRunaway
				r.Store.AddRunaway(dst, a)
			}
			merged++
		})
	}
	if merged != r.Box.NumOwnedSites() {
		return fmt.Errorf("md: reshard covered %d of %d owned sites — source boxes do not partition the lattice",
			merged, r.Box.NumOwnedSites())
	}
	r.StepCount = stepCount
	// Rebuild ghosts and derived state (F, ρ, F′(ρ), LastPE) from the merged
	// positions under the new decomposition's reduction order.
	r.computeForces()
	return nil
}
