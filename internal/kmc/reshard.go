package kmc

import (
	"fmt"

	"mdkmc/internal/lattice"
)

// ShardSource is where an M-rank KMC checkpoint came from.
type ShardSource = lattice.ShardSource

// RestoreResharded loads a checkpoint written by an M-rank decomposition
// into a state of an N-rank decomposition of the same physical run: the one
// restart call, whatever the two decompositions are. Onto this state's own
// decomposition (equal lattice.Grid cuts) it reads only this rank's shard
// through Restore, byte-exact. Otherwise every target rank scans all M
// source shards in rank order and writes the occupancy of each source-owned
// site into its own local images (owned and halo), then recomputes the
// electron densities from scratch and rebuilds the vacancy index. The clock
// is carried over; the cumulative per-rank event counters, which have no
// per-rank identity under a new decomposition, are summed onto rank 0 so
// the global total is preserved exactly. The defect population is preserved
// exactly while the continued trajectory follows the new decomposition's
// (seed, rank, cycle, sector) RNG streams. Collective: every rank calls it.
func (st *State) RestoreResharded(src ShardSource) error {
	same, err := src.Onto(st.Grid)
	if err != nil {
		return fmt.Errorf("kmc: %w", err)
	}
	if same {
		rd, err := src.Open(st.Comm.Rank())
		if err != nil {
			return fmt.Errorf("kmc: opening shard %d: %w", st.Comm.Rank(), err)
		}
		defer rd.Close()
		return st.Restore(rd)
	}

	// Drop the initialization occupancy: every site is re-derived from the
	// shards (sites outside every source-owned region cannot exist — the
	// boxes partition the lattice).
	for i := range st.Occ {
		st.Occ[i] = Atom
	}

	covered := 0
	time, cycles, events := 0.0, -1, 0
	for s := 0; s < src.Grid.Ranks(); s++ {
		srcBox := src.Grid.Box(s, 2*st.reach+1)
		rd, err := src.Open(s)
		if err != nil {
			return fmt.Errorf("kmc: opening shard %d: %w", s, err)
		}
		sh, err := decode(rd, s, srcBox.NumLocalSites())
		rd.Close()
		if err != nil {
			return err
		}
		if cycles == -1 {
			time, cycles = sh.time, sh.cycles
		} else if sh.cycles != cycles || sh.time != time {
			return fmt.Errorf("kmc: shard %d at cycle %d t=%v, shard 0 at cycle %d t=%v",
				s, sh.cycles, sh.time, cycles, time)
		}
		events += sh.events
		srcBox.EachOwned(func(c lattice.Coord, srcLocal int) {
			covered++
			occ := sh.occ[srcLocal]
			base, ok := st.localBase(c.X, c.Y, c.Z)
			if !ok {
				return // outside my local region
			}
			st.eachImage(base, func(member int) {
				st.Occ[member+int(c.B)] = occ
			})
		})
	}
	if covered != st.L.NumSites() {
		return fmt.Errorf("kmc: reshard covered %d of %d sites — source boxes do not partition the lattice",
			covered, st.L.NumSites())
	}
	st.Time = time
	st.Cycles = cycles
	if st.Comm.Rank() == 0 {
		st.Events = events
	} else {
		st.Events = 0
	}
	st.initRho()
	st.rebuildVacancyIndex()
	return nil
}

// SetClock overwrites the accumulated clock, cycle count and cumulative
// event counter — used by the rebalance handoff, which rebuilds the State
// on a new decomposition mid-run and carries the old clock forward so the
// continued trajectory's (seed, rank, cycle, sector) RNG streams line up.
func (st *State) SetClock(time float64, cycles, events int) {
	st.Time = time
	st.Cycles = cycles
	st.Events = events
}
