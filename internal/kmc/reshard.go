package kmc

import (
	"encoding/gob"
	"fmt"

	"mdkmc/internal/lattice"
)

// ShardSource is where an M-rank KMC checkpoint came from.
type ShardSource = lattice.ShardSource

// RestoreResharded loads a checkpoint written by an M-rank decomposition
// into a state of an N-rank decomposition of the same physical run. Every
// target rank scans all M source shards in rank order and writes the
// occupancy of each source-owned site into its own local images (owned and
// halo), then recomputes the electron densities from scratch and rebuilds
// the vacancy index. The clock is carried over; the cumulative per-rank
// event counters, which have no meaningful per-rank identity under a new
// decomposition, are summed onto rank 0 so the reported global total is
// preserved exactly. Restarts onto the source topology itself should use
// Restore, which is byte-exact; under a new topology the defect population
// is preserved exactly while the continued trajectory follows the new
// decomposition's (seed, rank, cycle, sector) RNG streams. Collective:
// every target rank must call it.
func (st *State) RestoreResharded(src ShardSource) error {
	if src.Grid == nil || src.Open == nil {
		return fmt.Errorf("kmc: reshard source missing grid or shard opener")
	}
	if src.Grid.L.Nx != st.L.Nx || src.Grid.L.Ny != st.L.Ny || src.Grid.L.Nz != st.L.Nz {
		return fmt.Errorf("kmc: reshard source lattice %dx%dx%d, want %dx%dx%d",
			src.Grid.L.Nx, src.Grid.L.Ny, src.Grid.L.Nz, st.L.Nx, st.L.Ny, st.L.Nz)
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
		cp, err := st.readShard(src, s, srcBox.NumLocalSites())
		if err != nil {
			return err
		}
		if cycles == -1 {
			time, cycles = cp.Time, cp.Cycles
		} else if cp.Cycles != cycles || cp.Time != time {
			return fmt.Errorf("kmc: shard %d at cycle %d t=%v, shard 0 at cycle %d t=%v",
				s, cp.Cycles, cp.Time, cycles, time)
		}
		events += cp.Events
		srcBox.EachOwned(func(c lattice.Coord, srcLocal int) {
			covered++
			occ := cp.Occ[srcLocal]
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

// readShard opens, decodes and validates one source shard, whose box has
// the given number of local sites.
func (st *State) readShard(src ShardSource, rank, sites int) (*checkpoint, error) {
	rd, err := src.Open(rank)
	if err != nil {
		return nil, fmt.Errorf("kmc: opening shard %d: %w", rank, err)
	}
	defer rd.Close()
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return nil, fmt.Errorf("kmc: decoding shard %d: %w", rank, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("kmc: shard %d version %d, want %d", rank, cp.Version, checkpointVersion)
	}
	if cp.Rank != rank {
		return nil, fmt.Errorf("kmc: shard %d claims rank %d", rank, cp.Rank)
	}
	if err := cp.validate(sites); err != nil {
		return nil, fmt.Errorf("kmc: shard %d %w", rank, err)
	}
	return &cp, nil
}
