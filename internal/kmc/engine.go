package kmc

import (
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// TotalRate returns the total transition rate of the whole subdomain (all
// sectors) — the quantity the synchronous time window is derived from. It
// reads the incremental rate cache, so its cost is O(owned vacancies)
// rather than a full re-enumeration of all eight sectors.
func (st *State) TotalRate() float64 {
	var total float64
	for sec := 0; sec < 8; sec++ {
		total += st.sectorRate(sec)
	}
	return total
}

// runSector performs KMC within sector sec for the time window dt (step #5),
// using a stream derived from (seed, rank, cycle, sector) so trajectories
// are independent of the communication protocol and the schedule. Rates come
// from the incremental cache; only entries invalidated by the previous
// event's neighborhood (or an incoming ghost update) are recomputed.
func (st *State) runSector(sec int, dt float64) int {
	src := st.rng.Fork(uint64(st.Comm.Rank()), uint64(st.Cycles), uint64(sec))
	events := 0
	tloc := 0.0
	for {
		total := st.sectorRate(sec)
		if total <= 0 {
			break
		}
		tloc += src.Exp() / total
		if tloc > dt {
			break
		}
		// Select the event proportionally to its rate.
		u := src.Float64() * total
		site, target := st.pickEvent(sec, u)
		// Apply the swap: the moving atom (of whatever species) fills the
		// vacancy, which moves to the target site.
		moving := st.Occ[target]
		st.setOcc(site, moving, true)
		st.setOcc(target, Vacant, true)
		events++
	}
	return events
}

// Cycle advances the synchronous sublattice algorithm by one full pass over
// the eight sectors (steps #1-#9 of Figure 7) and returns the number of
// events executed on this rank.
func (st *State) Cycle() int {
	cyc := st.tel.cycle.Begin()
	// #1: the synchronous time window, from the globally slowest subdomain.
	sp := st.tel.sync.Begin()
	rmax := st.Comm.Allreduce(mpi.Max, st.TotalRate())[0]
	sp.End()
	var dt float64
	if rmax > 0 {
		dt = st.Cfg.DtFactor / rmax
	} else {
		// No mobile vacancy anywhere; advance time by a nominal window.
		dt = st.Cfg.DtFactor / st.Cfg.Nu * 1e6
	}
	events := 0
	for sec := 0; sec < 8; sec++ {
		if st.Cfg.Protocol == Traditional {
			// #6a: refresh the sector's read halo.
			sp = st.tel.get.Begin()
			st.exchangeBand(tagKGet, getBand, sec)
			sp.End()
		}
		sp = st.tel.sector.Begin()
		events += st.runSector(sec, dt)
		sp.End()
		// #6b: publish this sector's updates.
		if st.Cfg.Protocol == Traditional {
			sp = st.tel.put.Begin()
			st.exchangeBand(tagKPut, putBand, sec)
			sp.End()
			// The dirty set only feeds the on-demand flush; the put band
			// above already published these updates, so drop them — a
			// populated set would wrongly trip Save's mid-sector guard.
			st.dirty = st.dirty[:0]
		} else {
			sp = st.tel.flush.Begin()
			st.flushOnDemand(sec)
			sp.End()
		}
	}
	st.Time += dt
	st.Cycles++
	st.Events += events
	st.tel.events.Add(int64(events))
	cyc.End()
	return events
}

// Snapshot returns the owned occupancy keyed by wrapped global site index —
// the cross-protocol equivalence tests compare these.
func (st *State) Snapshot() map[int]uint8 {
	out := make(map[int]uint8)
	st.Box.EachOwned(func(c lattice.Coord, local int) {
		out[st.L.Index(st.L.Wrap(c))] = st.Occ[local]
	})
	return out
}

// TotalEnergy returns the global EAM energy of the occupancy state
// (collective): Σ_i [F(ρ_i) + ½ Σ_j φ_{t_i t_j}(r_ij)] over occupied sites.
// It is an analysis helper (binding/precipitation tests), not part of the
// hot path.
func (st *State) TotalEnergy() float64 {
	var local float64
	sh := st.en.shells
	st.Box.EachOwned(func(c lattice.Coord, i int) {
		ti := st.Occ[i]
		if ti == Vacant {
			return
		}
		e, _ := st.Pot.Embed(elementOf(ti), st.Rho[i])
		for k, d := range st.deltas[c.B] {
			j := i + int(d)
			if tj := st.Occ[j]; tj != Vacant {
				e += 0.5 * sh.phi[ti][tj][c.B][k]
			}
		}
		local += e
	})
	return st.Comm.Allreduce(mpi.Sum, local)[0]
}
