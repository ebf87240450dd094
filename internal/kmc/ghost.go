package kmc

import (
	"fmt"
	"sort"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// Message tags of the KMC protocols.
const (
	tagKGet = iota + 200
	tagKPut
	tagKDirty
)

// vacancySeedSalt derives the vacancy-placement RNG stream.
const vacancySeedSalt = 0xFACC

// exchangeBand runs one band of the traditional protocol for sector sec.
// getBand refreshes the sector's read halo from the owning ranks before the
// sector runs (paper Figure 8(b)); the complete halo band travels
// regardless of what actually changed, and that redundancy is precisely
// what Figure 12 measures. putBand pushes the sector's one-cell write band
// back to the owners afterwards (Figure 8(c)); only the active sector's
// band travels, so no two ranks write the same cell in the same phase (the
// synchronous-sublattice separation property).
func (st *State) exchangeBand(tag, band, sec int) {
	st.plan.Exchange(st.Comm,
		halo.Channel{Pkg: "kmc", Tag: tag, Class: band + sec, Bytes: st.tel.bandBytes},
		func(p *halo.Packer, base int) {
			p.U8(st.Occ[base])
			p.U8(st.Occ[base+1])
		},
		func(u *halo.Unpacker, c halo.Cell) {
			st.setOcc(c.Local, u.U8(), false)
			st.setOcc(c.Local+1, u.U8(), false)
		})
}

// dirtyRecord is one affected site on the wire: wrapped cell, basis,
// occupancy.
func packDirty(p *halo.Packer, w lattice.Coord, occ uint8) {
	p.I32(w.X)
	p.I32(w.Y)
	p.I32(w.Z)
	p.U8(uint8(w.B))
	p.U8(occ)
}

// applyDirty replays a peer's dirty-site message against the local halo.
// Malformed input — a truncated record or a cell outside the local region —
// fails with a descriptive kmc error rather than a raw runtime panic.
func (st *State) applyDirty(u *halo.Unpacker, from int) {
	for !u.Done() {
		w := lattice.Coord{X: u.I32(), Y: u.I32(), Z: u.I32(), B: int8(u.U8())}
		occ := u.U8()
		base, ok := st.localBase(w.X, w.Y, w.Z)
		if !ok || w.B < 0 || w.B > 1 || occ >= numSpecies {
			what := "an invisible cell"
			switch {
			case occ >= numSpecies:
				what = fmt.Sprintf("unknown occupancy code %d", occ)
			case ok:
				what = fmt.Sprintf("basis %d outside {0,1}", w.B)
			}
			//mdvet:ignore errpanic ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("kmc: rank %d sent an update for %s (site %+v)", from, what, w))
		}
		st.setOcc(base+int(w.B), occ, false)
	}
}

// flushOnDemand implements the paper's on-demand communication strategy:
// only the sites affected during sector sec travel, to exactly the ranks
// that can see them (Figure 8(d)). The round is sector sec's plan class, so
// it messages only the peers the sector can reach; to those it sends a
// message even when it is empty, because the receiver cannot otherwise know
// that nothing is coming.
func (st *State) flushOnDemand(sec int) {
	// Deterministic order over the dirty set: ascending, each site once.
	sort.Ints(st.dirty)
	sites, prev := 0, -1
	for _, local := range st.dirty {
		if local == prev {
			continue
		}
		prev = local
		sites++
		w := st.L.Wrap(st.Box.GlobalCoord(local))
		for _, p := range st.plan.Interest(local, w) {
			packDirty(p, w, st.Occ[local])
		}
	}
	st.dirty = st.dirty[:0]
	st.tel.dirtySites.Add(int64(sites))
	ch := st.dirtyCh
	ch.Class = sec
	st.plan.ExchangeSparse(st.Comm, ch, st.applyDirty)
}

// Stats returns the accumulated communication counters.
func (st *State) Stats() mpi.Stats { return st.Comm.Stats() }
