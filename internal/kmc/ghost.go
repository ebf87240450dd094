package kmc

import (
	"fmt"
	"slices"
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

// interestedRanks returns the peer ranks whose owned-or-ghost region
// contains the wrapped cell w: the owners of all cells within the ghost
// distance of w, found by probing the 27 cube corners (rank regions are
// axis-aligned boxes at least one ghost width wide, so corners suffice).
// It is a pure function of the grid; the flush reads it through interestOf.
func (st *State) interestedRanks(w lattice.Coord) []int {
	me := st.Comm.Rank()
	g := int32(st.Box.Ghost)
	var out []int
	for dz := int32(-1); dz <= 1; dz++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				r := st.Grid.RankOfCell(w.X+dx*g, w.Y+dy*g, w.Z+dz*g)
				if r != me && !slices.Contains(out, r) {
					out = append(out, r)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// interestOf returns the plan peers (as indices into plan.Peers) interested
// in the cell of local site local, whose wrapped coordinate is w. The
// answer is computed on a cell's first flush and remembered as an index
// into the short table of distinct lists (a few per axis, so far fewer
// than the uint16 holds).
func (st *State) interestOf(local int, w lattice.Coord) []int {
	cell := local >> 1
	if id := st.interestID[cell]; id != 0 {
		return st.interests[id-1]
	}
	var peers []int
	for _, r := range st.interestedRanks(w) {
		if i, ok := slices.BinarySearch(st.plan.Peers, r); ok {
			peers = append(peers, i)
		}
	}
	id := slices.IndexFunc(st.interests, func(l []int) bool { return slices.Equal(l, peers) })
	if id < 0 {
		id = len(st.interests)
		st.interests = append(st.interests, peers)
	}
	st.interestID[cell] = uint16(id + 1)
	return st.interests[id]
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
func (st *State) applyDirty(data []byte, from int) {
	u := halo.NewUnpacker("kmc", data)
	for !u.Done() {
		w := lattice.Coord{X: u.I32(), Y: u.I32(), Z: u.I32(), B: int8(u.U8())}
		occ := u.U8()
		base, ok := st.localBase(w.X, w.Y, w.Z)
		if !ok {
			//mdvet:ignore errpanic ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("kmc: rank %d sent update for invisible cell %+v", from, w))
		}
		st.setOcc(base+int(w.B), occ, false)
	}
}

// flushOnDemand implements the paper's on-demand communication strategy:
// only the sites affected during the sector travel, to exactly the ranks
// that can see them (Figure 8(d)).
func (st *State) flushOnDemand() {
	// Deterministic order over the dirty set: ascending, each site once.
	sort.Ints(st.dirty)
	for i := range st.packers {
		st.packers[i].Reset()
	}
	sites, prev := 0, -1
	for _, local := range st.dirty {
		if local == prev {
			continue
		}
		prev = local
		sites++
		w := st.L.Wrap(st.Box.GlobalCoord(local))
		for _, i := range st.interestOf(local, w) {
			packDirty(&st.packers[i], w, st.Occ[local])
		}
	}
	st.dirty = st.dirty[:0]
	st.tel.dirtySites.Add(int64(sites))

	switch st.Cfg.Protocol {
	case OnDemand:
		// Two-sided: a (possibly zero-size) message to every peer, because
		// the receiver cannot otherwise know nothing is coming — the
		// drawback the paper calls out.
		for i, peer := range st.plan.Peers {
			payload := st.packers[i].Bytes()
			st.Comm.Send(peer, tagKDirty, payload)
			st.tel.dirtyBytes.Add(int64(len(payload)))
		}
		for _, peer := range st.plan.Peers {
			status := st.Comm.Probe(peer, tagKDirty)
			data, _ := st.Comm.Recv(status.Source, status.Tag)
			st.applyDirty(data, peer)
		}
	case OnDemandOneSided:
		// One-sided: only ranks with updates put; the fence synchronizes.
		for i, peer := range st.plan.Peers {
			if payload := st.packers[i].Bytes(); len(payload) > 0 {
				st.win.Put(peer, payload)
				st.tel.dirtyBytes.Add(int64(len(payload)))
			}
		}
		for _, m := range st.win.Fence() {
			st.applyDirty(m.Data, m.Source)
		}
	default:
		//mdvet:ignore errpanic unreachable by construction: Config pins the protocol before the state exists
		panic("kmc: flushOnDemand with traditional protocol")
	}
}

// Stats returns the accumulated communication counters.
func (st *State) Stats() mpi.Stats { return st.Comm.Stats() }
