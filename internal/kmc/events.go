package kmc

import (
	"sort"

	"mdkmc/internal/lattice"
)

// Incremental event-rate bookkeeping. The seed implementation re-enumerated
// every candidate hop of a sector (each a swapDeltaE evaluation over the
// full Rho/phi shells) on every executed event, making a cycle
// O(events x vacancies x 8). This file caches, per owned vacancy, its <=8
// candidate hop rates and invalidates entries only within the exact
// dependency radius of an occupancy change, so steady-state selection costs
// O(active vacancies) float additions per event and swapDeltaE runs only
// where the state actually changed — whether the change came from an
// executed hop, a traditional ghost get/put, or an on-demand dirty record.
//
// Determinism contract: rates are cached bit-exactly (a cached value always
// equals what a fresh swapDeltaE at the current state would produce, because
// invalidation is conservative over the full footprint), and both the sum
// and the selection walk run in the seed's enumeration order (ascending
// owned vacancy index, then first-shell offset index). Trajectories are
// therefore bit-identical to the full-rescan mode across all protocols.

// vacCache is one owned vacancy: its site, and its cached candidate hop
// rates. The per-sector lists of these entries (State.secVacs, ascending by
// site) are the only vacancy index there is — membership, selection order
// and the rate cache in one structure.
type vacCache struct {
	site       int   // local index
	cx, cy, cz int32 // unwrapped owned cell coordinate (Box.GlobalCoord)
	valid      bool
	n          int        // number of first-shell candidates (len(shell1))
	mask       uint8      // bit k set when target k holds an atom (a real event)
	rates      [8]float64 // rate of candidate k; meaningful where mask bit set
}

// vacSlot returns the sector of owned site local, its coordinate, and the
// position in that sector's list where its entry is or would be inserted.
func (st *State) vacSlot(local int) (sec, i int, c lattice.Coord) {
	c = st.Box.GlobalCoord(local)
	sec = st.sectorOf(c)
	list := st.secVacs[sec]
	i = sort.Search(len(list), func(i int) bool { return list[i].site >= local })
	return sec, i, c
}

// vacAdd registers local as an owned vacancy with an empty rate cache.
func (st *State) vacAdd(local int) {
	sec, i, c := st.vacSlot(local)
	list := st.secVacs[sec]
	if i < len(list) && list[i].site == local {
		return
	}
	list = append(list, vacCache{})
	copy(list[i+1:], list[i:])
	list[i] = vacCache{site: local, cx: c.X, cy: c.Y, cz: c.Z}
	st.secVacs[sec] = list
}

// vacRemove unregisters an owned vacancy that became occupied.
func (st *State) vacRemove(local int) {
	sec, i, _ := st.vacSlot(local)
	list := st.secVacs[sec]
	if i == len(list) || list[i].site != local {
		return
	}
	st.secVacs[sec] = append(list[:i], list[i+1:]...)
}

// numOwnedVacancies returns the number of owned vacancies.
func (st *State) numOwnedVacancies() int {
	n := 0
	for sec := range st.secVacs {
		n += len(st.secVacs[sec])
	}
	return n
}

// rebuildVacancyIndex reconstructs the vacancy index from the current
// occupancy — used after a checkpoint restore.
func (st *State) rebuildVacancyIndex() {
	for sec := range st.secVacs {
		st.secVacs[sec] = st.secVacs[sec][:0]
	}
	st.Box.EachOwned(func(_ lattice.Coord, local int) {
		if st.Occ[local] == Vacant {
			st.vacAdd(local)
		}
	})
}

// invalidateNear marks stale every cached vacancy whose rate footprint can
// see the changed cell c. A rate depends on occupancy within reach+1 cells
// of the vacancy directly (the phi pair shells around source and target)
// and within 2*reach+1 cells through the incrementally maintained Rho (the
// embedding terms read rho of bystanders up to reach+1 out, and each rho
// sums occupancy another reach out) — see energetics.dependencyReach.
// setOcc calls this once per actually changed local image, so periodic
// wrap-around adjacency is covered by the image copies.
//
//mdvet:hot
func (st *State) invalidateNear(c lattice.Coord) {
	r := int32(st.dependReach)
	for sec := range st.secVacs {
		list := st.secVacs[sec]
		for i := range list {
			vc := &list[i]
			if !vc.valid {
				continue
			}
			dx, dy, dz := vc.cx-c.X, vc.cy-c.Y, vc.cz-c.Z
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if dz < 0 {
				dz = -dz
			}
			if dx <= r && dy <= r && dz <= r {
				vc.valid = false
			}
		}
	}
}

// ratesOf brings the candidate rates of owned vacancy vc up to date,
// recomputing the entry when stale — or always, in full-rescan debug mode,
// which makes this exactly the seed's per-event enumeration.
//
//mdvet:hot
func (st *State) ratesOf(vc *vacCache) {
	if vc.valid && !st.fullRescan {
		return
	}
	v := vc.site
	basis := v & 1
	cv := lattice.Coord{X: vc.cx, Y: vc.cy, Z: vc.cz, B: int8(basis)}
	vc.n = len(st.shell1[basis])
	vc.mask = 0
	for k, d := range st.shell1[basis] {
		n := v + int(d)
		if st.Occ[n] == Vacant {
			vc.rates[k] = 0
			continue // vacancy-vacancy exchange is a no-op
		}
		off := st.Tab.PerBase[basis][k]
		cn := off.Apply(cv)
		dE := st.en.swapDeltaE(st, v, n, cv, cn)
		vc.rates[k] = hopRate(st.Cfg.Nu, st.emFor(st.Occ[n]), st.kBT, dE)
		vc.mask |= 1 << uint(k)
	}
	vc.valid = true
}

// sectorRate returns the total transition rate of sector sec, refreshing
// stale cache entries on the way. The flat summation order (ascending
// vacancy, then offset) is identical to the sectorEvents oracle's loop
// (equiv_test.go), so the float total is bit-identical to a full rescan.
//
//mdvet:hot
func (st *State) sectorRate(sec int) float64 {
	var total float64
	list := st.secVacs[sec]
	for i := range list {
		vc := &list[i]
		st.ratesOf(vc)
		for k := 0; k < vc.n; k++ {
			if vc.mask&(1<<uint(k)) != 0 {
				total += vc.rates[k]
			}
		}
	}
	return total
}

// pickEvent selects the event at cumulative rate u, walking the sector's
// candidates in the same deterministic order sectorRate summed them. When u
// lands past the total (float round-off), the last candidate wins —
// mirroring the seed's evs[len(evs)-1] fallback. Every cache entry is fresh
// here because sectorRate ran in the same loop iteration.
//
//mdvet:hot
func (st *State) pickEvent(sec int, u float64) (site, target int) {
	acc := 0.0
	site, target = -1, -1
	list := st.secVacs[sec]
	for i := range list {
		vc := &list[i]
		shell := st.shell1[vc.site&1]
		for k := 0; k < vc.n; k++ {
			if vc.mask&(1<<uint(k)) == 0 {
				continue
			}
			site, target = vc.site, vc.site+int(shell[k])
			acc += vc.rates[k]
			if u < acc {
				return
			}
		}
	}
	return
}
