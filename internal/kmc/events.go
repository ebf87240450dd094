package kmc

import (
	"sort"

	"mdkmc/internal/lattice"
)

// Incremental event-rate bookkeeping. The seed implementation re-enumerated
// every candidate hop of a sector (each a swapDeltaE evaluation over the
// full Rho/phi shells) on every executed event, making a cycle
// O(events x vacancies x 8). This file caches, per owned vacancy, its <=8
// candidate hop rates and stales a hop only when an occupancy change lands
// in the sites that hop's rate reads, and it keeps each sector's last flat
// sum until an entry of the sector changes. Steady-state selection thus
// costs O(active vacancies) float additions per event in the sector that
// changed, and swapDeltaE runs only for the hops the change can reach —
// whether the change came from an executed hop, a traditional ghost
// get/put, or an on-demand dirty record.
//
// Determinism contract: rates are cached bit-exactly (a cached value always
// equals what a fresh swapDeltaE at the current state would produce, because
// invalidation is conservative over each hop's full footprint), and both the
// sum and the selection walk run in the seed's enumeration order (ascending
// owned vacancy index, then first-shell offset index). A kept sum is the
// flat sum of rates none of which changed since, so it has the bits a
// re-sum would have. Trajectories are therefore bit-identical to the
// full-rescan mode across all protocols.

// vacCache is one owned vacancy: its site, and its cached candidate hop
// rates. The per-sector lists of these entries (State.secVacs, ascending by
// site) are the only vacancy index there is — membership, selection order
// and the rate cache in one structure.
type vacCache struct {
	site       int        // local index
	cx, cy, cz int32      // unwrapped owned cell coordinate (Box.GlobalCoord)
	n          uint8      // number of first-shell candidates (len(shell1))
	mask       uint8      // bit k set when target k holds an atom (a real event)
	stale      uint8      // bit k set when rates[k] may no longer be current
	rates      [8]float64 // rate of candidate k; +0 where mask bit clear
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
	list[i] = vacCache{site: local, cx: c.X, cy: c.Y, cz: c.Z, stale: allHops}
	st.secVacs[sec] = list
	st.sumKept &^= 1 << sec
}

// vacRemove unregisters an owned vacancy that became occupied.
func (st *State) vacRemove(local int) {
	sec, i, _ := st.vacSlot(local)
	list := st.secVacs[sec]
	if i == len(list) || list[i].site != local {
		return
	}
	st.secVacs[sec] = append(list[:i], list[i+1:]...)
	st.sumKept &^= 1 << sec
}

// allHops is the stale mask of an entry none of whose rates is current.
const allHops = 0xFF

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
	st.sumKept = 0
	st.Box.EachOwned(func(_ lattice.Coord, local int) {
		if st.Occ[local] == Vacant {
			st.vacAdd(local)
		}
	})
}

// readFootprint is, per hop, the set of sites the hop's cached rate reads,
// as displacements from the vacancy in half-cells: per axis 2·Δcell +
// Δbasis, in which BCC is a simple lattice and both bases see one shell. A
// hop to a first-shell target n reads the occupancy of n and of the shells
// around the vacancy and around n (pair terms, bystanders) and the ρ of
// those bystanders and of n, and each ρ sums the occupancy of one more
// shell: hop k's footprint is {0, n_k} ⊕ (shell ∪ 0) ⊕ (shell ∪ 0). The
// target's half-cell displacement depends on the vacancy's basis (2·D + DB
// − b for a FirstShell offset), so the masks are per basis. For Fe the
// union over the 8 hops is 169 sites, against the 686 of the Chebyshev cube
// of ghost-width cells that bounds it (TestReadFootprintIsExact).
type readFootprint struct {
	half  int32      // largest |displacement| on an axis the grid holds
	reach int32      // how many cells from the vacancy's cell a footprint site can lie
	hops  [2][]uint8 // per vacancy basis, (2·half+1)³ masks, x fastest: bit k = in hop k's footprint
}

// newReadFootprint builds the per-hop masks from the offset table: the
// two-shell sum (shell ∪ 0) ⊕ (shell ∪ 0) as a list, each point once, then
// that list placed at 0 and at each hop target n_k.
func newReadFootprint(tab *lattice.OffsetTable) readFootprint {
	var f readFootprint
	halfCells := func(o lattice.Offset, b int8) [3]int32 {
		db := int32(o.DB - b)
		p := [3]int32{2*o.DX + db, 2*o.DY + db, 2*o.DZ + db}
		f.half = max(f.half, p[0], -p[0], p[1], -p[1], p[2], -p[2])
		return p
	}
	var targets [2][][3]int32
	for b := range targets {
		for _, o := range tab.FirstShell(int8(b)) {
			targets[b] = append(targets[b], halfCells(o, int8(b)))
		}
	}
	shell := [][3]int32{{}} // the site itself
	first := f.half
	for _, o := range tab.PerBase[0] {
		shell = append(shell, halfCells(o, 0))
	}
	f.half = first + 2*f.half // a target, then two shells
	w := 2*f.half + 1
	seen := make([]bool, w*w*w)
	two := make([][3]int32, 0, len(shell)*len(shell))
	for _, a := range shell {
		for _, b := range shell {
			p := [3]int32{a[0] + b[0], a[1] + b[1], a[2] + b[2]}
			if i := f.index(p); !seen[i] {
				seen[i] = true
				two = append(two, p)
			}
		}
	}
	for b := range f.hops {
		masks := make([]uint8, w*w*w)
		for k, n := range targets[b] {
			for _, p := range two {
				masks[f.index(p)] |= 1 << k
				masks[f.index([3]int32{p[0] + n[0], p[1] + n[1], p[2] + n[2]})] |= 1 << k
			}
		}
		f.hops[b] = masks
		// A displacement x from a basis-b vacancy is a cell delta of x/2
		// when even, and of (x − (1−2b))/2 when odd (the other basis).
		for i, m := range masks {
			if m == 0 {
				continue
			}
			x := int32(i) % w
			for _, v := range [3]int32{x, int32(i) / w % w, int32(i) / (w * w)} {
				v -= f.half
				if v&1 != 0 {
					v -= 1 - 2*int32(b)
				}
				f.reach = max(f.reach, v/2, -v/2)
			}
		}
	}
	return f
}

// index returns the grid slot of an in-range displacement.
func (f *readFootprint) index(p [3]int32) int32 {
	w := 2*f.half + 1
	return ((p[2]+f.half)*w+p[1]+f.half)*w + p[0] + f.half
}

// at returns the hops of a basis-b vacancy whose rates a change at
// half-cell displacement (x, y, z) from it can alter.
func (f *readFootprint) at(b int, x, y, z int32) uint8 {
	h := f.half
	if x < -h || x > h || y < -h || y > h || z < -h || z > h {
		return 0
	}
	return f.hops[b][f.index([3]int32{x, y, z})]
}

// invalidateNear stales the cached hop rates whose read footprint holds
// the changed site c, and drops the kept sum of every sector where a rate
// went stale. setOcc calls this once per actually changed local image, so
// periodic wrap-around adjacency is covered by the image copies. Only
// vacancies within the footprint's reach of c can hold it: a sector whose
// octant lies farther is not scanned, and in the others, whose lists
// ascend by site and so by z plane, only the run of entries within reach
// on z is.
func (st *State) invalidateNear(c lattice.Coord) {
	f := &st.reads
	near := st.nearSectors.of(st.Box, c)
	plane := 2 * st.Box.Ext(0) * st.Box.Ext(1)
	lz := int(c.Z) - (st.Box.Lo[2] - st.Box.Ghost)
	first, end := (lz-int(f.reach))*plane, (lz+int(f.reach)+1)*plane
	for sec := range st.secVacs {
		if near>>sec&1 == 0 {
			continue
		}
		list := st.secVacs[sec]
		i := sort.Search(len(list), func(i int) bool { return list[i].site >= first })
		var fresh uint8 // hops that go stale here and were current
		for ; i < len(list) && list[i].site < end; i++ {
			vc := &list[i]
			b := vc.site & 1
			db := int32(c.B) - int32(b)
			m := f.at(b, 2*(c.X-vc.cx)+db, 2*(c.Y-vc.cy)+db, 2*(c.Z-vc.cz)+db)
			fresh |= m &^ vc.stale
			vc.stale |= m
		}
		if fresh != 0 {
			st.sumKept &^= 1 << sec
		}
	}
}

// ratesOf brings the candidate rates of owned vacancy vc up to date,
// recomputing its stale hops — or every hop, in full-rescan debug mode,
// which makes this exactly the seed's per-event enumeration.
func (st *State) ratesOf(vc *vacCache) {
	stale := vc.stale
	if st.fullRescan {
		stale = allHops
	}
	if stale == 0 {
		return
	}
	st.tel.refreshes.Add(1)
	v := vc.site
	basis := v & 1
	cv := lattice.Coord{X: vc.cx, Y: vc.cy, Z: vc.cz, B: int8(basis)}
	vc.n = uint8(len(st.shell1[basis]))
	evals := 0
	for k, d := range st.shell1[basis] {
		bit := uint8(1) << k
		if stale&bit == 0 {
			continue
		}
		n := v + int(d)
		if st.Occ[n] == Vacant {
			vc.rates[k] = 0
			vc.mask &^= bit
			continue // vacancy-vacancy exchange is a no-op
		}
		cn := st.Tab.PerBase[basis][k].Apply(cv)
		dE := st.en.swapDeltaE(st, v, n, cv, cn)
		vc.rates[k] = hopRate(st.Cfg.Nu, st.emFor(st.Occ[n]), st.kBT, dE)
		vc.mask |= bit
		evals++
	}
	vc.stale = 0
	st.tel.hopEvals.Add(int64(evals))
}

// sectorRate returns the total transition rate of sector sec. While no
// entry of the sector changed since the last sum it returns that sum;
// otherwise it refreshes the stale entries and sums again. The flat
// summation order (ascending vacancy, then offset) is identical to the
// sectorEvents oracle's loop (equiv_test.go), and a rate that is no event
// is +0, which leaves the sum's bits alone, so the total is bit-identical
// to a full rescan.
func (st *State) sectorRate(sec int) float64 {
	if st.sumKept>>sec&1 != 0 && !st.fullRescan {
		if st.sumProbe != nil {
			st.sumProbe(sec, st.secSum[sec])
		}
		return st.secSum[sec]
	}
	var total float64
	list := st.secVacs[sec]
	for i := range list {
		vc := &list[i]
		st.ratesOf(vc)
		for _, r := range vc.rates[:vc.n] {
			total += r
		}
	}
	st.tel.visits.Add(int64(len(list)))
	st.secSum[sec] = total
	st.sumKept |= 1 << sec
	return total
}

// pickEvent selects the event at cumulative rate u, walking the sector's
// candidates in the same deterministic order sectorRate summed them. When u
// lands past the total (float round-off), the last candidate wins —
// mirroring the seed's evs[len(evs)-1] fallback. Every cache entry is fresh
// here because sectorRate ran in the same loop iteration.
func (st *State) pickEvent(sec int, u float64) (site, target int) {
	acc := 0.0
	site, target = -1, -1
	list := st.secVacs[sec]
	for i := range list {
		vc := &list[i]
		shell := st.shell1[vc.site&1]
		for k := 0; k < int(vc.n); k++ {
			if vc.mask&(1<<uint(k)) == 0 {
				continue
			}
			site, target = vc.site, vc.site+int(shell[k])
			acc += vc.rates[k]
			if u < acc {
				st.tel.visits.Add(int64(i + 1))
				return
			}
		}
	}
	st.tel.visits.Add(int64(len(list)))
	return
}
