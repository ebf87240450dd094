package kmc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mdkmc/internal/eam"
	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/rng"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// State is one rank's share of the KMC simulation: site occupancies over the
// subdomain plus halo, incrementally maintained electron densities, the
// owned-vacancy index, and the ghost-communication plans.
type State struct {
	Cfg  Config
	Comm *mpi.Comm
	L    *lattice.Lattice
	Grid *lattice.Grid
	Box  *lattice.Box
	Tab  *lattice.OffsetTable
	Pot  *eam.Potential

	Occ []uint8   // per local site
	Rho []float64 // incrementally maintained; valid within reach of owned

	Time   float64 // accumulated MC time (s)
	Cycles int
	Events int // cumulative events executed on this rank (checkpointed)

	en     energetics
	kBT    float64
	deltas [2][]int32
	shell1 [2][]int32     // first-shell (hop target) deltas per basis
	hops   [2][][]hopSite // per basis and first-shell hop: the bystander stencil
	reach  int            // interaction reach in cells

	// The vacancy index (events.go): per sector, the owned vacancies in
	// ascending site order, each entry carrying its cached candidate hop
	// rates; and the exact occupancy-dependency radius that drives
	// invalidation.
	secVacs     [8][]vacCache
	dependReach int // cells: occupancy changes within it stale a cached rate
	// fullRescan recomputes every rate at every selection. Nothing in
	// production sets it: the in-package equivalence tests and
	// BenchmarkKMCCycle do, after NewState, to get the oracle the cache is
	// bit-identical to.
	fullRescan bool

	// Ghost plan (internal/halo). Every protocol uses its peer set; only
	// the traditional protocol gives it classes — per sector a read halo
	// refreshed before the sector and a one-cell write band pushed back
	// after it — because the on-demand protocols route dirty sites by
	// interest instead.
	plan *halo.Plan
	// images[d][i] lists, ascending, the storage indices along axis d that
	// are periodic images of index i (itself included): more than one only
	// where the local extent exceeds the lattice period on that axis.
	images [3][][]int
	// The on-demand flush (ghost.go): canonical local sites changed since
	// the last flush (unsorted, may repeat), the channel their records
	// travel on, and the window of the one-sided protocol (nil otherwise).
	dirty   []int
	dirtyCh halo.Channel
	win     *mpi.Win

	rng *rng.Source

	// tel holds the KMC phase spans and protocol counters; nil handles
	// (telemetry disabled) make every record a no-op.
	tel kmcTelemetry
}

// kmcTelemetry is one rank's KMC span/counter handles (DESIGN.md §11). The
// band vs dirty byte counters are the measured form of the paper's
// traditional-vs-on-demand comm-volume contrast (Figures 12-13).
type kmcTelemetry struct {
	cycle  *telemetry.Timer // kmc/cycle — one synchronous sublattice pass
	sync   *telemetry.Timer // kmc/sync — the time-window Allreduce
	sector *telemetry.Timer // kmc/sector — in-sector KMC (selection + apply)
	get    *telemetry.Timer // kmc/ghost/get — traditional read-halo refresh
	put    *telemetry.Timer // kmc/ghost/put — traditional write-band push
	flush  *telemetry.Timer // kmc/ghost/flush — on-demand dirty-site flush

	events     *telemetry.Counter // kmc/events — executed hops
	bandBytes  *telemetry.Counter // kmc/ghost/band-bytes — traditional payloads
	dirtySites *telemetry.Counter // kmc/ghost/dirty-sites — flushed site records
}

// AttachTelemetry registers the KMC phase spans and protocol counters in
// reg (nil registry = no-op handles). Recording never touches the RNG
// streams or the communication schedule, so trajectories stay bit-identical.
func (st *State) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	st.tel = kmcTelemetry{
		cycle:      reg.Timer("kmc/cycle"),
		sync:       reg.Timer("kmc/sync"),
		sector:     reg.Timer("kmc/sector"),
		get:        reg.Timer("kmc/ghost/get"),
		put:        reg.Timer("kmc/ghost/put"),
		flush:      reg.Timer("kmc/ghost/flush"),
		events:     reg.Counter("kmc/events"),
		bandBytes:  reg.Counter("kmc/ghost/band-bytes"),
		dirtySites: reg.Counter("kmc/ghost/dirty-sites"),
	}
	// Inside kmc/ghost/flush: enqueueing the sends, blocked on a peer (its
	// sector kernel, not flush work), and replaying what arrived.
	st.dirtyCh.Pack = reg.Timer("kmc/ghost/flush/pack")
	st.dirtyCh.Wait = reg.Timer("kmc/ghost/flush/wait")
	st.dirtyCh.Unpack = reg.Timer("kmc/ghost/flush/unpack")
	st.dirtyCh.Bytes = reg.Counter("kmc/ghost/dirty-bytes") // on-demand payloads
}

// NewState builds the rank-local state collectively.
func NewState(cfg Config, comm *mpi.Comm) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ranks() != comm.Size() {
		return nil, fmt.Errorf("kmc: grid %v needs %d ranks, world has %d",
			cfg.Grid, cfg.Ranks(), comm.Size())
	}
	l := lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A)
	grid, err := lattice.NewGridCuts(l, cfg.Grid[0], cfg.Grid[1], cfg.Grid[2], cfg.Cuts)
	if err != nil {
		return nil, err
	}
	var pot *eam.Potential
	if cfg.alloy() {
		pot = eam.NewFeCu(eam.Compacted, eam.TablePoints)
	} else {
		pot = eam.NewFe(eam.Compacted, eam.TablePoints)
	}
	tab := l.NeighborOffsets(pot.Cutoff)
	reach := tab.MaxCellReach()
	// Ghost wide enough that ρ stays valid one cell beyond the owned
	// region's reach (ΔE of a boundary hop inspects sites reach+1 out, and
	// their ρ needs occupancy up to 2·reach+1 out).
	ghost := 2*reach + 1
	box := grid.Box(comm.Rank(), ghost)
	for d := 0; d < 3; d++ {
		if box.Hi[d]-box.Lo[d] < ghost {
			return nil, fmt.Errorf("kmc: subdomain dim %d (%d cells) thinner than ghost %d",
				d, box.Hi[d]-box.Lo[d], ghost)
		}
	}
	st := &State{
		Cfg:   cfg,
		Comm:  comm,
		L:     l,
		Grid:  grid,
		Box:   box,
		Tab:   tab,
		Pot:   pot,
		kBT:   units.Boltzmann * cfg.Temperature,
		reach: reach,
		rng:   rng.New(cfg.Seed),
	}
	st.en = energetics{
		pot:    pot,
		shells: newShellTables(pot, tab),
		memo:   make([]embedMemo, box.NumLocalSites()),
	}
	st.dependReach = st.en.dependencyReach(reach)
	st.buildDeltas()
	st.buildImages()
	var classes []halo.Class // the on-demand protocols need the peer set only
	if cfg.Protocol == Traditional {
		classes = bandClasses()
	}
	st.plan = halo.Build(grid, comm.Rank(), ghost, classes, classifyBand)
	st.dirtyCh = halo.Channel{Pkg: "kmc", Tag: tagKDirty}
	st.initOccupancy()
	st.initRho()
	if cfg.Protocol == OnDemandOneSided {
		st.win = mpi.NewWin(comm)
	} else {
		// Window creation is collective; every rank must make the same
		// choice, which Config guarantees.
		comm.Barrier()
	}
	return st, nil
}

func (st *State) buildDeltas() {
	ex, ey := st.Box.Ext(0), st.Box.Ext(1)
	var sorted [2][]hopSite // the shell of each basis in ascending flat delta; ks = offset index
	for b := int8(0); b <= 1; b++ {
		offs := st.Tab.PerBase[b]
		d := make([]int32, len(offs))
		sorted[b] = make([]hopSite, len(offs))
		for i, o := range offs {
			d[i] = int32(((int(o.DZ)*ey+int(o.DY))*ex+int(o.DX))*2 + int(o.DB) - int(b))
			sorted[b][i] = hopSite{d: d[i], ks: int16(i)}
		}
		slices.SortFunc(sorted[b], func(x, y hopSite) int { return cmp.Compare(x.d, y.d) })
		st.deltas[b] = d
		n := len(st.Tab.FirstShell(b))
		st.shell1[b] = d[:n]
	}
	for b := 0; b < 2; b++ {
		st.hops[b] = make([][]hopSite, len(st.shell1[b]))
		for h, dn := range st.shell1[b] {
			st.hops[b][h] = mergeHop(sorted[b], sorted[st.Tab.PerBase[b][h].DB], dn)
		}
	}
}

// mergeHop builds the bystander stencil of the hop from a site s to its
// neighbor n = s+dn: the union of the shell around s and the shell around n
// (both ascending in flat delta, the latter relative to n), without s and n
// themselves, ascending in flat delta from s.
func mergeHop(aroundS, aroundN []hopSite, dn int32) []hopSite {
	out := make([]hopSite, 0, len(aroundS)+len(aroundN))
	i, j := 0, 0
	for i < len(aroundS) || j < len(aroundN) {
		e := hopSite{ks: -1, kn: -1}
		switch {
		case j == len(aroundN) || i < len(aroundS) && aroundS[i].d < aroundN[j].d+dn:
			e.d, e.ks = aroundS[i].d, aroundS[i].ks
			i++
		case i == len(aroundS) || aroundN[j].d+dn < aroundS[i].d:
			e.d, e.kn = aroundN[j].d+dn, aroundN[j].ks
			j++
		default:
			e.d, e.ks, e.kn = aroundS[i].d, aroundS[i].ks, aroundN[j].ks
			i++
			j++
		}
		if e.d != 0 && e.d != dn {
			out = append(out, e)
		}
	}
	return out
}

// The halo classes of the traditional protocol: sector sec's read halo is
// class getBand+sec, its write band class putBand+sec.
const (
	getBand = 0
	putBand = 8
)

func bandClasses() []halo.Class {
	cs := make([]halo.Class, 16)
	for sec := 0; sec < 8; sec++ {
		cs[putBand+sec].Push = true
	}
	return cs
}

// classifyBand puts ghost cell c of the holder's box into the read halo of
// every sector (octant of the subdomain, split where sectorOf splits it)
// within the ghost width of it, and into the write band of every sector
// within one cell. The Chebyshev distance to an octant is the largest of the
// three per-axis distances to the half the octant takes on that axis.
func classifyBand(holder *lattice.Box, c lattice.Coord) uint32 {
	var dist [3][2]int // per axis: distance to the low half, to the high half
	for d, v := range [3]int{int(c.X), int(c.Y), int(c.Z)} {
		lo, hi := holder.Lo[d], holder.Hi[d]
		mid := lo + (hi-lo)/2
		dist[d] = [2]int{max(lo-v, v-mid+1, 0), max(mid-v, v-hi+1, 0)}
	}
	var mask uint32
	for sec := 0; sec < 8; sec++ {
		d := max(dist[0][sec&1], dist[1][sec>>1&1], dist[2][sec>>2&1])
		if d <= holder.Ghost {
			mask |= 1 << (getBand + sec)
		}
		if d <= 1 {
			mask |= 1 << (putBand + sec)
		}
	}
	return mask
}

// buildImages tabulates, per axis, which storage indices are periodic
// images of each other: a subdomain whose extent plus halo exceeds the
// lattice period on an axis holds its own images in its halo there. The
// local images of a cell are the product of its three per-axis lists.
func (st *State) buildImages() {
	for d, period := range [3]int{st.L.Nx, st.L.Ny, st.L.Nz} {
		ext := st.Box.Ext(d)
		st.images[d] = make([][]int, ext)
		for i := range st.images[d] {
			if i >= period {
				st.images[d][i] = st.images[d][i-period]
				continue
			}
			for j := i; j < ext; j += period {
				st.images[d][i] = append(st.images[d][i], j)
			}
		}
	}
}

// cellAxes splits a local site index into its per-axis storage indices.
func (st *State) cellAxes(local int) [3]int {
	ex, ey := st.Box.Ext(0), st.Box.Ext(1)
	cell := local >> 1
	return [3]int{cell % ex, cell / ex % ey, cell / (ex * ey)}
}

// baseAt returns the basis-0 local index of the cell at per-axis storage
// indices a.
func (st *State) baseAt(a [3]int) int {
	return ((a[2]*st.Box.Ext(1)+a[1])*st.Box.Ext(0) + a[0]) * 2
}

// eachImage calls fn with the basis-0 local index of every local image of
// the cell containing local (itself included), in ascending order.
func (st *State) eachImage(local int, fn func(base int)) {
	a := st.cellAxes(local)
	for _, z := range st.images[2][a[2]] {
		for _, y := range st.images[1][a[1]] {
			for _, x := range st.images[0][a[0]] {
				fn(st.baseAt([3]int{x, y, z}))
			}
		}
	}
}

// ownedImage returns the per-axis storage indices of the owned image of the
// cell at a, if it has one.
func (st *State) ownedImage(a [3]int) (owned [3]int, ok bool) {
	g := st.Box.Ghost
	for d := range a {
		owned[d] = -1
		for _, j := range st.images[d][a[d]] {
			if j >= g && j < st.Box.Ext(d)-g {
				owned[d] = j
			}
		}
		if owned[d] < 0 {
			return owned, false
		}
	}
	return owned, true
}

// localBase returns the basis-0 local index of a local image of the wrapped
// global cell (x,y,z) — the owned image if there is one, else the lowest —
// and whether the cell is visible here at all.
func (st *State) localBase(x, y, z int32) (int, bool) {
	w := [3]int{int(x), int(y), int(z)}
	var a [3]int
	for d, period := range [3]int{st.L.Nx, st.L.Ny, st.L.Nz} {
		a[d] = (w[d] - (st.Box.Lo[d] - st.Box.Ghost)) % period
		if a[d] < 0 {
			a[d] += period
		}
		if a[d] >= st.Box.Ext(d) {
			return 0, false
		}
	}
	if owned, ok := st.ownedImage(a); ok {
		a = owned
	}
	return st.baseAt(a), true
}

// initOccupancy fills the box with atoms and seeds the vacancies: from the
// explicit list (the MD coupling) or randomly at the configured
// concentration. Vacancy placement is derived from the seed alone, so every
// rank computes the same global set.
func (st *State) initOccupancy() {
	n := st.Box.NumLocalSites()
	st.Occ = make([]uint8, n)
	for i := range st.Occ {
		st.Occ[i] = Atom
	}
	// Copper solutes first (alloy path); vacancies may overwrite.
	cuSites := st.Cfg.CuSites
	if cuSites == nil && st.Cfg.CuConcentration > 0 {
		cuSites = st.randomSites(st.Cfg.CuConcentration, cuSeedSalt)
	}
	for _, g := range cuSites {
		st.placeSite(g, CuAtom)
	}
	vacancies := st.Cfg.Vacancies
	if vacancies == nil && st.Cfg.VacancyConcentration > 0 {
		vacancies = st.randomSites(st.Cfg.VacancyConcentration, vacancySeedSalt)
	}
	for _, g := range vacancies {
		st.placeSite(g, Vacant)
	}
}

// randomSites draws a deterministic global site set of the given
// concentration; every rank computes the same set from the seed alone.
func (st *State) randomSites(concentration float64, salt uint64) []int {
	total := st.L.NumSites()
	want := int(float64(total) * concentration)
	if want < 1 {
		want = 1
	}
	src := rng.New(st.Cfg.Seed).Derive(salt)
	picked := make(map[int]bool, want)
	for len(picked) < want {
		picked[src.Intn(total)] = true
	}
	out := make([]int, 0, want)
	for g := range picked {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// placeSite writes the occupancy of global site g into every local image
// (no-op when g is outside the local region) and maintains the owned
// vacancy index. Used only during initialization, before ρ is computed.
func (st *State) placeSite(g int, occ uint8) {
	c := st.L.Coord(g)
	base, ok := st.localBase(c.X, c.Y, c.Z)
	if !ok {
		return // not in my local region
	}
	st.eachImage(base, func(member int) {
		st.Occ[member+int(c.B)] = occ
	})
	if st.Box.Owns(st.Box.GlobalCoord(base)) {
		if occ == Vacant {
			st.vacAdd(base + int(c.B))
		} else {
			st.vacRemove(base + int(c.B))
		}
	}
}

// initRho computes the electron density of every local site from scratch.
// Values are exact wherever the full neighborhood is inside the local
// region; the outermost halo shell is approximate and never consulted.
func (st *State) initRho() {
	st.Rho = make([]float64, len(st.Occ))
	box := st.Box
	ex, ey, ez := box.Ext(0), box.Ext(1), box.Ext(2)
	for lz := 0; lz < ez; lz++ {
		for ly := 0; ly < ey; ly++ {
			for lx := 0; lx < ex; lx++ {
				// Skip the outermost shell: its neighborhoods leave the
				// local region.
				interior := lx >= st.reach && lx < ex-st.reach &&
					ly >= st.reach && ly < ey-st.reach &&
					lz >= st.reach && lz < ez-st.reach
				if !interior {
					continue
				}
				base := ((lz*ey+ly)*ex + lx) * 2
				for b := 0; b < 2; b++ {
					local := base + b
					var rho float64
					for k, d := range st.deltas[b] {
						j := local + int(d)
						rho += st.en.shells.fval(st.Occ[j], b, k)
					}
					st.Rho[local] = rho
				}
			}
		}
	}
}

// interiorOf reports whether the site's cell is at least margin cells away
// from every edge of the local storage region, i.e. whether flat index
// deltas of that reach are guaranteed not to wrap across rows.
func (st *State) interiorOf(local, margin int) bool {
	for d, i := range st.cellAxes(local) {
		if i < margin || i >= st.Box.Ext(d)-margin {
			return false
		}
	}
	return true
}

// setOcc writes occupancy to every local image of the site, maintains ρ
// incrementally, and invalidates the cached hop rates of every vacancy
// whose footprint can see the change. markDirty records the change for the
// on-demand flush.
func (st *State) setOcc(local int, occ uint8, markDirty bool) {
	if st.Occ[local] == occ {
		return
	}
	basis := local & 1
	sh := st.en.shells
	st.eachImage(local, func(base int) {
		img := base + basis
		old := st.Occ[img]
		if old == occ {
			return
		}
		st.Occ[img] = occ
		c := st.Box.GlobalCoord(img)
		if st.interiorOf(img, st.reach) {
			// Fast path: flat deltas cannot wrap.
			for k, d := range st.deltas[basis] {
				st.Rho[img+int(d)] += sh.fval(occ, basis, k) - sh.fval(old, basis, k)
			}
		} else {
			// Edge of the halo: walk by coordinates and bounds-check.
			for k, o := range st.Tab.PerBase[basis] {
				n := o.Apply(c)
				if st.Box.InLocal(n) {
					st.Rho[st.Box.LocalIndex(n)] += sh.fval(occ, basis, k) - sh.fval(old, basis, k)
				}
			}
		}
		if st.Box.Owns(c) {
			if occ == Vacant {
				st.vacAdd(img)
			} else {
				st.vacRemove(img)
			}
		}
		st.invalidateNear(c)
	})
	if markDirty {
		st.dirty = append(st.dirty, st.canonical(local))
	}
}

// canonical returns the preferred local representative (owned if possible)
// of the site's image group.
func (st *State) canonical(local int) int {
	if owned, ok := st.ownedImage(st.cellAxes(local)); ok {
		return st.baseAt(owned) + local&1
	}
	return local
}

// OwnedVacancies returns the owned vacancy local indices in sorted order.
func (st *State) OwnedVacancies() []int {
	out := make([]int, 0, st.numOwnedVacancies())
	for sec := range st.secVacs {
		for i := range st.secVacs[sec] {
			out = append(out, st.secVacs[sec][i].site)
		}
	}
	sort.Ints(out)
	return out
}

// GlobalVacancyCount returns the total vacancy count (collective).
func (st *State) GlobalVacancyCount() int {
	tot := st.Comm.Allreduce(mpi.Sum, float64(st.numOwnedVacancies()))
	return int(tot[0] + 0.5)
}

// VacancySites returns the wrapped coordinates of owned vacancies.
func (st *State) VacancySites() []lattice.Coord {
	var out []lattice.Coord
	for _, v := range st.OwnedVacancies() {
		out = append(out, st.L.Wrap(st.Box.GlobalCoord(v)))
	}
	return out
}

// sectorOf returns the sector index (0..7) of an owned cell coordinate: the
// octant of the subdomain it falls in.
func (st *State) sectorOf(c lattice.Coord) int {
	sec := 0
	mid0 := st.Box.Lo[0] + (st.Box.Hi[0]-st.Box.Lo[0])/2
	mid1 := st.Box.Lo[1] + (st.Box.Hi[1]-st.Box.Lo[1])/2
	mid2 := st.Box.Lo[2] + (st.Box.Hi[2]-st.Box.Lo[2])/2
	if int(c.X) >= mid0 {
		sec |= 1
	}
	if int(c.Y) >= mid1 {
		sec |= 2
	}
	if int(c.Z) >= mid2 {
		sec |= 4
	}
	return sec
}

// emFor returns the migration barrier for exchanging the vacancy with an
// atom of the given occupancy code.
func (st *State) emFor(occ uint8) float64 {
	if occ == CuAtom && st.Cfg.EmCu > 0 {
		return st.Cfg.EmCu
	}
	return st.Cfg.Em
}

// cuSeedSalt derives the copper-placement RNG stream.
const cuSeedSalt = 0xC0FFEE

// CuSites returns the wrapped coordinates of owned copper atoms.
func (st *State) CuSitesOwned() []lattice.Coord {
	var out []lattice.Coord
	st.Box.EachOwned(func(c lattice.Coord, local int) {
		if st.Occ[local] == CuAtom {
			out = append(out, st.L.Wrap(c))
		}
	})
	return out
}
