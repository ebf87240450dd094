package kmc

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

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
	// shifts[m][basis][row]: the density shift f_m(r_is) − f_m(r_in) a hop
	// stencil row applies to its bystander when an atom of species m moves.
	shifts [numSpecies][2][]float64

	// The vacancy index (events.go): per sector, the owned vacancies in
	// ascending site order, each entry carrying its cached candidate hop
	// rates; the per-hop read footprints that drive invalidation; and per
	// sector the last flat sum of its rates, kept (bit sec of sumKept) until
	// an entry of the sector changes.
	secVacs [8][]vacCache
	reads   readFootprint // an occupancy change in hop k's footprint stales rate k
	secSum  [8]float64
	sumKept uint8
	// The octants themselves, and the octants grown by the footprint's
	// reach: where a vacancy is listed, and whose entries a change can stale.
	sectors, nearSectors sectorSets
	// sumProbe, when set, sees every kept sum sectorRate returns. Nothing in
	// production sets it: the in-package coherence test does, to compare
	// each with a fresh re-sum.
	sumProbe func(sec int, sum float64)
	// fullRescan recomputes every rate at every selection and keeps no
	// sector sum. Nothing in
	// production sets it: the in-package equivalence tests and
	// BenchmarkKMCCycle do, after NewState, to get the oracle the cache is
	// bit-identical to.
	fullRescan bool

	// Ghost plan (internal/halo). Its classes are per sector: for the
	// traditional protocol a read halo refreshed before the sector and a
	// one-cell write band pushed back after it; for the on-demand protocol
	// the sparse round that flushes the sector's dirty sites, which routes
	// them by interest to the peers the sector can reach.
	plan *halo.Plan
	// images[d][i] lists, ascending, the storage indices along axis d that
	// are periodic images of index i (itself included): more than one only
	// where the local extent exceeds the lattice period on that axis.
	images [3][][]int
	// The on-demand flush (ghost.go): canonical local sites changed since
	// the last flush (unsorted, may repeat), and the channel their records
	// travel on.
	dirty   []int
	dirtyCh halo.Channel

	rng *rng.Source

	// file is Save's rank-file buffer, reused across snapshots. It grows at
	// the first Save, and MemoryBytes leaves it out: a run that never
	// checkpoints never fills it.
	file halo.Packer

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
	refreshes  *telemetry.Counter // kmc/rate-refreshes — recomputed rate-cache entries
	hopEvals   *telemetry.Counter // kmc/hop-evaluations — swapDeltaE evaluations
	visits     *telemetry.Counter // kmc/rate-visits — cache entries sectorRate and pickEvent read
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
		refreshes:  reg.Counter("kmc/rate-refreshes"),
		hopEvals:   reg.Counter("kmc/hop-evaluations"),
		visits:     reg.Counter("kmc/rate-visits"),
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

// NewState builds the rank-local state. It sends no message: the ghost plan
// is computed from the grid alone, and the potential is the process's
// shared instance.
func NewState(cfg Config, comm *mpi.Comm) (*State, error) {
	grid, tab, err := cfg.layout()
	if err != nil {
		return nil, err
	}
	if cfg.Ranks() != comm.Size() {
		return nil, fmt.Errorf("kmc: grid %v needs %d ranks, world has %d",
			cfg.Grid, cfg.Ranks(), comm.Size())
	}
	pot := eam.Shared(eam.Compacted, eam.TablePoints, cfg.elements()...)
	reach := tab.MaxCellReach()
	ghost := ghostWidth(tab)
	box := grid.Box(comm.Rank(), ghost)
	st := &State{
		Cfg:   cfg,
		Comm:  comm,
		L:     grid.L,
		Grid:  grid,
		Box:   box,
		Tab:   tab,
		Pot:   pot,
		kBT:   units.Boltzmann * cfg.Temperature,
		reach: reach,
		rng:   rng.New(cfg.Seed),
	}
	st.en = energetics{pot: pot, shells: newShellTables(pot, tab)}
	st.reads = newReadFootprint(tab)
	st.sectors, st.nearSectors = newSectorSets(box, 0), newSectorSets(box, int(st.reads.reach))
	st.buildDeltas()
	st.buildImages()
	classes := sectorRounds()
	if cfg.Protocol == Traditional {
		classes = bandClasses()
	}
	st.plan = halo.Build(grid, comm.Rank(), ghost, classes)
	st.dirtyCh = halo.Channel{Pkg: "kmc", Tag: tagKDirty}
	st.initOccupancy()
	st.initRho()
	return st, nil
}

// MemoryBytes returns the heap footprint of what the rank holds for its
// sites — occupancy and ρ per local site (owned and ghost); the embedding
// cache, shell tables (padded too), hop stencils and their shift tables, and
// the read-footprint masks; the vacancy
// lists and the dirty-site queue at their current capacities; and the
// ghost plan — the quantity a capacity claim (how many sites fit a node)
// has to be made from. The potential's tables are input, not counted, as
// in md.Rank.MemoryBytes: one instance (eam.Shared) serves every rank of
// the process.
func (st *State) MemoryBytes() int {
	n := len(st.Occ) + 8*len(st.Rho) + int(unsafe.Sizeof(st.en.cache)) +
		8*cap(st.dirty) + st.plan.MemoryBytes()
	sh := st.en.shells
	for b := range st.deltas {
		n += 4*len(st.deltas[b]) + len(st.reads.hops[b]) + 32*len(sh.fPad[b])
		for _, h := range st.hops[b] {
			n += int(unsafe.Sizeof(hopSite{})) * len(h)
		}
		for a := range sh.f {
			n += 8*len(sh.f[a][b]) + 32*len(sh.phiPad[a][b]) + 8*len(st.shifts[a][b])
			for c := range sh.phi[a] {
				n += 8 * len(sh.phi[a][c][b])
			}
		}
	}
	for sec := range st.secVacs {
		n += int(unsafe.Sizeof(vacCache{})) * cap(st.secVacs[sec])
	}
	for d := range st.sectors {
		n += len(st.sectors[d]) + len(st.nearSectors[d])
	}
	return n
}

func (st *State) buildDeltas() {
	ex, ey := st.Box.Ext(0), st.Box.Ext(1)
	var sorted [2][]stencilSite // the shell of each basis in ascending flat delta; ks = offset index
	for b := int8(0); b <= 1; b++ {
		offs := st.Tab.PerBase[b]
		d := make([]int32, len(offs))
		sorted[b] = make([]stencilSite, len(offs))
		for i, o := range offs {
			d[i] = int32(((int(o.DZ)*ey+int(o.DY))*ex+int(o.DX))*2 + int(o.DB) - int(b))
			sorted[b][i] = stencilSite{d: d[i], ks: int16(i)}
		}
		slices.SortFunc(sorted[b], func(x, y stencilSite) int { return cmp.Compare(x.d, y.d) })
		st.deltas[b] = d
		n := len(st.Tab.FirstShell(b))
		st.shell1[b] = d[:n]
	}
	f := &st.en.shells.f
	for b := 0; b < 2; b++ {
		// The basis's shift table: one row per distinct vector of the
		// per-species shifts, each computed as the kernel once did per call.
		rows := map[[numSpecies]uint64]int32{}
		st.hops[b] = make([][]hopSite, len(st.shell1[b]))
		for h, dn := range st.shell1[b] {
			bn := st.Tab.PerBase[b][h].DB
			merged := mergeHop(sorted[b], sorted[bn], dn)
			st.hops[b][h] = make([]hopSite, 0, len(merged))
			for _, e := range merged {
				var shift [numSpecies]float64
				var key [numSpecies]uint64
				for m := range shift {
					if f[m][b] == nil {
						continue
					}
					delta := 0.0
					if e.ks >= 0 {
						delta += f[m][b][e.ks]
					}
					if e.kn >= 0 {
						delta -= f[m][bn][e.kn]
					}
					shift[m], key[m] = delta, math.Float64bits(delta)
				}
				if shift == ([numSpecies]float64{}) {
					continue // no species shifts its density: no embedding term
				}
				row, ok := rows[key]
				if !ok {
					row = int32(len(rows))
					rows[key] = row
					for m, v := range shift {
						if f[m][b] != nil {
							st.shifts[m][b] = append(st.shifts[m][b], v)
						}
					}
				}
				st.hops[b][h] = append(st.hops[b][h], hopSite{d: e.d, shift: row})
			}
		}
	}
}

// stencilSite is a bystander while the hop stencils are built: its flat
// delta from s, and its offset indices in the shells around s and around n,
// -1 where it lies outside that shell.
type stencilSite struct {
	d      int32
	ks, kn int16
}

// mergeHop returns the bystanders of the hop from a site s to its neighbor
// n = s+dn: the union of the shell around s and the shell around n (both
// ascending in flat delta, the latter relative to n), without s and n
// themselves, ascending in flat delta from s.
func mergeHop(aroundS, aroundN []stencilSite, dn int32) []stencilSite {
	out := make([]stencilSite, 0, len(aroundS)+len(aroundN))
	i, j := 0, 0
	for i < len(aroundS) || j < len(aroundN) {
		e := stencilSite{ks: -1, kn: -1}
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

// octant returns the cell range [lo, hi) of sector sec of box's owned
// region grown by k cells on every side. Bit d of sec picks the high half of
// axis d; the halves split at Lo + (Hi−Lo)/2. It is the one place the
// subdomain is split into sectors: the sector of an owned cell, the sectors
// within reach of a change, and the ghost classes of both protocols all
// derive from it.
func octant(box *lattice.Box, sec, k int) (lo, hi [3]int) {
	for d := range lo {
		mid := box.Lo[d] + (box.Hi[d]-box.Lo[d])/2
		if sec>>d&1 == 0 {
			lo[d], hi[d] = box.Lo[d]-k, mid+k
		} else {
			lo[d], hi[d] = mid-k, box.Hi[d]+k
		}
	}
	return lo, hi
}

// sectorSets holds, per axis and storage index, the sectors (bit sec) whose
// octant grown by some k cells holds that coordinate on that axis. A cell
// lies in the grown octants that its three axes' sets all name.
type sectorSets [3][]uint8

func newSectorSets(box *lattice.Box, k int) (s sectorSets) {
	for d := range s {
		s[d] = make([]uint8, box.Ext(d))
	}
	for sec := 0; sec < 8; sec++ {
		lo, hi := octant(box, sec, k)
		for d := range s {
			for i := range s[d] {
				if v := box.Lo[d] - box.Ghost + i; v >= lo[d] && v < hi[d] {
					s[d][i] |= 1 << sec
				}
			}
		}
	}
	return s
}

// of returns the sectors whose grown octant holds cell c of box's storage
// range.
func (s *sectorSets) of(box *lattice.Box, c lattice.Coord) uint8 {
	g := box.Ghost
	return s[0][int(c.X)-box.Lo[0]+g] & s[1][int(c.Y)-box.Lo[1]+g] & s[2][int(c.Z)-box.Lo[2]+g]
}

// The halo classes of the traditional protocol: sector sec's read halo,
// class getBand+sec, is its octant grown by the ghost width, and its write
// band, class putBand+sec, the octant grown by one cell.
const (
	getBand = 0
	putBand = 8
)

func bandClasses() []halo.Class {
	cs := make([]halo.Class, 16)
	for sec := 0; sec < 8; sec++ {
		cs[getBand+sec].Cells = func(h *lattice.Box) (lo, hi [3]int) { return octant(h, sec, h.Ghost) }
		cs[putBand+sec] = halo.Class{Push: true, Cells: func(h *lattice.Box) (lo, hi [3]int) { return octant(h, sec, 1) }}
	}
	return cs
}

// sectorRounds are the classes of the on-demand protocol: round sec flushes
// what an event of sector sec can change, its octant grown by the one-cell
// write band.
func sectorRounds() []halo.Class {
	cs := make([]halo.Class, 8)
	for sec := range cs {
		cs[sec].Region = func(owner *lattice.Box) (lo, hi [3]int) { return octant(owner, sec, 1) }
	}
	return cs
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
// region; the outermost halo shell is left zero and never consulted. At the
// dilute concentrations KMC runs at almost every site sees an all-Fe shell,
// so an interior site takes its basis's perfect-crystal sum — the same
// table values added in the same order as a site's own sum adds them, hence
// the same bits — unless it lies within the shell of a non-Fe site (a
// vacancy or Cu atom, halo images included). Only the cells holding such a
// site are summed over their shells, each once; where the non-Fe sites'
// shells would outnumber the sites (a concentrated alloy), every interior
// cell is.
func (st *State) initRho() {
	// fk[b][k][occ] is fval(occ, b, k), zero for a vacancy: one load per
	// shell site below, indexed by occ&3 so that no bounds check is needed.
	fk := &st.en.shells.fPad
	var bulk [2]float64
	for b := range fk {
		for k := range fk[b] {
			bulk[b] += fk[b][k][Atom]
		}
	}
	// near[c] marks cell c within the shell of a non-Fe site. The shell
	// relation is symmetric: the sites whose shell holds j are those of j's
	// own shell. Flat deltas from a site within reach of the storage edge
	// wrap across a row, plane or the array's end; a wrapped one lands in
	// the outer shell or outside the array, so its mark is never read.
	// Past budget non-Fe sites the marks would outnumber the sites: near
	// is dropped and every interior cell summed.
	near := make([]bool, len(st.Occ)/2)
	budget := len(st.Occ) / len(st.deltas[0])
	for j, occ := range st.Occ {
		if occ == Atom {
			continue
		}
		if budget--; budget < 0 {
			near = nil
			break
		}
		for _, d := range st.deltas[j&1] {
			if i := j + int(d); uint(i) < uint(len(st.Occ)) {
				near[i>>1] = true
			}
		}
	}
	// A cell's two sites are summed together: two independent chains of
	// additions, each in the order bulk was summed in. Both bases of the
	// BCC lattice see shells of one size.
	st.Rho = make([]float64, len(st.Occ))
	ex, ey, ez := st.Box.Ext(0), st.Box.Ext(1), st.Box.Ext(2)
	r := st.reach
	d0, d1 := st.deltas[0], st.deltas[1][:len(st.deltas[0])]
	f0, f1 := fk[0][:len(d0)], fk[1][:len(d0)]
	for lz := r; lz < ez-r; lz++ {
		for ly := r; ly < ey-r; ly++ {
			row := (lz*ey+ly)*ex + r
			for cell := row; cell < row+ex-2*r; cell++ {
				c := 2 * cell
				if near != nil && !near[cell] {
					st.Rho[c], st.Rho[c+1] = bulk[0], bulk[1]
					continue
				}
				var rho0, rho1 float64
				for k, d := range d0 {
					rho0 += f0[k][st.Occ[c+int(d)]&3]
					rho1 += f1[k][st.Occ[c+1+int(d1[k])]&3]
				}
				st.Rho[c], st.Rho[c+1] = rho0, rho1
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
	return bits.TrailingZeros8(st.sectors.of(st.Box, c))
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

// CuSitesOwned returns the wrapped coordinates of owned copper atoms.
func (st *State) CuSitesOwned() []lattice.Coord {
	var out []lattice.Coord
	st.Box.EachOwned(func(c lattice.Coord, local int) {
		if st.Occ[local] == CuAtom {
			out = append(out, st.L.Wrap(c))
		}
	})
	return out
}
