package md

import (
	"fmt"
	"math"

	"mdkmc/internal/eam"
	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/rng"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// Rank is the per-process MD simulation state: one subdomain of the global
// box plus the machinery to advance it.
type Rank struct {
	Cfg   Config
	Comm  *mpi.Comm
	L     *lattice.Lattice
	Grid  *lattice.Grid
	Box   *lattice.Box
	Store *neighbor.Store
	Pot   *eam.Potential
	FF    *ForceField
	// Pool drives the two force passes over Cfg.Workers OS goroutines; its
	// fixed-chunk reduction makes every worker count bit-identical
	// (pool.go).
	Pool *ForcePool

	Ex        *exchange
	StepCount int
	LastStats OpStats // operation counts of the most recent force step
	LastPE    float64 // owned share of potential energy at the last step

	// coincidentErr records, sticky, the first force computation that
	// encountered distinct atoms at bitwise-identical positions (see
	// OpStats.Coincident). Such pairs are skipped — their mutual force is
	// undefined — so the trajectory past that point is suspect; drivers
	// should check CoincidenceError after stepping.
	coincidentErr error

	// Kernel, when set, is the Sunway CPE cost model the pool charges for
	// every chunk it executes (see cpekernel.go).
	Kernel *CPEKernel

	// Scratch lists of relink, reused across steps.
	converts []int
	moves    []runawayRef

	// file is Save's rank-file buffer, reused across snapshots. It grows at
	// the first Save, and MemoryBytes leaves it out: a run that never
	// checkpoints never fills it.
	file halo.Packer

	// tel holds the phase timers; nil timers (telemetry disabled) make every
	// span a no-op, so the step path is instrumented unconditionally.
	tel rankTelemetry
}

// rankTelemetry is one rank's MD phase-span handles (DESIGN.md §11).
type rankTelemetry struct {
	step    *telemetry.Timer // md/step — whole velocity-Verlet step
	density *telemetry.Timer // md/density — embedding-density pass
	force   *telemetry.Timer // md/force — force/energy pass
	relink  *telemetry.Timer // md/relink — re-anchoring + migration
}

// AttachTelemetry registers this rank's MD phase spans and comm counters in
// reg. Call once after NewRank; a nil registry leaves all spans as no-ops.
// Recording only reads the wall clock and bumps atomics — the trajectory
// stays bit-identical (telemetry's zero-perturbation contract, proven in
// couple's determinism test).
func (r *Rank) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.tel = rankTelemetry{
		step:    reg.Timer("md/step"),
		density: reg.Timer("md/density"),
		force:   reg.Timer("md/force"),
		relink:  reg.Timer("md/relink"),
	}
	r.Pool.AttachTelemetry(reg)
	r.Ex.attachTelemetry(reg)
}

// NewRank builds the rank-local state and computes initial forces. It is a
// collective call: every rank of cfg's grid must enter it.
func NewRank(cfg Config, comm *mpi.Comm) (*Rank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ranks() != comm.Size() {
		return nil, fmt.Errorf("md: grid %v needs %d ranks, world has %d",
			cfg.Grid, cfg.Ranks(), comm.Size())
	}
	l := lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A)
	grid, err := lattice.NewGridCuts(l, cfg.Grid[0], cfg.Grid[1], cfg.Grid[2], cfg.Cuts)
	if err != nil {
		return nil, err
	}
	pot := eam.Shared(cfg.Mode, cfg.TablePoints, cfg.elements()...)
	// The wide table must reach every possible run-away pairing.
	tab := l.NeighborOffsets(pot.Cutoff + WideMargin)
	box := grid.Box(comm.Rank(), tab.MaxCellReach())
	// A subdomain narrower than its ghost reach would alias its own halo.
	for d := 0; d < 3; d++ {
		if box.Hi[d]-box.Lo[d] < 1 {
			return nil, fmt.Errorf("md: empty subdomain in dim %d", d)
		}
	}
	store := neighbor.NewStore(box, tab, cfg.Species)
	ff, err := NewForceField(store, pot, cfg.Skin)
	if err != nil {
		return nil, err
	}
	r := &Rank{
		Cfg:   cfg,
		Comm:  comm,
		L:     l,
		Grid:  grid,
		Box:   box,
		Store: store,
		Pot:   pot,
		FF:    ff,
	}
	r.Pool = NewForcePool(r.FF, cfg.Workers)
	r.Ex = newExchange(comm, grid, box)
	if cfg.CuFraction > 0 {
		r.substituteCopper(cfg.CuFraction)
	}
	r.initVelocities()
	if cfg.PKA != nil {
		if err := r.applyPKA(*cfg.PKA); err != nil {
			return nil, err
		}
	}
	r.computeForces()
	return r, nil
}

// substituteCopper replaces the given fraction of atoms with Cu. The choice
// is a pure function of (seed, global site index), so every rank — and
// every rank's ghost copies — agrees without communication.
func (r *Rank) substituteCopper(fraction float64) {
	base := rng.New(r.Cfg.Seed).Derive(0xC0)
	threshold := uint64(fraction * float64(^uint64(0)))
	// All local sites, ghosts included, so ghost types start consistent.
	for local := 0; local < r.Box.NumLocalSites(); local++ {
		c := r.Box.GlobalCoord(local)
		gi := uint64(r.L.Index(r.L.Wrap(c)))
		if base.Derive(gi).Uint64() <= threshold {
			r.Store.Type[local] = units.Cu
		}
	}
}

// ApplyRecoil gives the atom resident at the (wrapped) site the given
// recoil energy — the building block of multi-cascade irradiation
// campaigns. It is collective only in the sense that every rank may call it
// with the same arguments; exactly the rank owning the site applies it and
// reports applied=true (false when the site is currently a vacancy, so the
// caller can account for skipped recoils). The energy must be positive and
// finite and the direction a finite non-zero vector: a zero direction has
// no normalization (the old silent fallback hid NaN velocities from typos),
// and a non-positive energy would put NaN into the speed. Forces must be
// refreshed by the next Step.
func (r *Rank) ApplyRecoil(site lattice.Coord, energy float64, dir vec.V) (applied bool, err error) {
	if energy <= 0 || math.IsInf(energy, 0) || math.IsNaN(energy) {
		return false, fmt.Errorf("md: recoil energy %v is not positive and finite", energy)
	}
	n2 := dir.Norm2()
	if n2 == 0 || math.IsInf(n2, 0) || math.IsNaN(n2) {
		return false, fmt.Errorf("md: recoil direction %v is not a finite non-zero vector", dir)
	}
	site = r.L.Wrap(site)
	if !r.Box.Owns(site) {
		return false, nil
	}
	local := r.Box.LocalIndex(site)
	if r.Store.IsVacancy(local) {
		return false, nil
	}
	dir = dir.Scale(1 / dir.Norm())
	speed := math.Sqrt(2 * energy / r.Store.Type[local].Mass())
	r.Store.Vel[local] = r.Store.Vel[local].Add(dir.Scale(speed))
	return true, nil
}

// initVelocities draws Maxwell-Boltzmann velocities. Each atom's stream is
// derived from (seed, global site index) so the initial state is identical
// for every process-grid shape — the foundation of the parallel-equals-
// serial tests.
func (r *Rank) initVelocities() {
	if r.Cfg.Temperature <= 0 {
		return
	}
	base := rng.New(r.Cfg.Seed)
	var sum vec.V
	var n float64
	r.Box.EachOwned(func(c lattice.Coord, local int) {
		src := base.Derive(uint64(r.L.Index(c)))
		sigma := units.ThermalSigma(r.Cfg.Temperature, r.Store.Type[local].Mass())
		v := vec.V{X: src.Norm(), Y: src.Norm(), Z: src.Norm()}.Scale(sigma)
		r.Store.Vel[local] = v
		sum = sum.Add(v)
		n++
	})
	// Remove the global center-of-mass drift.
	tot := r.Comm.Allreduce(mpi.Sum, sum.X, sum.Y, sum.Z, n)
	mean := vec.V{X: tot[0], Y: tot[1], Z: tot[2]}.Scale(1 / tot[3])
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		r.Store.Vel[local] = r.Store.Vel[local].Sub(mean)
	})
}

// DefaultPKADirection is the recoil direction used when a PKA config leaves
// Direction zero: slightly off the <100> channel so the cascade branches.
var DefaultPKADirection = [3]float64{1, 0.35, 0.2}

// applyPKA gives the atom nearest the box center the recoil energy of the
// primary knock-on atom — the cascade's starting condition. A zero
// Direction selects DefaultPKADirection (the documented config default);
// Config.Validate has already rejected non-finite or non-positive PKAs.
func (r *Rank) applyPKA(p PKA) error {
	center := lattice.Coord{
		X: int32(r.Cfg.Cells[0] / 2),
		Y: int32(r.Cfg.Cells[1] / 2),
		Z: int32(r.Cfg.Cells[2] / 2),
		B: 0,
	}
	d := p.Direction
	if d[0] == 0 && d[1] == 0 && d[2] == 0 {
		d = DefaultPKADirection
	}
	_, err := r.ApplyRecoil(center, p.Energy, vec.V{X: d[0], Y: d[1], Z: d[2]})
	return err
}

// AttachCPEKernel attaches the Sunway CPE cost model of the given variant:
// from the next force computation on, every chunk the pool executes is
// charged to the kernel's virtual clocks.
func (r *Rank) AttachCPEKernel(variant KernelVariant) *CPEKernel {
	r.Kernel = NewCPEKernel(r.FF, variant)
	return r.Kernel
}

// computeForces runs the ghost protocol and the two force passes on the
// worker pool, which charges the CPE cost model when one is attached.
func (r *Rank) computeForces() {
	r.Pool.cost = r.Kernel
	r.Ex.ExchangePositions(r.Store)
	sp := r.tel.density.Begin()
	st := r.Pool.Densities(r.Store)
	sp.End()
	r.Ex.ExchangeDensities(r.Store)
	sp = r.tel.force.Begin()
	fst, pe := r.Pool.Forces(r.Store)
	sp.End()
	r.LastPE = pe
	st.Add(fst)
	r.LastStats = st
	if st.Coincident > 0 && r.coincidentErr == nil {
		r.coincidentErr = fmt.Errorf(
			"md: step %d: %d coincident atom pair encounters (distinct atoms at identical positions); their interaction was skipped and the trajectory is suspect",
			r.StepCount, st.Coincident)
	}
}

// MemoryBytes returns the heap footprint of what the rank holds for its
// atoms — the lattice neighbor list, the force field's statics and pair
// stream, and the ghost-exchange plan with its buffers — the quantity a
// capacity claim (how many atoms fit a node) has to be made from. The
// potential's tables are input, not counted: one instance (eam.Shared)
// serves every rank of the process.
func (r *Rank) MemoryBytes() int {
	return r.Store.MemoryBytes() + r.FF.MemoryBytes() + r.Ex.plan.MemoryBytes()
}

// CoincidenceError returns the sticky error recorded the first time a force
// computation skipped coincident atom pairs, or nil if none occurred.
func (r *Rank) CoincidenceError() error { return r.coincidentErr }

// halfKick advances owned velocities by dt/2 under the current forces.
func (r *Rank) halfKick() {
	h := r.Cfg.Dt / 2
	s := r.Store
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			s.Vel[local] = s.Vel[local].MulAdd(h/s.Type[local].Mass(), s.F[local])
		}
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			a.Vel = a.Vel.MulAdd(h/a.Type.Mass(), a.F)
		})
	})
}

// drift advances owned positions by dt under the current velocities.
func (r *Rank) drift() {
	dt := r.Cfg.Dt
	s := r.Store
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			s.R[local] = s.R[local].MulAdd(dt, s.Vel[local])
		}
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			a.R = a.R.MulAdd(dt, a.Vel)
		})
	})
}

// placeLocal anchors atom a at the owned site `anchor`: refilling a vacancy
// when the atom has effectively returned to a lattice site, chaining it as
// a run-away otherwise.
func (r *Rank) placeLocal(a neighbor.Runaway, anchor lattice.Coord) {
	local := r.Box.LocalIndex(anchor)
	if r.Store.IsVacancy(local) &&
		vec.Dist(a.R, r.L.Position(anchor)) < RunawayThreshold {
		r.Store.FillSite(local, a)
		return
	}
	r.Store.AddRunaway(local, a)
}

// route places atom a at its (unwrapped) anchor: locally when this rank
// owns it — including the case of an atom that drifted across a periodic
// boundary back into this rank's own domain — or as a migrant to the
// owning neighbor rank.
func (r *Rank) route(a neighbor.Runaway, anchor lattice.Coord) {
	if r.Box.Owns(anchor) {
		r.placeLocal(a, anchor)
		return
	}
	w := r.L.Wrap(anchor)
	shift := r.L.Position(w).Sub(r.L.Position(anchor))
	a.R = a.R.Add(shift)
	if r.Grid.RankOfCell(w.X, w.Y, w.Z) == r.Comm.Rank() {
		// Periodic image of this rank's own domain.
		r.placeLocal(a, w)
		return
	}
	r.Ex.Migrant(w, &a)
}

// runawayRef names one run-away atom: its anchor site and pool index.
type runawayRef struct {
	site int
	ref  int32
}

// relink reassigns every owned atom to its current nearest lattice site:
// residents that strayed beyond the threshold become run-aways (leaving a
// vacancy), run-aways are re-anchored or refill vacancies, and atoms whose
// anchor moved off-rank migrate.
func (r *Rank) relink() {
	s := r.Store

	// Residents that left their site.
	converts := r.converts[:0]
	r.Box.EachOwned(func(c lattice.Coord, local int) {
		if s.IsVacancy(local) {
			return
		}
		home := r.L.Position(c)
		if s.R[local].Sub(home).Norm2() > RunawayThreshold*RunawayThreshold {
			converts = append(converts, local)
		}
	})
	for _, local := range converts {
		a := s.MakeVacancy(local)
		anchor := r.L.NearestSiteUnwrapped(a.R)
		r.route(a, anchor)
	}
	r.converts = converts

	// Run-aways whose anchor changed or that can refill a vacancy.
	moves := r.moves[:0]
	r.Box.EachOwned(func(c lattice.Coord, local int) {
		s.EachRunaway(local, func(ref int32, a *neighbor.Runaway) {
			anchor := r.L.NearestSiteUnwrapped(a.R)
			if anchor == c {
				// Same anchor; refill only when it is a vacancy and the atom
				// has settled onto it.
				if s.IsVacancy(local) && vec.Dist(a.R, r.L.Position(c)) < RunawayThreshold {
					moves = append(moves, runawayRef{local, ref})
				}
				return
			}
			moves = append(moves, runawayRef{local, ref})
		})
	})
	for _, m := range moves {
		a := s.RemoveRunaway(m.site, m.ref)
		anchor := r.L.NearestSiteUnwrapped(a.R)
		r.route(a, anchor)
	}
	r.moves = moves

	// Cross-rank migration; arrivals are placed as they are read.
	r.Ex.ExchangeMigrants(func(anchor lattice.Coord, a neighbor.Runaway) {
		if !r.Box.Owns(anchor) || anchor.B < 0 || anchor.B > 1 || int(a.Type) >= units.NumElements {
			what := "a non-owned anchor"
			switch {
			case int(a.Type) >= units.NumElements:
				what = fmt.Sprintf("unknown element code %d", a.Type)
			case r.Box.Owns(anchor):
				what = fmt.Sprintf("basis %d outside {0,1}", anchor.B)
			}
			//mdvet:ignore errpanic migration-protocol invariant in the hot step path; recovered as a RankPanic job error
			panic(fmt.Errorf("md: received migrant %d with %s (anchor %+v)", a.ID, what, anchor))
		}
		r.placeLocal(a, anchor)
	})
}

// Step advances the simulation by one velocity-Verlet step.
func (r *Rank) Step() {
	step := r.tel.step.Begin()
	r.halfKick()
	r.drift()
	sp := r.tel.relink.Begin()
	r.relink()
	sp.End()
	r.computeForces()
	r.halfKick()
	if th := r.Cfg.Thermostat; th != nil {
		r.applyThermostat(*th)
	}
	r.StepCount++
	step.End()
}

// applyThermostat rescales velocities toward the target temperature
// (Berendsen weak coupling).
func (r *Rank) applyThermostat(th Berendsen) {
	ke := KineticEnergy(r.Store)
	n := float64(CountOwnedAtoms(r.Store))
	tot := r.Comm.Allreduce(mpi.Sum, ke, n)
	t := units.KineticTemperature(tot[0], int(tot[1]))
	if t <= 0 {
		return
	}
	lambda := math.Sqrt(1 + float64(r.Cfg.Dt/th.Tau*(th.Target/t-1)))
	s := r.Store
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			s.Vel[local] = s.Vel[local].Scale(lambda)
		}
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			a.Vel = a.Vel.Scale(lambda)
		})
	})
}

// TotalEnergy returns the global kinetic and potential energies
// (collective).
func (r *Rank) TotalEnergy() (ke, pe float64) {
	tot := r.Comm.Allreduce(mpi.Sum, KineticEnergy(r.Store), r.LastPE)
	return tot[0], tot[1]
}

// Temperature returns the instantaneous global temperature (collective).
func (r *Rank) Temperature() float64 {
	tot := r.Comm.Allreduce(mpi.Sum, KineticEnergy(r.Store), float64(CountOwnedAtoms(r.Store)))
	return units.KineticTemperature(tot[0], int(tot[1]))
}

// GlobalAtomCount returns the global number of atoms (collective); it is
// conserved by construction and asserted in tests.
func (r *Rank) GlobalAtomCount() int {
	tot := r.Comm.Allreduce(mpi.Sum, float64(CountOwnedAtoms(r.Store)))
	return int(math.Round(tot[0]))
}

// GlobalVacancyCount returns the global number of vacancies (collective).
func (r *Rank) GlobalVacancyCount() int {
	tot := r.Comm.Allreduce(mpi.Sum, float64(r.Store.CountVacancies()))
	return int(math.Round(tot[0]))
}

// OwnedVacancySites returns the wrapped coordinates of owned vacancy sites.
func (r *Rank) OwnedVacancySites() []lattice.Coord {
	var out []lattice.Coord
	r.Box.EachOwned(func(c lattice.Coord, local int) {
		if r.Store.IsVacancy(local) {
			out = append(out, r.L.Wrap(c))
		}
	})
	return out
}
