package couple

// Campaign mode: the high-dose damage-accumulation driver (paper §1 — "the
// environment of irradiation": cascades arrive continuously and the defect
// population built by earlier cascades changes how later ones anneal).
// Instead of Run's single cascade → single KMC stage, RunCampaign iterates
//
//	inject N recoils → MD cascade+anneal → harvest new vacancies → KMC/OKMC
//
// with the recoil energies drawn from a PKA spectrum and the number of
// recoils per iteration chosen so each iteration advances the dose by a
// fixed NRT-dpa increment (the ezcascades protocol). The MD crystal persists
// across iterations, so cascade i+1 strikes the damaged lattice; the
// coarse-scale defect population persists too, growing by each iteration's
// harvest. The whole campaign is restartable end-to-end: manifests (schema
// v3) record the campaign iteration, the consumed dose, and the
// spectrum-RNG cursor, and a resumed run replays into a byte-identical
// trajectory, on the same topology or re-sharded onto a different one.

import (
	"fmt"
	"math"
	"sort"

	"mdkmc/internal/cluster"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/okmc"
	"mdkmc/internal/rng"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// RNG stream salts of the campaign driver. The spectrum stream (0x5BEC,
// spectrum.go) is the only cursor-tracked one; placement and anneal streams
// are re-derived per iteration and need no cursor.
const (
	saltPlacement = 0xCA5CADE // per-iteration recoil sites and directions
	saltAnneal    = 0xD05E    // per-iteration KMC seed / OKMC stream
)

// maxPlacementAttempts bounds the non-overlap rejection loop per recoil.
const maxPlacementAttempts = 1000

// CampaignSpec configures a damage-accumulation campaign. The zero value
// (Iters == 0) disables campaign mode.
type CampaignSpec struct {
	// Iters is the number of inject→MD→anneal iterations; > 0 enables the
	// campaign driver.
	Iters int
	// DoseIncrement is the NRT dose (dpa) each iteration must reach: recoil
	// energies are drawn from the spectrum until their summed NRT
	// displacement count covers DoseIncrement·NumAtoms (at least one recoil,
	// at most MaxRecoils).
	DoseIncrement float64
	// Energy is the fixed recoil energy (eV) used when Spectrum is nil.
	Energy float64
	// Spectrum, when non-nil, is the PKA recoil-energy distribution.
	Spectrum *Spectrum
	// Ed is the displacement threshold energy (eV) of the NRT model;
	// defaults to units.DisplacementThresholdFe.
	Ed float64
	// MinSeparation is the minimum min-image distance (Å) between the recoil
	// sites of one iteration, so simultaneous cascades do not overlap;
	// defaults to 2.5 lattice constants.
	MinSeparation float64
	// MaxRecoils caps the recoils of one iteration; defaults to 64.
	MaxRecoils int
	// OKMC selects the object-KMC anneal stage (cluster objects, replicated
	// deterministically on every rank) instead of the default atomistic KMC.
	OKMC bool
	// OKMCEvents is the OKMC event budget per iteration; defaults to 200.
	OKMCEvents int
}

// normalize fills the spec defaults in place; a is the lattice constant.
func (s *CampaignSpec) normalize(a float64) {
	if s.Ed <= 0 {
		s.Ed = units.DisplacementThresholdFe
	}
	if s.MinSeparation <= 0 {
		s.MinSeparation = 2.5 * a
	}
	if s.MaxRecoils <= 0 {
		s.MaxRecoils = 64
	}
	if s.OKMCEvents <= 0 {
		s.OKMCEvents = 200
	}
}

// validate reports spec errors (after normalize).
func (s *CampaignSpec) validate() error {
	if s.Iters <= 0 {
		return fmt.Errorf("couple: campaign iterations %d, want > 0", s.Iters)
	}
	if !(s.DoseIncrement > 0) || math.IsInf(s.DoseIncrement, 0) {
		return fmt.Errorf("couple: campaign dose increment %v is not positive and finite", s.DoseIncrement)
	}
	if s.Spectrum == nil {
		if !(s.Energy > 0) || math.IsInf(s.Energy, 0) {
			return fmt.Errorf("couple: campaign recoil energy %v is not positive and finite (and no spectrum given)", s.Energy)
		}
	}
	return nil
}

// hashString digests the trajectory-determining spec fields for Config.Hash.
func (s *CampaignSpec) hashString() string {
	src := fmt.Sprintf("fixed:%v", s.Energy)
	if s.Spectrum != nil {
		src = "spectrum:" + s.Spectrum.Digest()
	}
	return fmt.Sprintf("iters:%d,dose:%v,%s,ed:%v,sep:%v,max:%d,okmc:%v,okev:%d",
		s.Iters, s.DoseIncrement, src, s.Ed, s.MinSeparation, s.MaxRecoils, s.OKMC, s.OKMCEvents)
}

// NRTDisplacements is the NRT (Norgett-Robinson-Torrens) displacement count
// ν(E) of a recoil with damage energy E (eV) at displacement threshold ed:
// 0 below ed, 1 in the single-displacement window, 0.8·E/(2·ed) above it.
func NRTDisplacements(e, ed float64) float64 {
	switch {
	case e < ed:
		return 0
	case e < 2*ed/0.8:
		return 1
	default:
		return 0.8 * e / (2 * ed)
	}
}

// PendingInjection records the recoils already injected into the MD crystal
// of a not-yet-completed campaign iteration, so a mid-iteration restart can
// finish the iteration's ledger row without re-applying (or re-deriving) the
// injection — the rank files already contain the recoil kinetic energy.
type PendingInjection struct {
	Recoils  int     // recoils applied
	Skipped  int     // recoils whose target site was already vacant
	EnergyEV float64 // summed applied recoil energy (eV)
	DoseInc  float64 // NRT dose (dpa) the applied recoils contributed
}

// IterationSummary is one row of the campaign's dose ledger.
type IterationSummary struct {
	Iter         int     // 0-based iteration index
	Recoils      int     // recoils applied this iteration
	Skipped      int     // recoils skipped (vacant target site)
	EnergyEV     float64 // summed applied recoil energy (eV)
	DoseInc      float64 // dose advanced this iteration (dpa)
	Dose         float64 // cumulative dose after this iteration (dpa)
	NewVacancies int     // MD vacancies first seen this iteration
	// Merged counts fresh vacancies landing on a site the evolved
	// population already occupies — the two merge (a site is either vacant
	// or not), so Population = Σ NewVacancies − Σ Merged exactly. Always 0
	// in OKMC mode, whose objects absorb instead of merging away.
	Merged     int
	Population int     // coarse-scale vacancy population after the anneal
	Events     int     // KMC/OKMC events executed this iteration
	MCTime     float64 // MC seconds accumulated this iteration
}

// CampaignState is the campaign block of a schema-v3 manifest: everything
// beyond the MD rank files that a resumed campaign needs.
type CampaignState struct {
	// Iter counts fully completed iterations; the snapshot's Step is
	// Iter·MD.Steps plus the MD progress of the iteration in flight.
	Iter int
	// Dose is the consumed dose (dpa), including a pending injection.
	Dose float64
	// Cursor is the number of uniform draws consumed from the spectrum
	// stream; a restart fast-forwards the stream by exactly this count.
	Cursor uint64
	// Recoils and Skipped are campaign totals, including a pending injection.
	Recoils int
	Skipped int
	// Population is the coarse-scale vacancy population after iteration
	// Iter-1's anneal (atomistic KMC mode; sorted by global site index).
	Population []lattice.Coord `json:",omitempty"`
	// Seen is every MD vacancy site already harvested (sorted by global
	// site index); the next harvest hands over only sites not in it.
	Seen []lattice.Coord `json:",omitempty"`
	// Trajectory is the dose ledger of the completed iterations.
	Trajectory []IterationSummary `json:",omitempty"`
	// Pending is non-nil on mid-iteration snapshots: the injection of
	// iteration Iter has been applied but its MD/anneal has not finished.
	Pending *PendingInjection `json:",omitempty"`
	// Objects, MCTime, MCEvents carry the OKMC population and clock
	// (OKMC mode only; float64 positions survive JSON round-trips exactly).
	Objects  []okmc.Object `json:",omitempty"`
	MCTime   float64       `json:",omitempty"`
	MCEvents int           `json:",omitempty"`
}

// CampaignResult summarizes a campaign run.
type CampaignResult struct {
	AtomCount  int
	Iterations int
	Dose       float64 // total consumed dose (dpa)
	Recoils    int
	Skipped    int
	MDSteps    int // total MD steps across all iterations
	Events     int // total KMC/OKMC events
	MCTime     float64
	// Ledger is the per-iteration dose trajectory.
	Ledger []IterationSummary
	// Population is the final coarse-scale vacancy population (atomistic
	// KMC mode; sorted by global site index).
	Population []lattice.Coord
	// Objects is the final cluster population (OKMC mode).
	Objects  []okmc.Object
	Analysis cluster.Analysis
	// RealTimeDays maps the accumulated MC time through the temporal-scale
	// formula (zero in OKMC mode, whose clock is already physical seconds).
	RealTimeDays float64
	CommStats    mpi.Stats
	Telemetry    *telemetry.Report
}

// String renders the headline numbers.
func (r *CampaignResult) String() string {
	return fmt.Sprintf(
		"campaign: atoms=%d iters=%d dose=%.3g dpa recoils=%d (+%d skipped) md_steps=%d events=%d mc_time=%.3gs\n  final: %v",
		r.AtomCount, r.Iterations, r.Dose, r.Recoils, r.Skipped, r.MDSteps, r.Events, r.MCTime, r.Analysis)
}

// recoil is one planned cascade of an iteration. The plan is a pure function
// of (seed, spectrum, cursor, iteration), so every rank derives the same one.
type recoil struct {
	Site   lattice.Coord
	Energy float64
	Dir    vec.V
	Nu     float64 // NRT displacements
}

// planRecoils draws the iteration's recoil set: energies from the spectrum
// sampler (advancing its cursor), sites and directions from the iteration's
// placement stream, rejecting sites closer than minSep (min-image) to an
// earlier recoil of the same iteration.
func planRecoils(l *lattice.Lattice, spec *CampaignSpec, sa *sampler, seed uint64, iter int) ([]recoil, error) {
	place := rng.New(seed).Derive(saltPlacement, uint64(iter))
	target := spec.DoseIncrement * float64(l.NumSites())
	side := l.Side()
	var plan []recoil
	var accepted []vec.V
	sum := 0.0
	for {
		e := sa.Sample()
		var site lattice.Coord
		var p vec.V
		placed := false
		for attempt := 0; attempt < maxPlacementAttempts; attempt++ {
			site = l.Coord(place.Intn(l.NumSites()))
			p = l.Position(site)
			if minImageClear(p, accepted, side, spec.MinSeparation) {
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("couple: could not place recoil %d of iteration %d with %v Å separation after %d attempts (box too small for the dose increment?)",
				len(plan), iter, spec.MinSeparation, maxPlacementAttempts)
		}
		var dir vec.V
		for dir.Norm2() == 0 {
			dir = vec.V{X: place.Norm(), Y: place.Norm(), Z: place.Norm()}
		}
		plan = append(plan, recoil{Site: site, Energy: e, Dir: dir, Nu: NRTDisplacements(e, spec.Ed)})
		accepted = append(accepted, p)
		sum += plan[len(plan)-1].Nu
		if sum >= target || len(plan) >= spec.MaxRecoils {
			return plan, nil
		}
	}
}

// minImageClear reports whether p keeps at least minSep (min-image distance)
// from every point in pts inside the periodic box with the given side.
func minImageClear(p vec.V, pts []vec.V, side vec.V, minSep float64) bool {
	for _, q := range pts {
		d := p.Sub(q)
		d.X -= side.X * math.Round(d.X/side.X)
		d.Y -= side.Y * math.Round(d.Y/side.Y)
		d.Z -= side.Z * math.Round(d.Z/side.Z)
		if d.Norm2() < minSep*minSep {
			return false
		}
	}
	return true
}

// applyRecoils injects the plan: the owning rank of each site applies the
// recoil, then an Allreduce verifies every recoil was applied by exactly one
// rank (zero ranks means the target site was vacant — the recoil is counted
// as skipped and contributes no dose). Collective; the returned injection is
// identical on every rank.
//
//mdvet:collective
func applyRecoils(c *mpi.Comm, rank *md.Rank, l *lattice.Lattice, plan []recoil) (PendingInjection, error) {
	counts := make([]float64, len(plan))
	for i, rc := range plan {
		ok, err := rank.ApplyRecoil(rc.Site, rc.Energy, rc.Dir)
		if err != nil {
			return PendingInjection{}, err
		}
		if ok {
			counts[i] = 1
		}
	}
	tot := c.Allreduce(mpi.Sum, counts...)
	var inj PendingInjection
	for i, n := range tot {
		if n > 1.5 {
			return PendingInjection{}, fmt.Errorf("couple: recoil %d at %+v applied by %d ranks, want exactly one owner",
				i, plan[i].Site, int(n+0.5))
		}
		if n > 0.5 {
			inj.Recoils++
			inj.EnergyEV += plan[i].Energy
			inj.DoseInc += plan[i].Nu / float64(l.NumSites())
		} else {
			inj.Skipped++
		}
	}
	return inj, nil
}

// sortSites orders sites by global index (in place) and returns them. The
// campaign keeps every replicated site list in this canonical order so the
// hand-off is identical regardless of which decomposition gathered it.
func sortSites(l *lattice.Lattice, sites []lattice.Coord) []lattice.Coord {
	sort.Slice(sites, func(i, j int) bool { return l.Index(sites[i]) < l.Index(sites[j]) })
	return sites
}

// diffSites returns the members of sites (sorted) not present in seen.
func diffSites(l *lattice.Lattice, sites, seen []lattice.Coord) []lattice.Coord {
	in := make(map[int]struct{}, len(seen))
	for _, s := range seen {
		in[l.Index(s)] = struct{}{}
	}
	var out []lattice.Coord
	for _, s := range sites {
		if _, ok := in[l.Index(s)]; !ok {
			out = append(out, s)
		}
	}
	return out
}

// unionSites merges two site lists, deduplicating by global index, sorted.
func unionSites(l *lattice.Lattice, a, b []lattice.Coord) []lattice.Coord {
	in := make(map[int]struct{}, len(a)+len(b))
	var out []lattice.Coord
	for _, list := range [2][]lattice.Coord{a, b} {
		for _, s := range list {
			if _, ok := in[l.Index(s)]; !ok {
				in[l.Index(s)] = struct{}{}
				out = append(out, s)
			}
		}
	}
	return sortSites(l, out)
}

// okmcConfig derives the OKMC stage configuration from the MD stage.
func (cfg *Config) okmcConfig() okmc.Config {
	ocfg := okmc.DefaultConfig()
	ocfg.Cells = cfg.MD.Cells
	ocfg.A = cfg.MD.A
	ocfg.Temperature = cfg.MD.Temperature
	if ocfg.Temperature <= 0 {
		ocfg.Temperature = 600
	}
	ocfg.Seed = cfg.MD.Seed + 2
	return ocfg
}

// okmcAnalysis summarizes an OKMC object population with the same statistics
// cluster.Vacancies computes for site populations.
func okmcAnalysis(objs []okmc.Object) cluster.Analysis {
	a := cluster.Analysis{Sizes: map[int]int{}}
	clustered := 0
	for _, o := range objs {
		a.NumVacancies += o.Size
		a.NumClusters++
		a.Sizes[o.Size]++
		if o.Size > a.Largest {
			a.Largest = o.Size
		}
		if o.Size >= 2 {
			clustered += o.Size
		}
	}
	if a.NumClusters > 0 {
		a.MeanSize = float64(a.NumVacancies) / float64(a.NumClusters)
	}
	if a.NumVacancies > 0 {
		a.ClusteredFraction = float64(clustered) / float64(a.NumVacancies)
	}
	return a
}

// RunCampaign executes a damage-accumulation campaign on an in-process world
// sized for the MD grid. The MD crystal persists across iterations; each
// iteration injects a spectrum-drawn recoil set, anneals the cascade with
// cfg.MD.Steps MD steps, harvests the vacancies not yet handed over, and
// evolves the accumulated population with the coarse stage (atomistic KMC,
// re-seeded per iteration, or OKMC with CampaignSpec.OKMC).
//
// With Checkpoint.Dir set, snapshots are written on the Checkpoint.Every
// cadence over the campaign-global MD step counter, plus one at every
// iteration boundary; Checkpoint.Restart resumes mid-iteration or at a
// boundary, on the same topology (byte-identical continuation) or a
// different rank count (re-sharded; the MD trajectory and dose ledger are
// preserved exactly).
func RunCampaign(cfg Config) (*CampaignResult, error) {
	if err := cfg.MD.Validate(); err != nil {
		return nil, err
	}
	if cfg.MD.PKA != nil {
		return nil, fmt.Errorf("couple: campaign mode drives recoil injection itself; clear MD.PKA")
	}
	cfg.normalize()
	spec := cfg.Campaign
	spec.normalize(cfg.MD.A)
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spectrum := spec.Spectrum
	if spectrum == nil {
		var err error
		if spectrum, err = FixedSpectrum(spec.Energy); err != nil {
			return nil, err
		}
	}

	d, err := open(cfg.Checkpoint, cfg.Hash(), cfg.MD.Ranks(), cfg.runOpts(), StageCampaign)
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{AtomCount: cfg.MD.NumAtoms()}
	err = d.exec(&res.Telemetry, func(c *mpi.Comm, reg *telemetry.Registry) error {
		rank, err := d.mdRank(c, reg, cfg.MD)
		if err != nil {
			return err
		}
		l := rank.L

		// Campaign ledger state, replicated identically on every rank.
		camp := CampaignState{}
		startIter, localStep := 0, 0
		var pending *PendingInjection
		if man := d.man; man != nil {
			camp = *man.Campaign
			startIter = camp.Iter
			localStep = man.Step - startIter*cfg.MD.Steps
			if localStep < 0 || localStep >= cfg.MD.Steps || startIter > spec.Iters {
				return fmt.Errorf("couple: campaign manifest step %d inconsistent with iteration %d of %d x %d steps",
					man.Step, camp.Iter, spec.Iters, cfg.MD.Steps)
			}
			if localStep > 0 && camp.Pending == nil {
				return fmt.Errorf("couple: mid-iteration campaign manifest lacks the pending injection")
			}
			pending = camp.Pending
			camp.Pending = nil
		}
		sa := newSampler(spectrum, cfg.MD.Seed, camp.Cursor)

		// OKMC population (replicated, deterministic — every rank steps the
		// identical simulation, so no broadcasts are needed).
		var osim *okmc.Sim
		if spec.OKMC {
			if d.man != nil {
				osim, err = okmc.Resume(cfg.okmcConfig(), camp.Objects, camp.MCTime, camp.MCEvents)
			} else {
				osim, err = okmc.New(cfg.okmcConfig(), nil)
			}
			if err != nil {
				return err
			}
		}

		iterations := reg.Counter("campaign/iterations")
		recoilsCtr := reg.Counter("campaign/recoils")
		skippedCtr := reg.Counter("campaign/recoils-skipped")
		newVacCtr := reg.Counter("campaign/new-vacancies")
		popGauge := reg.Gauge("campaign/population")
		doseGauge := reg.Gauge("campaign/dose-ndpa") // dose in nano-dpa

		// Campaign snapshots are MD rank files under a campaign manifest: the
		// ledger as of snapIter completed iterations, plus the injection of
		// the iteration in flight (nil at an iteration boundary).
		var snapIter int
		var snapPending *PendingInjection
		p := mdPoint(rank)
		p.stage, p.label = StageCampaign, "campaign-step-%d"
		p.camp = func() *CampaignState {
			s := camp
			s.Iter = snapIter
			s.Cursor = sa.Cursor
			s.Pending = snapPending
			if osim != nil {
				s.Objects = osim.Objects
				s.MCTime = osim.Time
				s.MCEvents = osim.Events
			}
			return &s
		}

		for it := startIter; it < spec.Iters; it++ {
			// Injection — skipped when a mid-iteration restart already has
			// the recoil energy in the restored velocities (the double-
			// injection bug class the PKA/restart sweep audits for).
			var inj PendingInjection
			if pending != nil {
				inj = *pending
				pending = nil
			} else {
				plan, err := planRecoils(l, &spec, sa, cfg.MD.Seed, it)
				if err != nil {
					return err
				}
				if inj, err = applyRecoils(c, rank, l, plan); err != nil {
					return err
				}
				camp.Dose += inj.DoseInc
				camp.Recoils += inj.Recoils
				camp.Skipped += inj.Skipped
			}
			recoilsCtr.Add(int64(inj.Recoils))
			skippedCtr.Add(int64(inj.Skipped))
			doseGauge.Set(int64(camp.Dose * 1e9))

			// MD cascade + anneal over the campaign-global step counter. A
			// mid-iteration snapshot must leave the iteration resumable, so
			// the stage's last step defers its snapshot and yield to the
			// iteration boundary below.
			snapIter, snapPending = it, &inj
			mdStage := reg.Timer("couple/md-stage").Begin()
			err := d.mdStage(c, rank, p, localStep, it*cfg.MD.Steps)
			mdStage.End()
			if err != nil {
				return err
			}
			localStep = 0

			// Harvest: only vacancies not yet handed over feed the coarse
			// stage; canonical site order keeps the hand-off topology-blind.
			mdSites := sortSites(l, gatherSites(c, rank.OwnedVacancySites()))
			fresh := diffSites(l, mdSites, camp.Seen)
			camp.Seen = unionSites(l, camp.Seen, fresh)
			newVacCtr.Add(int64(len(fresh)))

			// Coarse stage: evolve the accumulated population.
			row := IterationSummary{
				Iter: it, Recoils: inj.Recoils, Skipped: inj.Skipped,
				EnergyEV: inj.EnergyEV, DoseInc: inj.DoseInc, Dose: camp.Dose,
				NewVacancies: len(fresh),
			}
			kmcStage := reg.Timer("couple/kmc-stage").Begin()
			if spec.OKMC {
				osim.ReseedStream(saltAnneal, uint64(it))
				pts := make([]vec.V, len(fresh))
				for i, s := range fresh {
					pts[i] = l.Position(s)
				}
				osim.Inject(pts)
				ev0, t0 := osim.Events, osim.Time
				// The OKMC anneal has no checkpointable mid-state (the object
				// simulator serializes only at iteration boundaries), so a poll
				// inside the event loop could not act on a preemption request
				// anyway; the campaign loop polls at the iteration boundary.
				//mdvet:ignore preemptpoll OKMC anneal is atomic per iteration; the enclosing campaign loop polls at its boundary
				for i := 0; i < spec.OKMCEvents; i++ {
					if !osim.Step() {
						break
					}
				}
				row.Events = osim.Events - ev0
				row.MCTime = osim.Time - t0
				row.Population = osim.TotalVacancies()
			} else {
				kcfg := cfg.kmcConfig()
				kcfg.Seed = rng.Mix(cfg.MD.Seed+1, saltAnneal, uint64(it))
				input := unionSites(l, camp.Population, fresh)
				row.Merged = len(camp.Population) + len(fresh) - len(input)
				kcfg.Vacancies = globalIndices(l, input)
				if cfg.Rebalance.Handoff {
					cuts, err := fitCuts(l, kcfg.Grid, kcfg.GhostWidth(), input, cfg.Rebalance.weight())
					if err != nil {
						return err
					}
					kcfg.Cuts = cuts
				}
				st, err := d.kmcState(c, reg, kcfg)
				if err != nil {
					return err
				}
				for st.Time < cfg.TThreshold && st.Cycles < cfg.KMCCycles {
					st.Cycle()
					c.FaultPoint(mpi.PointKMCCycle, it*cfg.KMCCycles+st.Cycles)
				}
				row.Events = globalEvents(c, st)
				camp.Population = sortSites(l, gatherSites(c, st.VacancySites()))
				row.MCTime = st.Time
				row.Population = len(camp.Population)
				camp.MCTime += st.Time
				camp.MCEvents += row.Events
			}
			kmcStage.End()
			camp.Trajectory = append(camp.Trajectory, row)
			iterations.Inc()
			popGauge.Set(int64(row.Population))

			// Iteration boundary: the natural campaign restart point, snapshotted
			// whenever periodic checkpointing is on, and the yield the MD
			// stage's last step deferred (the KMC/OKMC anneal has no
			// checkpointable mid-state, so a request raised during it is
			// honored here, after the iteration's ledger row is complete).
			if it+1 < spec.Iters {
				snapIter, snapPending = it+1, nil
				k := (it + 1) * cfg.MD.Steps
				if d.co != nil && cfg.Checkpoint.Every > 0 {
					if err := d.snapshot(c, p, k); err != nil {
						return err
					}
				}
				if err := d.yield(c, p, k); err != nil {
					return err
				}
			}
		}

		if c.Rank() == 0 {
			res.Iterations = spec.Iters
			res.Dose = camp.Dose
			res.Recoils = camp.Recoils
			res.Skipped = camp.Skipped
			res.MDSteps = spec.Iters * cfg.MD.Steps
			res.Ledger = camp.Trajectory
			if spec.OKMC {
				res.Events = osim.Events
				res.MCTime = osim.Time
				res.Objects = osim.Objects
				res.Analysis = okmcAnalysis(osim.Objects)
			} else {
				res.Events = camp.MCEvents
				res.MCTime = camp.MCTime
				res.Population = camp.Population
				res.Analysis = cluster.Vacancies(l, camp.Population, 2)
				cMC := float64(len(camp.Population)) / float64(l.NumSites())
				res.RealTimeDays = TemporalScaleDays(camp.MCTime, cMC,
					units.VacancyFormationEnergyFe, cfg.kmcConfig().Temperature)
			}
			res.CommStats = c.Stats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
