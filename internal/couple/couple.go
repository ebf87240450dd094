// Package couple drives the multiscale MD→KMC pipeline (paper §2): MD
// simulates the defect generation of a cascade collision over ~50 ps and
// outputs vacancy coordinates; KMC continues the defect evolution and
// clustering at a vastly larger temporal scale; the temporal-scale formula
// t_real = t_threshold · C_MC / C_real maps Monte Carlo time to experiment
// time (paper §3, evaluated as 19.2 days for the headline run).
package couple

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"mdkmc/internal/cluster"
	"mdkmc/internal/halo"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// TemporalScale evaluates t_real = tThreshold · cMC / cReal with
// C_real = exp(-Ev / (kB·T)), returning the real-time span in seconds.
func TemporalScale(tThreshold, cMC, ev, temperature float64) float64 {
	cReal := math.Exp(-ev / (units.Boltzmann * temperature))
	return tThreshold * cMC / cReal
}

// TemporalScaleDays is TemporalScale expressed in days.
func TemporalScaleDays(tThreshold, cMC, ev, temperature float64) float64 {
	return TemporalScale(tThreshold, cMC, ev, temperature) / 86400
}

// Config describes one coupled run. The MD stage uses Config.MD with its
// own step count; the KMC stage inherits the box geometry and receives the
// MD vacancies.
type Config struct {
	MD md.Config
	// KMCCycles bounds the KMC stage (the laptop-scale stand-in for the
	// paper's t_threshold loop).
	KMCCycles int
	// TThreshold is the MC time threshold (s); the stage stops at whichever
	// of KMCCycles/TThreshold comes first.
	TThreshold float64
	// Protocol is the KMC stage's ghost protocol. Like kmc.Config.Protocol
	// it is a bit-identical communication knob (DESIGN.md §7), excluded from
	// Hash: kmcConfig copies it into a field kmc.Config.Hash skips.
	Protocol kmc.Protocol

	// Campaign configures the high-dose damage-accumulation driver
	// (campaign.go); the zero value leaves Run's single-cascade pipeline
	// unchanged. Only RunCampaign consults it.
	Campaign CampaignSpec

	// Checkpoint holds the fault-tolerance settings: snapshots, restart,
	// eviction and injected failures (checkpoint.go). A restart may target a
	// different topology than the snapshot's writer: the manifest records the
	// source decomposition and the re-shard loader re-slices the global state
	// for cfg.MD.Grid (DESIGN.md §14).
	Checkpoint Checkpoint
	// Rebalance configures the telemetry-calibrated dynamic load balancer
	// (rebalance.go). A topology knob excluded from Hash.
	Rebalance Rebalance
	// Telemetry configures the observability layer (internal/telemetry). It
	// is a pure speed/observability knob like MD.Workers: Hash excludes it,
	// and an enabled run is bit-identical to a disabled one (test-gated).
	Telemetry telemetry.Options
}

// kmcConfig derives the KMC stage configuration from the MD stage (box
// geometry, temperature, seed). The vacancy list is filled in later from
// the MD output — it is deliberately excluded here so Hash is identical
// before and after the handoff.
func (cfg *Config) kmcConfig() kmc.Config {
	kcfg := kmc.DefaultConfig()
	kcfg.Cells = cfg.MD.Cells
	kcfg.Grid = cfg.MD.Grid
	kcfg.A = cfg.MD.A
	kcfg.Temperature = cfg.MD.Temperature
	if kcfg.Temperature <= 0 {
		kcfg.Temperature = 600
	}
	kcfg.Seed = cfg.MD.Seed + 1
	kcfg.Protocol = cfg.Protocol
	kcfg.VacancyConcentration = 0
	return kcfg
}

// runsKMC reports whether the run has an atomistic KMC stage: every coupled
// run does, and so does every campaign that does not anneal with OKMC.
func (cfg *Config) runsKMC() bool { return cfg.Campaign.Iters <= 0 || !cfg.Campaign.OKMC }

// Validate checks the whole run before any rank starts: the MD block, in
// campaign mode (Campaign.Iters > 0) the normalized CampaignSpec and the
// rule that the driver injects the recoils itself, and the derived KMC stage
// whenever one runs — so a grid the KMC stage cannot use is refused before
// the MD stage spends its budget.
func (cfg *Config) Validate() error {
	if err := cfg.MD.Validate(); err != nil {
		return err
	}
	if cfg.Campaign.Iters > 0 {
		if cfg.MD.PKA != nil {
			return fmt.Errorf("couple: campaign mode drives recoil injection itself; clear MD.PKA")
		}
		spec := cfg.Campaign
		spec.normalize(cfg.MD.A)
		if err := spec.validate(); err != nil {
			return err
		}
	}
	if cfg.runsKMC() {
		kcfg := cfg.kmcConfig()
		return kcfg.Validate()
	}
	return nil
}

// GhostWidth returns the widest ghost halo among the stages the run
// executes: the minimum slab width of any grid the whole run can use.
func (cfg *Config) GhostWidth() int {
	w := cfg.MD.GhostWidth()
	if cfg.runsKMC() {
		kcfg := cfg.kmcConfig()
		w = max(w, kcfg.GhostWidth())
	}
	return w
}

// normalize fills the stop-condition defaults. Run applies it before
// computing the config hash, and Hash applies it to its own copy, so both
// digest the same effective configuration.
func (cfg *Config) normalize() {
	if cfg.KMCCycles <= 0 {
		cfg.KMCCycles = 50
	}
	if cfg.TThreshold <= 0 {
		cfg.TThreshold = math.Inf(1)
	}
}

// Hash digests every trajectory-determining field of the coupled run: the
// MD stage hash, the derived KMC stage hash, and the stop conditions (after
// default normalization, so the zero values hash like their defaults).
// Checkpoint (with its fault plan and preemptor) is excluded — it must not
// pin a snapshot to the cadence or crash schedule that produced it — and so
// are Protocol, Rebalance and Telemetry. TestConfigHashCoversEveryField
// (repository root) perturbs every field and pins exactly this split.
func (cfg *Config) Hash() string {
	n := *cfg
	n.normalize()
	kcfg := n.kmcConfig()
	s := fmt.Sprintf("couple|md=%s|kmc=%s|cycles=%d|tthr=%v",
		n.MD.Hash(), kcfg.Hash(), n.KMCCycles, n.TThreshold)
	// Campaign fields join the digest only when campaign mode is on, so
	// every pre-campaign snapshot hash is unchanged.
	if n.Campaign.Iters > 0 {
		n.Campaign.normalize(n.MD.A)
		s += "|campaign=" + n.Campaign.hashString()
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// Result summarizes a coupled run.
type Result struct {
	AtomCount    int
	VacanciesMD  int // vacancies generated by the cascade
	VacanciesKMC int // vacancies after evolution (conserved)
	MDSteps      int
	KMCCycles    int
	KMCEvents    int
	MCTime       float64 // accumulated MC seconds
	RealTimeDays float64 // via the temporal-scale formula
	BeforeKMC    cluster.Analysis
	AfterKMC     cluster.Analysis
	BeforeSites  []lattice.Coord
	AfterSites   []lattice.Coord
	CommStats    mpi.Stats
	// Telemetry is the measured per-phase, per-rank report (nil when the
	// run's telemetry options were disabled).
	Telemetry *telemetry.Report
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf(
		"atoms=%d md_steps=%d vacancies=%d kmc_cycles=%d events=%d mc_time=%.3gs real=%.3g days\n  before: %v\n  after:  %v",
		r.AtomCount, r.MDSteps, r.VacanciesMD, r.KMCCycles, r.KMCEvents,
		r.MCTime, r.RealTimeDays, r.BeforeKMC, r.AfterKMC)
}

// Run executes the coupled pipeline on an in-process world sized for the MD
// grid and returns the merged result. It is the whole-pipeline entry point
// used by the examples and benchmarks: the driver's MD stage, the vacancy
// handoff, then the driver's KMC stage.
//
// The whole configuration is checked (Validate) before the world starts.
// Rank failures — a failed stage constructor, an internal invariant panic,
// or an injected fault — surface as an ordinary error: the world aborts,
// surviving ranks unwind, and the first cause is returned. With
// Checkpoint.Dir set, snapshots of the active stage are written every
// Checkpoint.Every steps/cycles, and Checkpoint.Restart resumes from the
// newest valid one; the resumed trajectory is bit-identical to an
// uninterrupted run.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	d, err := open(cfg.Checkpoint, cfg.Hash(), cfg.MD.Ranks(), cfg.Telemetry, StageMD, StageKMC)
	if err != nil {
		return nil, err
	}
	res := &Result{AtomCount: cfg.MD.NumAtoms(), MDSteps: cfg.MD.Steps}
	err = d.exec(&res.Telemetry, func(c *mpi.Comm, reg *telemetry.Registry) error {
		l := lattice.New(cfg.MD.Cells[0], cfg.MD.Cells[1], cfg.MD.Cells[2], cfg.MD.A)
		kcfg := cfg.kmcConfig()
		// Stage 1: MD cascade — skipped entirely when resuming past the
		// handoff; the manifest then carries the MD stage's summary.
		var summary *MDSummary
		resumeKMC := d.man != nil && d.man.Stage == StageKMC
		if resumeKMC {
			if summary = d.man.MD; summary == nil {
				return fmt.Errorf("couple: KMC-stage checkpoint lacks the MD summary")
			}
		} else {
			rank, err := d.mdRank(c, reg, cfg.MD)
			if err != nil {
				return err
			}
			mdStage := reg.Timer("couple/md-stage").Begin()
			err = d.mdStage(c, rank, mdPoint(rank), 0)
			mdStage.End()
			if err != nil {
				return err
			}
			summary = &MDSummary{Vacancies: rank.GlobalVacancyCount()}
			summary.BeforeSites = gatherSites(c, rank.OwnedVacancySites())
			kcfg.Vacancies = globalIndices(l, summary.BeforeSites)
		}

		// Stage 2: hand the vacancy sites to KMC. The decomposition may
		// deviate from the uniform split: a KMC-stage restart onto the
		// snapshot's grid adopts its cuts (so the engine's restart call takes
		// the byte-exact path; any other grid re-shards), and the rebalancer,
		// when on, fits slab cuts to the defect distribution at the handoff
		// and then every Rebalance.Every cycles as the defect cloud migrates.
		if resumeKMC && d.man.Topology.Grid == kcfg.Grid {
			kcfg.Cuts = d.man.Topology.Cuts
		} else if cfg.Rebalance.Every > 0 {
			cuts, err := fitCuts(l, kcfg.Grid, kcfg.GhostWidth(), summary.BeforeSites)
			if err != nil {
				return err
			}
			kcfg.Cuts = cuts
		}
		st, err := d.kmcState(c, reg, kcfg)
		if err != nil {
			return err
		}
		kmcStage := reg.Timer("couple/kmc-stage").Begin()
		st, err = d.kmcStage(c, reg, st, cfg.KMCCycles, cfg.TThreshold, summary, cfg.Rebalance)
		kmcStage.End()
		if err != nil {
			return err
		}
		events := globalEvents(c, st)
		allAfter := gatherSites(c, st.VacancySites())
		vacKMC := st.GlobalVacancyCount()

		// Only rank 0 writes the result; the world's WaitGroup orders the
		// write before the caller's read.
		if c.Rank() == 0 {
			res.VacanciesMD = summary.Vacancies
			res.VacanciesKMC = vacKMC
			res.KMCCycles = st.Cycles
			res.KMCEvents = events
			res.MCTime = st.Time
			res.BeforeSites = summary.BeforeSites
			res.AfterSites = allAfter
			cMC := float64(vacKMC) / float64(l.NumSites())
			res.RealTimeDays = TemporalScaleDays(st.Time, cMC,
				units.VacancyFormationEnergyFe, kcfg.Temperature)
			res.BeforeKMC = cluster.Vacancies(l, summary.BeforeSites, 2)
			res.AfterKMC = cluster.Vacancies(l, allAfter, 2)
			res.CommStats = c.Stats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// globalEvents is the KMC event count summed over all ranks. Collective.
//
//mdvet:collective
func globalEvents(c *mpi.Comm, st *kmc.State) int {
	return int(c.Allreduce(mpi.Sum, float64(st.Events))[0] + 0.5)
}

// gatherSites collects every rank's (wrapped) sites on all ranks, 13 bytes a
// site. It is a collective: every rank of c must call it in lockstep.
//
//mdvet:collective
func gatherSites(c *mpi.Comm, own []lattice.Coord) []lattice.Coord {
	var p halo.Packer
	for _, s := range own {
		p.I32(s.X)
		p.I32(s.Y)
		p.I32(s.Z)
		p.U8(uint8(s.B))
	}
	var out []lattice.Coord
	for _, buf := range c.Allgather(p.Bytes()) {
		u := halo.NewUnpacker("couple", buf)
		for !u.Done() {
			out = append(out, lattice.Coord{X: u.I32(), Y: u.I32(), Z: u.I32(), B: int8(u.U8())})
		}
	}
	return out
}

// globalIndices converts wrapped coordinates to global site indices.
func globalIndices(l *lattice.Lattice, sites []lattice.Coord) []int {
	out := make([]int, len(sites))
	for i, c := range sites {
		out[i] = l.Index(c)
	}
	return out
}
