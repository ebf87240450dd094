package couple

// The single-stage entry points: a plain MD run and a plain KMC run, each
// one driver stage plus its result collection.

import (
	"fmt"
	"math"

	"mdkmc/internal/cluster"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// MDResult summarizes an MD run.
type MDResult struct {
	Atoms        int
	Steps        int
	Kinetic      float64 // eV
	Potential    float64 // eV
	Temperature  float64 // K
	Vacancies    int
	VacancySites []lattice.Coord
	Comm         mpi.Stats
	Clusters     cluster.Analysis
	// Telemetry is the measured per-phase report (nil unless the run was
	// started with WithTelemetry and enabled options).
	Telemetry *telemetry.Report
}

// RunMD builds the in-process world for cfg.Grid, advances cfg.Steps MD
// steps on every rank, and returns the merged result. With ck.Dir set, all
// ranks are snapshotted every ck.Every steps, and ck.Restart resumes from
// the newest valid snapshot, bit-identical to an uninterrupted run. Options
// inject faults, attach telemetry and arm preemption.
func RunMD(cfg md.Config, ck Checkpoint, opts ...RunOption) (*MDResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := open(ck, cfg.Hash(), cfg.Ranks(), applyRunOptions(opts), StageMD)
	if err != nil {
		return nil, err
	}
	res := &MDResult{Atoms: cfg.NumAtoms(), Steps: cfg.Steps}
	err = d.exec(&res.Telemetry, func(c *mpi.Comm, reg *telemetry.Registry) error {
		rank, err := d.mdRank(c, reg, cfg)
		if err != nil {
			return err
		}
		if err := d.mdStage(c, rank, mdPoint(rank), d.resumeStep(), 0); err != nil {
			return err
		}
		ke, pe := rank.TotalEnergy()
		temp := rank.Temperature()
		vac := rank.GlobalVacancyCount()
		sites := gatherSites(c, rank.OwnedVacancySites())
		if c.Rank() == 0 {
			res.Kinetic = ke
			res.Potential = pe
			res.Temperature = temp
			res.Vacancies = vac
			res.VacancySites = sites
			res.Comm = c.Stats()
			res.Clusters = cluster.Vacancies(rank.L, sites, 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// KMCResult summarizes a KMC run.
type KMCResult struct {
	Sites        int
	Vacancies    int
	Cycles       int
	Events       int
	MCTime       float64 // seconds of Monte Carlo time
	RealTimeDays float64 // via the temporal-scale formula
	VacancySites []lattice.Coord
	Comm         mpi.Stats
	Clusters     cluster.Analysis
	// Telemetry is the measured per-phase report (nil unless the run was
	// started with WithTelemetry and enabled options).
	Telemetry *telemetry.Report
}

// KMCRunHash is the checkpoint-compatibility digest of a standalone KMC run:
// the stop conditions join the configuration hash, because resuming with a
// different bound is a different run. No threshold (tThreshold <= 0) hashes
// as +Inf. The format is on disk in every standalone-KMC manifest.
func KMCRunHash(cfg kmc.Config, cycles int, tThreshold float64) string {
	if tThreshold <= 0 {
		tThreshold = math.Inf(1)
	}
	return fmt.Sprintf("%s|cycles=%d|tthr=%v", cfg.Hash(), cycles, tThreshold)
}

// RunKMC builds the in-process world for cfg.Grid and runs cycles KMC cycles
// (or until tThreshold MC seconds if positive). With ck.Dir set, all ranks
// are snapshotted every ck.Every cycles, and ck.Restart resumes from the
// newest valid snapshot, bit-identical to an uninterrupted run. Options
// inject faults, attach telemetry and arm preemption.
func RunKMC(cfg kmc.Config, cycles int, tThreshold float64, ck Checkpoint, opts ...RunOption) (*KMCResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tThreshold <= 0 {
		tThreshold = math.Inf(1)
	}
	d, err := open(ck, KMCRunHash(cfg, cycles, tThreshold), cfg.Ranks(), applyRunOptions(opts), StageKMC)
	if err != nil {
		return nil, err
	}
	res := &KMCResult{Sites: cfg.NumSites()}
	err = d.exec(&res.Telemetry, func(c *mpi.Comm, reg *telemetry.Registry) error {
		st, err := d.kmcState(c, reg, cfg)
		if err != nil {
			return err
		}
		if st, err = d.kmcStage(c, reg, st, cycles, tThreshold, nil, Rebalance{}); err != nil {
			return err
		}
		events := globalEvents(c, st)
		vac := st.GlobalVacancyCount()
		sites := gatherSites(c, st.VacancySites())
		if c.Rank() == 0 {
			res.Vacancies = vac
			res.Cycles = st.Cycles
			res.Events = events
			res.MCTime = st.Time
			cMC := float64(vac) / float64(cfg.NumSites())
			res.RealTimeDays = TemporalScaleDays(st.Time, cMC,
				units.VacancyFormationEnergyFe, cfg.Temperature)
			res.VacancySites = sites
			res.Comm = c.Stats()
			res.Clusters = cluster.Vacancies(st.L, sites, 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
