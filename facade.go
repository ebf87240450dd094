package mdkmc

import (
	"mdkmc/internal/cluster"
	"mdkmc/internal/couple"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// Re-exported configuration and option types. The aliases keep the public
// API in one import while the implementations live in internal packages.
type (
	// MDConfig configures a Molecular Dynamics run (see md.Config). The
	// Workers field selects the per-rank force-pass parallelism (0 =
	// GOMAXPROCS, 1 = serial reference); every setting produces
	// bit-identical results, so it is purely a speed knob.
	MDConfig = md.Config
	// PKA configures the primary knock-on atom of a cascade.
	PKA = md.PKA
	// KMCConfig configures a Kinetic Monte Carlo run (see kmc.Config).
	KMCConfig = kmc.Config
	// Protocol selects the KMC ghost-communication strategy.
	Protocol = kmc.Protocol
	// CoupledConfig configures the full MD→KMC pipeline.
	CoupledConfig = couple.Config
	// CoupledResult is the full-pipeline result.
	CoupledResult = couple.Result
	// CampaignSpec configures the high-dose damage-accumulation campaign
	// driver (CoupledConfig.Campaign; see RunCampaign).
	CampaignSpec = couple.CampaignSpec
	// CampaignResult is the campaign-mode result: dose ledger, final defect
	// population, clustering analysis.
	CampaignResult = couple.CampaignResult
	// Spectrum is a discrete PKA recoil-energy distribution (LoadSpectrum).
	Spectrum = couple.Spectrum
	// ClusterAnalysis summarizes vacancy clustering.
	ClusterAnalysis = cluster.Analysis
	// Coord identifies a lattice site.
	Coord = lattice.Coord
	// Checkpoint configures periodic snapshots and restart.
	Checkpoint = couple.Checkpoint
	// Manifest describes one committed snapshot (see LatestCheckpoint).
	Manifest = couple.Manifest
	// Rebalance configures the telemetry-calibrated dynamic load balancer.
	Rebalance = couple.Rebalance
	// Fault schedules an injected rank failure for recovery testing.
	Fault = mpi.Fault
	// InjectedFault is the error a fault-killed run returns (errors.As).
	InjectedFault = mpi.InjectedFault
	// TelemetryOptions configures the runtime observability layer: JSONL
	// flush, Prometheus-style HTTP exposition, flush cadence.
	TelemetryOptions = telemetry.Options
	// TelemetryReport is the end-of-run per-phase report, every metric
	// min/mean/max-aggregated across ranks.
	TelemetryReport = telemetry.Report
	// Preemptor carries an asynchronous checkpoint-and-stop request into a
	// run (WithPreemption, or CoupledConfig.Preempt for coupled/campaign
	// runs). See DESIGN.md §16.
	Preemptor = couple.Preemptor
	// MDResult summarizes an MD run.
	MDResult = couple.MDResult
	// KMCResult summarizes a KMC run.
	KMCResult = couple.KMCResult
	// RunOption customizes a Run*Checkpointed call.
	RunOption = couple.RunOption
)

// ErrPreempted is returned by a run stopped by a Preemptor after committing
// a resumable snapshot; test with errors.Is and resume via Checkpoint.Restart.
var ErrPreempted = couple.ErrPreempted

// WithFaults schedules injected rank failures (in addition to any plan in
// MDKMC_FAULT) for recovery testing.
func WithFaults(faults ...Fault) RunOption { return couple.WithFaults(faults...) }

// WithTelemetry attaches the observability layer to the run: per-rank phase
// spans and comm counters, periodic JSONL flush, optional HTTP exposition,
// and a measured end-of-run report in the result's Telemetry field.
// Telemetry never perturbs the trajectory — results are bit-identical to a
// run without it.
func WithTelemetry(opts TelemetryOptions) RunOption { return couple.WithTelemetry(opts) }

// WithPreemption arms checkpoint-backed eviction: when p.Request is called
// from another goroutine, the run stops at its next step/cycle boundary,
// writes one final snapshot through the checkpoint coordinator (when one is
// configured), and returns ErrPreempted. Resume the job by re-running the
// same configuration with Checkpoint.Restart — on the same topology the
// continuation is bit-identical; on a different one it re-shards elastically.
func WithPreemption(p *Preemptor) RunOption { return couple.WithPreemption(p) }

// Fault-injection points understood by Fault.Point (ParseFaults also
// accepts "checkpoint-commit", the point inside the snapshot commit).
const (
	FaultPointMDStep   = mpi.PointMDStep
	FaultPointKMCCycle = mpi.PointKMCCycle
)

// ParseFaults parses a comma-separated "point:rank:step" fault plan, the
// same syntax the MDKMC_FAULT environment variable accepts.
func ParseFaults(s string) ([]Fault, error) { return mpi.ParseFaults(s) }

// KMC communication protocols (paper §2.2.1).
const (
	ProtocolTraditional      = kmc.Traditional
	ProtocolOnDemand         = kmc.OnDemand
	ProtocolOnDemandOneSided = kmc.OnDemandOneSided
)

// DefaultMDConfig returns the paper's iron setup at laptop scale.
func DefaultMDConfig() MDConfig { return md.DefaultConfig() }

// DefaultKMCConfig returns the paper's KMC setup at laptop scale.
func DefaultKMCConfig() KMCConfig { return kmc.DefaultConfig() }

// RunMD builds the in-process world for cfg.Grid, advances cfg.Steps MD
// steps on every rank, and returns the merged result.
func RunMD(cfg MDConfig) (*MDResult, error) { return couple.RunMD(cfg, Checkpoint{}) }

// RunMDCheckpointed is RunMD with periodic snapshots and restart: with
// ck.Dir set, all ranks are snapshotted every ck.Every steps, and ck.Restart
// resumes from the newest valid snapshot, bit-identical to an uninterrupted
// run. Options inject faults (WithFaults, plus any in MDKMC_FAULT), attach
// telemetry (WithTelemetry) and arm preemption (WithPreemption).
func RunMDCheckpointed(cfg MDConfig, ck Checkpoint, opts ...RunOption) (*MDResult, error) {
	return couple.RunMD(cfg, ck, opts...)
}

// RunKMC builds the in-process world for cfg.Grid and runs cycles KMC
// cycles (or until tThreshold MC seconds if positive).
func RunKMC(cfg KMCConfig, cycles int, tThreshold float64) (*KMCResult, error) {
	return couple.RunKMC(cfg, cycles, tThreshold, Checkpoint{})
}

// RunKMCCheckpointed is RunKMC with periodic snapshots and restart: with
// ck.Dir set, all ranks are snapshotted every ck.Every cycles, and
// ck.Restart resumes from the newest valid snapshot, bit-identical to an
// uninterrupted run. Options as for RunMDCheckpointed.
func RunKMCCheckpointed(cfg KMCConfig, cycles int, tThreshold float64, ck Checkpoint, opts ...RunOption) (*KMCResult, error) {
	return couple.RunKMC(cfg, cycles, tThreshold, ck, opts...)
}

// LatestCheckpoint returns the newest valid snapshot manifest under dir for
// the configuration digest hash, or (nil, nil) when dir holds none.
func LatestCheckpoint(dir, hash string) (*Manifest, error) { return couple.Latest(dir, hash) }

// ChooseGrid picks a near-cubic px×py×pz process grid for ranks over an
// nx×ny×nz-cell box, subject to every slab being at least minWidth cells
// wide (the consumer's ghost constraint). It is the topology chooser behind
// the CLIs' -restart-ranks flag: the elastic restart path re-shards the
// checkpoint onto the grid this returns.
func ChooseGrid(cells [3]int, ranks, minWidth int) ([3]int, error) {
	l := lattice.New(cells[0], cells[1], cells[2], 1)
	px, py, pz, err := lattice.ChooseGrid(l, ranks, minWidth)
	if err != nil {
		return [3]int{}, err
	}
	return [3]int{px, py, pz}, nil
}

// RunCoupled executes the full MD→KMC pipeline (paper §2).
func RunCoupled(cfg CoupledConfig) (*CoupledResult, error) { return couple.Run(cfg) }

// RunCampaign executes a high-dose damage-accumulation campaign: repeated
// spectrum-drawn multi-recoil cascades, each advancing the dose by a fixed
// NRT-dpa increment, with the accumulated defect population handed to the
// coarse KMC/OKMC stage every iteration. Enabled by cfg.Campaign.Iters > 0;
// restartable end-to-end through cfg.Checkpoint.
func RunCampaign(cfg CoupledConfig) (*CampaignResult, error) { return couple.RunCampaign(cfg) }

// LoadSpectrum reads a PKA recoil-energy spectrum file: one "energy_eV
// [weight]" pair per line, '#' comments.
func LoadSpectrum(path string) (*Spectrum, error) { return couple.LoadSpectrum(path) }

// TemporalScaleDays evaluates the paper's temporal-scale formula
// t_real = t_threshold·C_MC/C_real in days (19.2 for the headline run).
func TemporalScaleDays(tThreshold, cMC, temperature float64) float64 {
	return couple.TemporalScaleDays(tThreshold, cMC,
		units.VacancyFormationEnergyFe, temperature)
}

// AnalyzeClusters groups (wrapped) vacancy sites of an nx×ny×nz-cell box
// into clusters joined within `shells` neighbor shells.
func AnalyzeClusters(cells [3]int, a float64, sites []Coord, shells int) ClusterAnalysis {
	l := lattice.New(cells[0], cells[1], cells[2], a)
	return cluster.Vacancies(l, sites, shells)
}

// RenderVacancies projects vacancy sites onto an ASCII XY map (the
// repository's stand-in for the paper's Figure 17 visualizations).
func RenderVacancies(cells [3]int, a float64, sites []Coord, width, height int) string {
	l := lattice.New(cells[0], cells[1], cells[2], a)
	return cluster.Render(l, sites, width, height)
}
