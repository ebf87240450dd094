package serve

import (
	"fmt"
	"strings"

	"mdkmc"
	"mdkmc/internal/couple"
	"mdkmc/internal/eam"
)

// Job types accepted by the server.
const (
	TypeMD       = "md"
	TypeKMC      = "kmc"
	TypeCoupled  = "coupled"
	TypeCampaign = "campaign"
)

// CampaignJobSpec is the campaign block of a JobSpec: the damage-accumulation
// driver's parameters (mdkmc.CampaignSpec) with the PKA spectrum inlined as
// text so a job is one self-contained JSON document.
type CampaignJobSpec struct {
	Iters         int     `json:"iters"`
	DoseIncrement float64 `json:"dose_increment"`
	// Energy is the fixed recoil energy in eV; ignored when Spectrum is set.
	Energy float64 `json:"energy,omitempty"`
	// Spectrum holds inline "energy_eV weight" lines ('#' comments), the
	// same format LoadSpectrum reads from a file.
	Spectrum string `json:"spectrum,omitempty"`
	// OKMC selects the object-KMC anneal (decomposition-blind, so resumed
	// campaigns are bit-identical across slot counts).
	OKMC bool `json:"okmc,omitempty"`
}

// JobSpec is the JSON body of POST /jobs: which simulation to run, under
// which tenant, at what priority, and how many rank slots it would like.
// Zero-valued physics fields inherit the laptop-scale defaults of the
// corresponding Default*Config; Slots is the job's maximum — the scheduler
// may grant fewer (elastic), and a preempted job may resume on a different
// count than it first ran with.
type JobSpec struct {
	Type     string `json:"type"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Slots    int    `json:"slots,omitempty"`

	Cells           [3]int  `json:"cells,omitempty"`
	Steps           int     `json:"steps,omitempty"`
	KMCCycles       int     `json:"kmc_cycles,omitempty"`
	TThreshold      float64 `json:"t_threshold,omitempty"`
	Temperature     float64 `json:"temperature,omitempty"`
	Dt              float64 `json:"dt,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
	PKAEnergy       float64 `json:"pka_energy,omitempty"`
	TablePoints     int     `json:"table_points,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	MetricsEvery    int     `json:"metrics_every,omitempty"`

	Campaign *CampaignJobSpec `json:"campaign,omitempty"`
}

// DefaultTenant is assumed when a spec names none.
const DefaultTenant = "default"

// maxSites bounds the lattice sites of one job's box: 2²¹ sites is about
// 1.3 GB of MD state at 626 B/atom. Admission refuses larger boxes, and
// table resolutions above eam.TablePoints, rather than let one job's
// allocation take the whole server down.
const maxSites = 1 << 21

// normalize fills the scheduling defaults in place.
func (s *JobSpec) normalize() {
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.Slots <= 0 {
		s.Slots = 1
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = 25
	}
	if s.MetricsEvery <= 0 {
		s.MetricsEvery = s.CheckpointEvery
	}
}

// Validate normalizes the spec and checks it can actually run: the type is
// known, the type-specific blocks are present, and the job's configuration
// on a single slot passes that configuration's own Validate (a single slot
// is feasible whenever any slot count is).
func (s *JobSpec) Validate() error {
	s.normalize()
	// The lattice constructors panic on degenerate geometry, so bounce bad
	// cell counts before any config building touches them. A zero array
	// means "use the defaults"; a partially set one is an error.
	if s.Cells != ([3]int{}) {
		for _, n := range s.Cells {
			if n <= 0 {
				return fmt.Errorf("serve: non-positive cell count %v", s.Cells)
			}
		}
	}
	sites := 2
	for _, n := range s.box() {
		if n > maxSites/sites {
			return fmt.Errorf("serve: %v cells exceed the %d-site job limit", s.box(), maxSites)
		}
		sites *= n
	}
	if s.TablePoints > eam.TablePoints {
		return fmt.Errorf("serve: table_points %d exceeds %d", s.TablePoints, eam.TablePoints)
	}
	cfg, err := s.config(1)
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// jobConfig is what admission and the scheduler ask of a job's simulation
// configuration, whatever the job type.
type jobConfig interface {
	Validate() error
	// GhostWidth is the slab-width floor of every grid the run can use.
	GhostWidth() int
	Hash() string
}

// config builds the job's simulation configuration for a run on the given
// slot count — *mdkmc.MDConfig, *mdkmc.KMCConfig or *mdkmc.CoupledConfig by
// type — on the near-cubic grid whose slabs hold the configuration's own
// GhostWidth. Checkpointing, faults, telemetry and the preemptor are runtime
// settings layered on by the runner, not part of the spec mapping.
func (s *JobSpec) config(slots int) (jobConfig, error) {
	var (
		cfg  jobConfig
		grid *[3]int
	)
	switch s.Type {
	case TypeMD:
		c := s.mdConfig()
		cfg, grid = &c, &c.Grid
	case TypeKMC:
		c := mdkmc.DefaultKMCConfig()
		c.Cells = s.box()
		if s.Temperature > 0 {
			c.Temperature = s.Temperature
		}
		if s.Seed != 0 {
			c.Seed = s.Seed
		}
		cfg, grid = &c, &c.Grid
	case TypeCoupled, TypeCampaign:
		c, err := s.coupledConfig()
		if err != nil {
			return nil, err
		}
		cfg, grid = &c, &c.MD.Grid
	case "":
		return nil, fmt.Errorf("serve: job spec missing \"type\"")
	default:
		return nil, fmt.Errorf("serve: unknown job type %q (want md, kmc, coupled, or campaign)", s.Type)
	}
	g, err := mdkmc.ChooseGrid(s.box(), slots, cfg.GhostWidth())
	if err != nil {
		return nil, fmt.Errorf("serve: no %d-slot grid for %v cells: %w", slots, s.box(), err)
	}
	*grid = g
	return cfg, nil
}

// mdConfig maps the spec onto the MD configuration (grid left to config).
func (s *JobSpec) mdConfig() mdkmc.MDConfig {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = s.box()
	if s.Steps > 0 {
		cfg.Steps = s.Steps
	}
	if s.Temperature > 0 {
		cfg.Temperature = s.Temperature
	}
	if s.Dt > 0 {
		cfg.Dt = s.Dt
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.TablePoints > 0 {
		cfg.TablePoints = s.TablePoints
	}
	if s.PKAEnergy > 0 {
		cfg.PKA = &mdkmc.PKA{Energy: s.PKAEnergy}
	}
	return cfg
}

// coupledConfig maps the spec onto the coupled/campaign configuration (grid
// left to config). The campaign rules themselves — positive dose, an energy
// or a spectrum, no pka_energy — are the configuration's Validate.
func (s *JobSpec) coupledConfig() (mdkmc.CoupledConfig, error) {
	cfg := mdkmc.CoupledConfig{
		MD:        s.mdConfig(),
		KMCCycles: s.kmcCycles(),
		Protocol:  mdkmc.ProtocolOnDemand,
	}
	if s.Type == TypeCoupled {
		if cfg.MD.PKA == nil {
			// A coupled run without a cascade has nothing to couple.
			cfg.MD.PKA = &mdkmc.PKA{Energy: 300}
		}
		return cfg, nil
	}
	c := s.Campaign
	if c == nil || c.Iters <= 0 {
		return cfg, fmt.Errorf("serve: campaign job needs a \"campaign\" block with positive iters")
	}
	cfg.Campaign = mdkmc.CampaignSpec{
		Iters:         c.Iters,
		DoseIncrement: c.DoseIncrement,
		Energy:        c.Energy,
		OKMC:          c.OKMC,
	}
	if c.Spectrum != "" {
		spec, err := couple.ReadSpectrum(strings.NewReader(c.Spectrum))
		if err != nil {
			return cfg, fmt.Errorf("serve: inline spectrum: %w", err)
		}
		cfg.Campaign.Spectrum = spec
	}
	return cfg, nil
}

// maxFeasibleSlots returns the largest slot count in [1, min(s.Slots, cap)]
// the job's box can actually be decomposed onto — the scheduler never
// grants more. Slot count 1 always works (validated at admission).
func (s *JobSpec) maxFeasibleSlots(cap int) int {
	cfg, err := s.config(1)
	if err != nil {
		return 1
	}
	minWidth := cfg.GhostWidth()
	for n := min(s.Slots, cap); n > 1; n-- {
		if _, err := mdkmc.ChooseGrid(s.box(), n, minWidth); err == nil {
			return n
		}
	}
	return 1
}

// box returns the job's cell counts, the type's default when unset.
func (s *JobSpec) box() [3]int {
	switch {
	case s.Cells != ([3]int{}):
		return s.Cells
	case s.Type == TypeKMC:
		return mdkmc.DefaultKMCConfig().Cells
	default:
		return mdkmc.DefaultMDConfig().Cells
	}
}

// configHash is the checkpoint-compatibility digest of this spec's
// simulation configuration. Topology and runtime knobs are excluded from
// the underlying hashes, so one digest serves every slot count — the status
// endpoint uses it to find a job's newest manifest.
func (s *JobSpec) configHash() (string, error) {
	cfg, err := s.config(1)
	if err != nil {
		return "", err
	}
	if k, ok := cfg.(*mdkmc.KMCConfig); ok {
		return couple.KMCRunHash(*k, s.kmcCycles(), s.TThreshold), nil
	}
	return cfg.Hash(), nil
}

// kmcCycles returns the KMC cycle bound of a standalone-KMC or coupled job
// (30 when unset).
func (s *JobSpec) kmcCycles() int {
	if s.KMCCycles <= 0 {
		return 30
	}
	return s.KMCCycles
}
