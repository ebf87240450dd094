package serve

import (
	"fmt"
	"strings"

	"mdkmc"
	"mdkmc/internal/couple"
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
// known, the type-specific blocks are present, and the underlying
// simulation configs accept it on a single slot (always feasible when any
// slot count is).
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
	switch s.Type {
	case TypeMD:
		cfg, err := s.mdConfig(1)
		if err != nil {
			return err
		}
		return cfg.Validate()
	case TypeKMC:
		cfg, err := s.kmcConfig(1)
		if err != nil {
			return err
		}
		return cfg.Validate()
	case TypeCoupled, TypeCampaign:
		// couple.Config has no Validate of its own — Run validates the MD
		// block and the campaign invariants; mirror the cheap parts here so
		// bad specs bounce at admission, not at start.
		cfg, err := s.coupledConfig(1)
		if err != nil {
			return err
		}
		return cfg.MD.Validate()
	case "":
		return fmt.Errorf("serve: job spec missing \"type\"")
	default:
		return fmt.Errorf("serve: unknown job type %q (want md, kmc, coupled, or campaign)", s.Type)
	}
}

// mdConfig builds the MD configuration for a run on the given slot count.
func (s *JobSpec) mdConfig(slots int) (mdkmc.MDConfig, error) {
	cfg := mdkmc.DefaultMDConfig()
	if s.Cells != ([3]int{}) {
		cfg.Cells = s.Cells
	}
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
	grid, err := mdkmc.ChooseGrid(cfg.Cells, slots, s.minWidth())
	if err != nil {
		return cfg, fmt.Errorf("serve: no %d-slot grid for %v cells: %w", slots, cfg.Cells, err)
	}
	cfg.Grid = grid
	return cfg, nil
}

// kmcConfig builds the standalone-KMC configuration for the given slot count.
func (s *JobSpec) kmcConfig(slots int) (mdkmc.KMCConfig, error) {
	cfg := mdkmc.DefaultKMCConfig()
	if s.Cells != ([3]int{}) {
		cfg.Cells = s.Cells
	}
	if s.Temperature > 0 {
		cfg.Temperature = s.Temperature
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	grid, err := mdkmc.ChooseGrid(cfg.Cells, slots, s.minWidth())
	if err != nil {
		return cfg, fmt.Errorf("serve: no %d-slot grid for %v cells: %w", slots, cfg.Cells, err)
	}
	cfg.Grid = grid
	return cfg, nil
}

// coupledConfig builds the coupled/campaign configuration for the given
// slot count. Checkpointing, faults, telemetry, and the preemptor are
// runtime settings layered on by the runner, not part of the spec mapping.
func (s *JobSpec) coupledConfig(slots int) (mdkmc.CoupledConfig, error) {
	var cfg mdkmc.CoupledConfig
	mcfg, err := s.mdConfig(slots)
	if err != nil {
		return cfg, err
	}
	cfg.MD = mcfg
	cfg.KMCCycles = s.KMCCycles
	if cfg.KMCCycles <= 0 {
		cfg.KMCCycles = 30
	}
	cfg.Protocol = mdkmc.ProtocolOnDemand
	if s.Type == TypeCampaign {
		c := s.Campaign
		if c == nil {
			return cfg, fmt.Errorf("serve: campaign job missing the \"campaign\" block")
		}
		if c.Iters <= 0 || c.DoseIncrement <= 0 {
			return cfg, fmt.Errorf("serve: campaign needs positive iters and dose_increment, got %d and %v", c.Iters, c.DoseIncrement)
		}
		if s.PKAEnergy > 0 {
			return cfg, fmt.Errorf("serve: campaign jobs draw recoils from the spec's energy/spectrum; pka_energy must be unset")
		}
		cfg.MD.PKA = nil
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
		} else if c.Energy <= 0 {
			return cfg, fmt.Errorf("serve: campaign needs a positive energy or an inline spectrum")
		}
	} else if s.PKAEnergy <= 0 {
		// A coupled run without a cascade has nothing to couple.
		cfg.MD.PKA = &mdkmc.PKA{Energy: 300}
	}
	return cfg, nil
}

// minWidth is the slab-width floor ChooseGrid must respect: the widest
// ghost halo of the stages this job type runs.
func (s *JobSpec) minWidth() int {
	mcfg := mdkmc.DefaultMDConfig()
	if s.Cells != ([3]int{}) {
		mcfg.Cells = s.Cells
	}
	if s.TablePoints > 0 {
		mcfg.TablePoints = s.TablePoints
	}
	w := mcfg.GhostWidth()
	if s.Type == TypeKMC || s.Type == TypeCoupled || s.Type == TypeCampaign {
		kcfg := mdkmc.DefaultKMCConfig()
		kcfg.Cells = mcfg.Cells
		kcfg.A = mcfg.A
		if kw := kcfg.GhostWidth(); kw > w {
			w = kw
		}
	}
	return w
}

// maxFeasibleSlots returns the largest slot count in [1, min(s.Slots, cap)]
// the job's box can actually be decomposed onto — the scheduler never
// grants more. Slot count 1 always works (validated at admission).
func (s *JobSpec) maxFeasibleSlots(cap int) int {
	want := s.Slots
	if cap < want {
		want = cap
	}
	cells := s.Cells
	if cells == ([3]int{}) {
		if s.Type == TypeKMC {
			cells = mdkmc.DefaultKMCConfig().Cells
		} else {
			cells = mdkmc.DefaultMDConfig().Cells
		}
	}
	minWidth := s.minWidth()
	for n := want; n > 1; n-- {
		if _, err := mdkmc.ChooseGrid(cells, n, minWidth); err == nil {
			return n
		}
	}
	return 1
}

// configHash is the checkpoint-compatibility digest of this spec's
// simulation configuration. Topology and runtime knobs are excluded from
// the underlying hashes, so one digest serves every slot count — the status
// endpoint uses it to find a job's newest manifest.
func (s *JobSpec) configHash() (string, error) {
	switch s.Type {
	case TypeMD:
		cfg, err := s.mdConfig(1)
		if err != nil {
			return "", err
		}
		return cfg.Hash(), nil
	case TypeKMC:
		cfg, err := s.kmcConfig(1)
		if err != nil {
			return "", err
		}
		return couple.KMCRunHash(cfg, s.kmcCycles(), s.TThreshold), nil
	default:
		cfg, err := s.coupledConfig(1)
		if err != nil {
			return "", err
		}
		return cfg.Hash(), nil
	}
}

// kmcCycles returns the standalone-KMC cycle bound (30 when unset).
func (s *JobSpec) kmcCycles() int {
	if s.KMCCycles <= 0 {
		return 30
	}
	return s.KMCCycles
}
