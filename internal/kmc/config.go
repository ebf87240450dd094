// Package kmc implements the atomistic Kinetic Monte Carlo engine that
// continues the damage simulation after MD: vacancies hop between lattice
// sites with rates k = ν·exp(-ΔE/kBT) derived from the EAM potential
// (paper §2.2), parallelized with the semirigorous synchronous sublattice
// method (8 sectors per subdomain) and either the traditional full-ghost
// exchange of SPPARKS/KMCLib or the paper's on-demand communication
// strategy (§2.2.1), in both its two-sided (probe) and one-sided (window)
// realizations.
package kmc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
)

// Protocol selects the ghost-synchronization strategy.
type Protocol int

// Protocols compared in the paper's Figures 12 and 13.
const (
	// Traditional exchanges the complete ghost region before and after
	// every sector (the SPPARKS/KMCLib static pattern).
	Traditional Protocol = iota
	// OnDemand sends only the sites actually affected by events, in
	// two-sided messages whose size the receiver learns from Recv; idle
	// neighbors still send zero-size messages so receives match.
	OnDemand
	// OnDemandOneSided sends affected sites through one-sided window puts,
	// eliminating the zero-size messages.
	OnDemandOneSided
)

func (p Protocol) String() string {
	switch p {
	case Traditional:
		return "traditional"
	case OnDemand:
		return "on-demand"
	case OnDemandOneSided:
		return "on-demand-1sided"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Config describes a KMC run.
type Config struct {
	Cells [3]int
	//mdvet:ignore hashcover topology knob (DESIGN.md §14): recorded in the manifest and re-sharded on restart, not part of the physical run
	Grid [3]int
	// Cuts, when a dimension is non-nil, are explicit slab boundaries of the
	// process grid (lattice.NewGridCuts) — set by the repartitioner to
	// concentrate ranks on the defect-dense region. A topology knob like
	// Grid, excluded from Hash.
	//mdvet:ignore hashcover topology knob (DESIGN.md §14): re-shard loader handles boundary changes, trajectory is unchanged
	Cuts [3][]int
	A    float64

	Temperature float64 // K
	Nu          float64 // attempt frequency (1/s)
	Em          float64 // reference migration barrier (eV)

	// VacancyConcentration places vacancies at random lattice sites at
	// initialization (ignored when Vacancies is non-nil). The paper uses
	// 4.5e-5 and 2e-6.
	VacancyConcentration float64
	// Vacancies, when non-nil, lists the global site indices that start as
	// vacancies — the MD→KMC coupling input.
	Vacancies []int

	// CuConcentration places substitutional copper solutes at random sites
	// (the alloy path; enables the Cu-precipitation scenario).
	CuConcentration float64
	// CuSites, when non-nil, lists explicit copper site indices.
	CuSites []int
	// EmCu is the migration barrier of a vacancy-Cu exchange (eV); when
	// zero, Em is used. Copper migrates faster than iron in α-Fe, which is
	// what lets it precipitate on vacancy timescales.
	EmCu float64

	Seed uint64
	//mdvet:ignore hashcover bit-identical communication knob (DESIGN.md §7): all three ghost protocols yield the same trajectory
	Protocol Protocol

	// DtFactor scales the synchronous cycle window dt = DtFactor / R_max;
	// ~1 event per subdomain per cycle at the default of 1.
	DtFactor float64
}

// DefaultConfig returns the paper's KMC setup at laptop scale.
func DefaultConfig() Config {
	return Config{
		Cells:                [3]int{12, 12, 12},
		Grid:                 [3]int{1, 1, 1},
		A:                    units.LatticeConstantFe,
		Temperature:          600,
		Nu:                   units.AttemptFrequency,
		Em:                   units.VacancyMigrationEnergyFe,
		VacancyConcentration: 4.5e-5,
		Seed:                 1,
		Protocol:             OnDemand,
		DtFactor:             1,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Cells[d] <= 0 || c.Grid[d] <= 0 {
			return fmt.Errorf("kmc: non-positive cells %v or grid %v", c.Cells, c.Grid)
		}
	}
	if c.A <= 0 {
		return fmt.Errorf("kmc: non-positive lattice constant")
	}
	if c.Temperature <= 0 {
		return fmt.Errorf("kmc: non-positive temperature")
	}
	if c.Nu <= 0 || c.Em <= 0 {
		return fmt.Errorf("kmc: non-positive rate parameters nu=%v em=%v", c.Nu, c.Em)
	}
	if c.VacancyConcentration < 0 || c.VacancyConcentration > 0.5 {
		return fmt.Errorf("kmc: vacancy concentration %v out of range", c.VacancyConcentration)
	}
	if c.CuConcentration < 0 || c.CuConcentration > 0.5 {
		return fmt.Errorf("kmc: copper concentration %v out of range", c.CuConcentration)
	}
	if c.EmCu < 0 {
		return fmt.Errorf("kmc: negative copper migration barrier %v", c.EmCu)
	}
	if c.DtFactor <= 0 {
		return fmt.Errorf("kmc: non-positive dt factor")
	}
	return nil
}

// Hash returns a short stable digest of every trajectory-determining
// field. Checkpoint manifests record it so a restart with a diverging
// configuration is refused instead of silently producing a different
// trajectory. Protocol is excluded: it is a documented bit-identical knob
// (DESIGN.md §7), so a run may legally resume under a different
// communication protocol. Grid and Cuts are also excluded (DESIGN.md §14):
// topology is restart-compatible-but-checked — recorded in the checkpoint
// manifest and handled by the re-shard loader rather than refused. The
// explicit Vacancies/CuSites lists are hashed in full — they seed the
// occupancy.
func (c *Config) Hash() string {
	s := fmt.Sprintf("kmc|cells=%v|a=%v|T=%v|nu=%v|em=%v|cv=%v|vac=%v|cuc=%v|cusites=%v|emcu=%v|seed=%d|dtf=%v",
		c.Cells, c.A, c.Temperature, c.Nu, c.Em,
		c.VacancyConcentration, c.Vacancies, c.CuConcentration, c.CuSites,
		c.EmCu, c.Seed, c.DtFactor)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// Ranks returns the process count the configuration requires.
func (c *Config) Ranks() int { return c.Grid[0] * c.Grid[1] * c.Grid[2] }

// GhostWidth returns the ghost-halo width in cells a State built from this
// configuration uses — also the minimum slab width of any legal
// decomposition (NewState refuses thinner subdomains), which topology
// choosers must respect when picking a grid for elastic restart.
func (c *Config) GhostWidth() int {
	cutoff := eam.CutoffOf(units.Fe)
	if c.alloy() {
		cutoff = eam.CutoffOf(units.Fe, units.Cu)
	}
	l := lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
	return 2*l.NeighborOffsets(cutoff).MaxCellReach() + 1
}

// alloy reports whether the run needs the Fe-Cu potential instead of pure Fe.
func (c *Config) alloy() bool { return c.CuConcentration > 0 || len(c.CuSites) > 0 }

// NumSites returns the number of lattice sites.
func (c *Config) NumSites() int { return 2 * c.Cells[0] * c.Cells[1] * c.Cells[2] }
