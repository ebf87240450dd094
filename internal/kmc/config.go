// Package kmc implements the atomistic Kinetic Monte Carlo engine that
// continues the damage simulation after MD: vacancies hop between lattice
// sites with rates k = ν·exp(-ΔE/kBT) derived from the EAM potential
// (paper §2.2), parallelized with the semirigorous synchronous sublattice
// method (8 sectors per subdomain) and either the traditional full-ghost
// exchange of SPPARKS/KMCLib or the paper's on-demand communication
// strategy (§2.2.1), whose two-sided flush after each sector messages only
// the peers the sector can reach.
package kmc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

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
	// two-sided messages whose size the receiver learns from Recv, and
	// only to the peers the sector can reach; an idle one among those still
	// sends a zero-size message so receives match.
	OnDemand
)

func (p Protocol) String() string {
	switch p {
	case Traditional:
		return "traditional"
	case OnDemand:
		return "on-demand"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Config describes a KMC run.
type Config struct {
	Cells [3]int
	Grid  [3]int
	// Cuts, when a dimension is non-nil, are explicit slab boundaries of the
	// process grid (lattice.NewGridCuts) — set by the repartitioner to
	// concentrate ranks on the defect-dense region. A topology knob like
	// Grid, excluded from Hash.
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

	Seed     uint64
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

// Validate reports configuration errors, including a decomposition a State
// cannot use: every subdomain slab must be at least GhostWidth cells wide.
// Callers check a run whole before any rank starts (NewState validates too).
func (c *Config) Validate() error {
	_, _, err := c.layout()
	return err
}

// layout validates c and returns what the checks build and NewState uses:
// the process grid over the lattice, and the neighbor offset table of the
// run's potential cutoff.
func (c *Config) layout() (*lattice.Grid, *lattice.OffsetTable, error) {
	for d := 0; d < 3; d++ {
		if c.Cells[d] <= 0 || c.Grid[d] <= 0 {
			return nil, nil, fmt.Errorf("kmc: non-positive cells %v or grid %v", c.Cells, c.Grid)
		}
	}
	if !positive(c.A) {
		return nil, nil, fmt.Errorf("kmc: lattice constant %v is not positive and finite", c.A)
	}
	if !positive(c.Temperature) {
		return nil, nil, fmt.Errorf("kmc: temperature %v is not positive and finite", c.Temperature)
	}
	if !positive(c.Nu) || !positive(c.Em) {
		return nil, nil, fmt.Errorf("kmc: rate parameters nu=%v em=%v are not positive and finite", c.Nu, c.Em)
	}
	if !(c.VacancyConcentration >= 0 && c.VacancyConcentration <= 0.5) {
		return nil, nil, fmt.Errorf("kmc: vacancy concentration %v out of range", c.VacancyConcentration)
	}
	if !(c.CuConcentration >= 0 && c.CuConcentration <= 0.5) {
		return nil, nil, fmt.Errorf("kmc: copper concentration %v out of range", c.CuConcentration)
	}
	if !(c.EmCu >= 0) || math.IsInf(c.EmCu, 1) {
		return nil, nil, fmt.Errorf("kmc: copper migration barrier %v is negative or not finite", c.EmCu)
	}
	if !positive(c.DtFactor) {
		return nil, nil, fmt.Errorf("kmc: dt factor %v is not positive and finite", c.DtFactor)
	}
	if c.Protocol != Traditional && c.Protocol != OnDemand {
		return nil, nil, fmt.Errorf("kmc: unknown protocol %v", c.Protocol)
	}
	l := lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
	grid, err := lattice.NewGridCuts(l, c.Grid[0], c.Grid[1], c.Grid[2], c.Cuts)
	if err != nil {
		return nil, nil, err
	}
	tab := l.NeighborOffsets(eam.CutoffOf(c.elements()...))
	ghost := ghostWidth(tab)
	for d, cs := range grid.Cuts() {
		for i := 1; i < len(cs); i++ {
			if w := cs[i] - cs[i-1]; w < ghost {
				return nil, nil, fmt.Errorf("kmc: subdomain dim %d (%d cells) thinner than ghost %d", d, w, ghost)
			}
		}
	}
	return grid, tab, nil
}

// positive reports whether x is positive and finite (NaN is not).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Hash returns a short stable digest of every trajectory-determining
// field. Checkpoint manifests record it so a restart with a diverging
// configuration is refused instead of silently producing a different
// trajectory. Protocol is excluded: it is a documented bit-identical knob
// (DESIGN.md §7), so a run may legally resume under a different
// communication protocol. Grid and Cuts are also excluded (DESIGN.md §14):
// topology is restart-compatible-but-checked — recorded in the checkpoint
// manifest and handled by the re-shard loader rather than refused. The
// explicit Vacancies/CuSites lists are hashed in full — they seed the
// occupancy. TestConfigHashCoversEveryField (repository root) pins this
// split.
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
// decomposition (Validate refuses thinner subdomains), which topology
// choosers must respect when picking a grid for elastic restart.
func (c *Config) GhostWidth() int {
	l := lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
	return ghostWidth(l.NeighborOffsets(eam.CutoffOf(c.elements()...)))
}

// ghostWidth returns the halo width in cells for the offset table of the
// potential: the Chebyshev cell radius within which an occupancy change can
// alter a vacancy's hop rates, and so the bound of the rate cache's read
// footprint (readFootprint). The hop target sits one cell from the vacancy;
// the pair shells and the embedding bystanders extend another `reach` cells
// (occupancy read directly, radius reach+1); and each bystander's ρ sums
// occupancy a further `reach` cells out (radius 2·reach+1).
func ghostWidth(tab *lattice.OffsetTable) int { return 2*tab.MaxCellReach() + 1 }

// elements returns the species of the run's potential: Fe, and Cu when the
// run needs the Fe-Cu alloy.
func (c *Config) elements() []units.Element {
	if c.CuConcentration > 0 || len(c.CuSites) > 0 {
		return []units.Element{units.Fe, units.Cu}
	}
	return []units.Element{units.Fe}
}

// NumSites returns the number of lattice sites.
func (c *Config) NumSites() int { return 2 * c.Cells[0] * c.Cells[1] * c.Cells[2] }
