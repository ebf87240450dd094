// Package md implements the Molecular Dynamics engine that simulates defect
// generation by cascade collision (paper §2.1): EAM forces over the lattice
// neighbor list, velocity-Verlet integration, run-away atom and vacancy
// bookkeeping, spatial domain decomposition with ghost exchange, the
// Sunway CPE cost model of the force kernel with the paper's data-movement
// optimizations, and Wigner-Seitz defect analysis feeding the KMC stage.
package md

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// Default numerical parameters; see Config.
const (
	// DefaultDt is the MD time step in ps ("time step is set to 1
	// femtosecond").
	DefaultDt = 1e-3
	// DefaultSkin is the extra margin (Å) added to the interaction cutoff
	// when selecting the static lattice-neighbor offsets used for
	// lattice-resident pairs; it must cover twice the run-away conversion
	// threshold.
	DefaultSkin = 0.9
	// RunawayThreshold is the displacement (Å) from the home lattice site
	// beyond which an atom is converted to a run-away atom and its site to
	// a vacancy.
	RunawayThreshold = 0.45
	// WideMargin is the extra margin (Å) added to the cutoff for the wide
	// offset table used to locate run-away atoms: twice the largest
	// possible distance between a run-away atom and its anchor site (the
	// circumradius of the BCC Wigner-Seitz cell, ~0.56a).
	WideMargin = 3.2
)

// PKA configures the primary knock-on atom that starts a cascade: the
// simulated equivalent of the irradiation event (DESIGN.md §2).
type PKA struct {
	Energy    float64    // recoil energy in eV (must be positive and finite)
	Direction [3]float64 // initial direction (normalized internally; zero = DefaultPKADirection)
}

// Berendsen configures the optional velocity-rescaling thermostat used
// during equilibration.
type Berendsen struct {
	Target float64 // temperature in K
	Tau    float64 // coupling time in ps
}

// Config fully describes an MD run. The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	Cells [3]int // unit cells per dimension of the global box
	Grid  [3]int // process grid (ranks = product)
	// Cuts, when a dimension is non-nil, are explicit slab boundaries for
	// that dimension of the process grid (lattice.NewGridCuts) — the
	// load-balanced decomposition produced by the repartitioner. Like Grid it
	// is a topology knob: it changes how work is distributed, not which
	// trajectory is physical, and is excluded from Hash.
	Cuts    [3][]int
	A       float64
	Species units.Element
	// CuFraction substitutes the given fraction of lattice atoms with
	// copper (the alloy path of §2.1.2; requires Species == Fe). Placement
	// is derived from the seed, so it is identical across process grids.
	CuFraction float64

	Temperature float64 // initial temperature (K)
	Dt          float64 // time step (ps)
	Steps       int

	Seed uint64

	// Workers is the number of OS worker goroutines the shared-memory force
	// driver (and the host side of the CPE kernel) uses per rank: 0 means
	// runtime.GOMAXPROCS, 1 is the serial reference mode. Results are
	// bit-identical for every value — the driver shards into a fixed number
	// of chunks and reduces them in chunk order (DESIGN.md §9) — so the
	// knob trades wall-clock only.
	Workers int

	Mode        eam.Mode
	TablePoints int
	Skin        float64

	PKA        *PKA       // optional cascade initialization
	Thermostat *Berendsen // optional thermostat
}

// DefaultConfig returns the paper's iron setup at a laptop-scale box size:
// Fe at 600 K, lattice constant 2.855 Å, 1 fs steps, compacted tables.
func DefaultConfig() Config {
	return Config{
		Cells:       [3]int{8, 8, 8},
		Grid:        [3]int{1, 1, 1},
		A:           units.LatticeConstantFe,
		Species:     units.Fe,
		Temperature: 600,
		Dt:          DefaultDt,
		Steps:       100,
		Seed:        1,
		Mode:        eam.Compacted,
		TablePoints: eam.TablePoints,
		Skin:        DefaultSkin,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Cells[d] <= 0 {
			return fmt.Errorf("md: non-positive cell count %v", c.Cells)
		}
		if c.Grid[d] <= 0 {
			return fmt.Errorf("md: non-positive grid %v", c.Grid)
		}
	}
	if !positive(c.A) {
		return fmt.Errorf("md: lattice constant %v is not positive and finite", c.A)
	}
	if !(c.Temperature >= 0) || math.IsInf(c.Temperature, 1) {
		return fmt.Errorf("md: temperature %v is negative or not finite", c.Temperature)
	}
	if !positive(c.Dt) {
		return fmt.Errorf("md: time step %v is not positive and finite", c.Dt)
	}
	if c.Steps < 0 {
		return fmt.Errorf("md: negative step count %d", c.Steps)
	}
	if !positive(c.Skin) {
		return fmt.Errorf("md: skin %v is not positive and finite", c.Skin)
	}
	if c.TablePoints < 8 {
		return fmt.Errorf("md: table resolution %d too small", c.TablePoints)
	}
	if c.Workers < 0 {
		return fmt.Errorf("md: negative worker count %d", c.Workers)
	}
	if !(c.CuFraction >= 0 && c.CuFraction <= 1) {
		return fmt.Errorf("md: copper fraction %v out of range", c.CuFraction)
	}
	if c.CuFraction > 0 && c.Species != units.Fe {
		return fmt.Errorf("md: copper substitution requires an iron host")
	}
	if p := c.PKA; p != nil {
		if !positive(p.Energy) {
			return fmt.Errorf("md: PKA energy %v is not positive and finite", p.Energy)
		}
		if d := p.Direction; !finite(vec.V{X: d[0], Y: d[1], Z: d[2]}) {
			return fmt.Errorf("md: PKA direction %v is not finite", p.Direction)
		}
	}
	return nil
}

// positive reports whether x is positive and finite (NaN is not).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// finite reports whether no component of v is NaN or ±Inf: x·0 is NaN
// exactly for those.
func finite(v vec.V) bool { return !math.IsNaN(v.X*0 + v.Y*0 + v.Z*0) }

// Hash returns a short stable digest of every trajectory-determining
// field. Checkpoint manifests record it so a restart with a diverging
// configuration is refused instead of silently producing a different
// trajectory. Workers is excluded: the force pool (DESIGN.md §9) is a
// documented bit-identical knob, so a run may legally resume with it changed.
// Grid and Cuts are likewise excluded (DESIGN.md §14): topology is
// restart-compatible-but-checked — the manifest records the source topology
// separately and the re-shard loader handles a mismatch, so changing the
// rank count or slab boundaries is not a different physical run.
// TestConfigHashCoversEveryField (repository root) pins this split.
func (c *Config) Hash() string {
	pka := "nil"
	if c.PKA != nil {
		pka = fmt.Sprintf("%+v", *c.PKA)
	}
	th := "nil"
	if c.Thermostat != nil {
		th = fmt.Sprintf("%+v", *c.Thermostat)
	}
	s := fmt.Sprintf("md|cells=%v|a=%v|sp=%d|cu=%v|T=%v|dt=%v|steps=%d|seed=%d|mode=%d|pts=%d|skin=%v|pka=%s|thermo=%s",
		c.Cells, c.A, c.Species, c.CuFraction, c.Temperature, c.Dt,
		c.Steps, c.Seed, c.Mode, c.TablePoints, c.Skin, pka, th)
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// Ranks returns the number of processes the configuration requires.
func (c *Config) Ranks() int { return c.Grid[0] * c.Grid[1] * c.Grid[2] }

// GhostWidth returns the minimum subdomain slab width in cells: the ghost
// reach of the wide neighbor table (cutoff plus the run-away margin). The
// topology choosers (lattice.ChooseGrid, the repartitioner) use it as the
// feasibility constraint so a fitted decomposition never produces a slab
// narrower than its own halo.
func (c *Config) GhostWidth() int {
	cutoff := eam.CutoffOf(c.elements()...)
	l := lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
	return l.NeighborOffsets(cutoff + WideMargin).MaxCellReach()
}

// elements returns the species of the run's potential: Fe, and Cu when the
// run needs the Fe-Cu alloy.
func (c *Config) elements() []units.Element {
	if c.Species == units.Cu || c.CuFraction > 0 {
		return []units.Element{units.Fe, units.Cu}
	}
	return []units.Element{units.Fe}
}

// NumAtoms returns the initial atom count (2 per BCC cell).
func (c *Config) NumAtoms() int { return 2 * c.Cells[0] * c.Cells[1] * c.Cells[2] }
