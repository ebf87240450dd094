package couple

import (
	"reflect"

	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// Dynamic load balancing (DESIGN.md §14). Cascade workloads concentrate
// defects — and therefore KMC events and rate-cache work — in a hot core
// around the PKA, while the uniform decomposition spreads ranks evenly over
// the box; telemetry measured the resulting per-rank busy-time imbalance.
// The repartitioner refits the Cartesian slab boundaries to a per-cell cost
// model. The model input is the defect distribution itself (deterministic,
// identically known on every rank after the collective gather), never a
// wall-clock reading: timings are nondeterministic and the decomposition
// must be a pure function of simulation state so that every rank derives
// the same cuts without further agreement. Telemetry's role is calibration
// and verification only — fitting the vacancy weight offline
// (fitVacancyWeight in rebalance_test.go) and measuring the before/after
// imbalance (EXPERIMENTS.md).

// DefaultVacancyWeight is the per-vacancy cost relative to one defect-free
// lattice cell. Calibrated from measured per-rank kmc busy spans on the
// hot-core cascade workload (EXPERIMENTS.md): event selection, rate-cache
// invalidation and ghost traffic all scale with the local vacancy count,
// while defect-free cells cost only their share of the sector sweep.
const DefaultVacancyWeight = 64.0

// Rebalance configures the telemetry-calibrated dynamic load balancer.
// Like Grid and Cuts it is a topology knob, excluded from Config.Hash:
// it redistributes work without changing the physics (defect populations
// are conserved exactly; the KMC realization follows the new
// decomposition's per-rank RNG streams). Every refit weighs a vacancy at
// DefaultVacancyWeight.
type Rebalance struct {
	// Every > 0 turns the balancer on: the KMC stage's slab boundaries are
	// fitted once at the MD→KMC handoff, from the cascade's vacancy
	// distribution, and again every Every cycles as the defect cloud
	// migrates (a campaign fits at each iteration's handoff only). Each
	// refit that changes the cuts rebuilds the KMC state on the new
	// decomposition through a collective gather of the defect sites — the
	// deterministic handoff protocol.
	Every int
}

// fitCuts computes slab boundaries for grid over l that balance the defect
// distribution: each cell costs 1 plus DefaultVacancyWeight per defect site
// it holds. minWidth is the consumer's ghost constraint. Every rank calls it
// with the same gathered site list and obtains the same cuts. An infeasible
// geometry is an error — but only one the uniform split would also have hit
// (the ghost constraint binds both), so callers treat it as fatal.
func fitCuts(l *lattice.Lattice, grid [3]int, minWidth int, sites []lattice.Coord) ([3][]int, error) {
	perCell := make(map[[3]int]int, len(sites))
	for _, s := range sites {
		perCell[[3]int{int(s.X), int(s.Y), int(s.Z)}]++
	}
	mw := [3]int{minWidth, minWidth, minWidth}
	return lattice.FitCuts(l, grid[0], grid[1], grid[2], mw, func(x, y, z int) float64 {
		return 1 + DefaultVacancyWeight*float64(perCell[[3]int{x, y, z}])
	})
}

// rebalanceKMC refits the decomposition to the current defect distribution
// and, when the cuts actually move, rebuilds the KMC state on the new
// decomposition. The handoff is a collective gather of the vacancy and
// copper sites — after it every rank holds the identical global defect
// state, so each derives the same cuts and rebuilds its new subdomain
// without further agreement — followed by a fresh NewState carrying the old
// clock and this rank's cumulative event counter. Densities and rate caches
// are recomputed from the occupancy; the incrementally maintained ρ agrees
// with that recomputation to 1e-9 (TestRhoMatchesFromScratch), not bit for
// bit. Returns st unchanged when the fitted cuts already match. Collective.
func rebalanceKMC(c *mpi.Comm, reg *telemetry.Registry, st *kmc.State, kcfg kmc.Config) (*kmc.State, error) {
	vac := gatherSites(c, st.VacancySites())
	cu := gatherSites(c, st.CuSitesOwned())
	cuts, err := fitCuts(st.L, kcfg.Grid, st.Box.Ghost, vac)
	if err != nil {
		return nil, err
	}
	if reflect.DeepEqual(cuts, st.Grid.Cuts()) {
		return st, nil
	}
	kcfg.Cuts = cuts
	kcfg.Vacancies = globalIndices(st.L, vac)
	kcfg.CuSites = globalIndices(st.L, cu)
	kcfg.VacancyConcentration = 0
	kcfg.CuConcentration = 0
	next, err := kmc.NewState(kcfg, c)
	if err != nil {
		return nil, err
	}
	next.AttachTelemetry(reg)
	next.SetClock(st.Time, st.Cycles, st.Events)
	return next, nil
}
