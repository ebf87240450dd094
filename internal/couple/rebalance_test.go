package couple

import (
	"math"
	"testing"

	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// plantedKMCConfig builds a 2-rank KMC workload whose vacancies all sit in
// the low-x quarter of the box — the synthetic hot core the repartitioner
// must react to. Deterministic: explicit site indices, no concentrations.
func plantedKMCConfig() (kmc.Config, int) {
	kcfg := kmc.DefaultConfig()
	kcfg.Cells = [3]int{24, 6, 6}
	kcfg.Grid = [3]int{2, 1, 1}
	kcfg.VacancyConcentration = 0
	l := lattice.New(kcfg.Cells[0], kcfg.Cells[1], kcfg.Cells[2], kcfg.A)
	var vacs []int
	for x := int32(0); x < 5; x++ {
		for y := int32(0); y < 6; y += 2 {
			for z := int32(0); z < 6; z += 2 {
				vacs = append(vacs, l.Index(lattice.Coord{X: x, Y: y, Z: z, B: 0}))
			}
		}
	}
	kcfg.Vacancies = vacs
	return kcfg, len(vacs)
}

// TestRebalanceKMCShiftsCutsTowardHotCore: with every vacancy planted in the
// low-x quarter, the fitted x boundary must move below the uniform midpoint
// (ranks concentrate on the defect cloud), the defect population must be
// conserved exactly through the handoff, and the rebuilt state must keep
// cycling. Both ranks must derive the identical decomposition.
func TestRebalanceKMCShiftsCutsTowardHotCore(t *testing.T) {
	kcfg, nvac := plantedKMCConfig()
	rb := Rebalance{Every: 1}
	cutsCh := make(chan int, 2)
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		st, err := kmc.NewState(kcfg, c)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			st.Cycle()
		}
		clockBefore, cyclesBefore := st.Time, st.Cycles
		next, err := rebalanceKMC(c, nil, st, kcfg, rb)
		if err != nil {
			panic(err)
		}
		if next == st {
			t.Error("rebalance left the uniform decomposition in place despite the hot core")
		}
		if got := next.GlobalVacancyCount(); got != nvac {
			t.Errorf("rebalance changed the defect population: %d, want %d", got, nvac)
		}
		if next.Time != clockBefore || next.Cycles != cyclesBefore {
			t.Errorf("rebalance moved the clock: t=%v cycles=%d, want t=%v cycles=%d",
				next.Time, next.Cycles, clockBefore, cyclesBefore)
		}
		cutsCh <- next.Grid.Cuts()[0][1]
		for i := 0; i < 2; i++ {
			next.Cycle()
		}
		if got := next.GlobalVacancyCount(); got != nvac {
			t.Errorf("cycling the rebalanced state changed the population: %d, want %d", got, nvac)
		}
	})
	a, b := <-cutsCh, <-cutsCh
	if a != b {
		t.Fatalf("ranks derived different x boundaries: %d vs %d", a, b)
	}
	if a >= 12 {
		t.Errorf("x boundary %d did not move toward the hot core (uniform is 12)", a)
	}
}

// TestRebalancedCheckpointRestartsAcrossTopologies: rebalancing, snapshots
// and elastic restart compose. A coupled run with the load balancer on is
// crashed mid-KMC; its snapshot records the fitted (possibly non-uniform)
// cuts, and a restart without rebalancing onto a different grid re-shards
// from that rectilinear source and conserves the defect population.
func TestRebalancedCheckpointRestartsAcrossTopologies(t *testing.T) {
	cfg := elasticConfig(t)
	cfg.Checkpoint.Every = 8
	cfg.Rebalance = Rebalance{Handoff: true, Every: 4}
	straight, err := Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted rebalanced run: %v", err)
	}
	if straight.VacanciesKMC != straight.VacanciesMD {
		t.Fatalf("rebalanced run changed the population: %d -> %d",
			straight.VacanciesMD, straight.VacanciesKMC)
	}
	crashRun(t, cfg, mpi.Fault{Rank: 0, Point: mpi.PointKMCCycle, Step: 20})
	man, err := Latest(cfg.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil || man.Stage != StageKMC {
		t.Fatalf("no KMC-stage snapshot after crash: man=%+v err=%v", man, err)
	}

	restart := cfg
	restart.Rebalance = Rebalance{}
	restart.MD.Grid = [3]int{3, 1, 1}
	restart.Checkpoint.Restart = true
	restart.Checkpoint.Every = 0
	res, err := Run(restart)
	if err != nil {
		t.Fatalf("restart of a rebalanced snapshot onto 3 ranks: %v", err)
	}
	if res.VacanciesKMC != straight.VacanciesKMC {
		t.Errorf("restarted population %d, uninterrupted run %d",
			res.VacanciesKMC, straight.VacanciesKMC)
	}
	sameSites(t, "manifest MD summary", straight.BeforeSites, res.BeforeSites)
}

// TestRebalanceHandoffPreservesCoupledPhysics: the handoff fit is a pure
// topology change — the cascade's defect set and the conserved population
// match a run without the balancer.
func TestRebalanceHandoffPreservesCoupledPhysics(t *testing.T) {
	cfg := coupledConfig()
	cfg.MD.Cells = [3]int{22, 11, 11}
	cfg.MD.Grid = [3]int{2, 1, 1}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = Rebalance{Handoff: true}
	fitted, err := Run(cfg)
	if err != nil {
		t.Fatalf("run with handoff rebalance: %v", err)
	}
	sameSiteSet(t, "cascade defect set", plain.BeforeSites, fitted.BeforeSites)
	if fitted.VacanciesKMC != plain.VacanciesKMC {
		t.Errorf("handoff fit changed the population: %d, want %d",
			fitted.VacanciesKMC, plain.VacanciesKMC)
	}
	if fitted.KMCCycles != plain.KMCCycles {
		t.Errorf("handoff fit changed the cycle count: %d, want %d",
			fitted.KMCCycles, plain.KMCCycles)
	}
}

// fitVacancyWeight calibrates the cost model from measurement: given each
// rank's busy time (seconds, from the telemetry kmc phase spans), owned cell
// count and owned vacancy count, it least-squares fits
//
//	busy_r ≈ a·cells_r + b·vacs_r
//
// and returns b/a — the measured cost of one vacancy in units of one
// defect-free cell, the quantity Rebalance.VacancyWeight expects. It returns
// 0 (caller keeps the default) when the fit is degenerate: fewer than two
// ranks, no vacancies, or a non-positive base cost.
func fitVacancyWeight(busy []float64, cells, vacs []int) float64 {
	if len(busy) < 2 || len(cells) != len(busy) || len(vacs) != len(busy) {
		return 0
	}
	// Normal equations for the two-parameter linear model without intercept.
	var scc, scv, svv, sct, svt float64
	for i := range busy {
		c, v, t := float64(cells[i]), float64(vacs[i]), busy[i]
		scc += c * c
		scv += c * v
		svv += v * v
		sct += c * t
		svt += v * t
	}
	det := scc*svv - scv*scv
	if det == 0 {
		return 0
	}
	a := (svv*sct - scv*svt) / det
	b := (scc*svt - scv*sct) / det
	if a <= 0 || b <= 0 {
		return 0
	}
	return b / a
}

// TestFitVacancyWeightRecoversPlantedRatio: synthetic per-rank busy times
// built from a known cost model must return exactly its vacancy/cell ratio.
func TestFitVacancyWeightRecoversPlantedRatio(t *testing.T) {
	const a, b = 2.5e-6, 1.6e-4 // planted: one vacancy costs 64 cells
	cells := []int{1000, 1000, 1000, 1000}
	vacs := []int{120, 4, 0, 36}
	busy := make([]float64, len(cells))
	for i := range busy {
		busy[i] = a*float64(cells[i]) + b*float64(vacs[i])
	}
	got := fitVacancyWeight(busy, cells, vacs)
	if math.Abs(got-b/a) > 1e-6*(b/a) {
		t.Errorf("fitted weight %v, want %v", got, b/a)
	}
}

// TestFitVacancyWeightDegenerateInputs: anything the normal equations cannot
// support returns 0, telling the caller to keep the default weight.
func TestFitVacancyWeightDegenerateInputs(t *testing.T) {
	cases := []struct {
		name  string
		busy  []float64
		cells []int
		vacs  []int
	}{
		{"too-few-ranks", []float64{1}, []int{10}, []int{1}},
		{"length-mismatch", []float64{1, 2}, []int{10}, []int{1, 2}},
		{"no-vacancies", []float64{1, 1}, []int{10, 10}, []int{0, 0}},
		{"negative-weight", []float64{10, 1}, []int{10, 10}, []int{0, 9}},
	}
	for _, tc := range cases {
		if got := fitVacancyWeight(tc.busy, tc.cells, tc.vacs); got != 0 {
			t.Errorf("%s: fitVacancyWeight = %v, want 0", tc.name, got)
		}
	}
}
