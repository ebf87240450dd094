package couple

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/vec"
)

// campaignConfig is the shared laptop-scale campaign: a 16×8×8-cell box
// (2048 atoms; every slab stays above the KMC ghost width of 5 cells on
// 2-rank grids), two iterations of two 300 eV recoils each.
func campaignConfig() Config {
	mcfg := md.DefaultConfig()
	mcfg.Cells = [3]int{16, 8, 8}
	mcfg.Temperature = 300
	mcfg.Dt = 2e-4
	mcfg.Steps = 100
	mcfg.PKA = nil
	mcfg.TablePoints = 500
	cfg := Config{MD: mcfg, KMCCycles: 10, Protocol: kmc.OnDemand}
	// 2048 sites · 2e-3 dpa = 4.1 displacements; ν(300 eV) = 3, so each
	// iteration plans exactly two recoils.
	cfg.Campaign = CampaignSpec{Iters: 2, DoseIncrement: 2e-3, Energy: 300}
	return cfg
}

func TestCampaignEndToEnd(t *testing.T) {
	cfg := campaignConfig()
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 || len(res.Ledger) != 2 {
		t.Fatalf("iterations %d, ledger rows %d, want 2", res.Iterations, len(res.Ledger))
	}
	if res.Recoils+res.Skipped != 4 {
		t.Errorf("recoils %d + skipped %d, want 4 planned", res.Recoils, res.Skipped)
	}
	var dose float64
	for i, row := range res.Ledger {
		if row.Iter != i {
			t.Errorf("ledger row %d has iter %d", i, row.Iter)
		}
		if row.Recoils+row.Skipped != 2 {
			t.Errorf("iteration %d planned %d recoils, want 2", i, row.Recoils+row.Skipped)
		}
		// Each applied 300 eV recoil contributes ν = 3 displacements.
		want := float64(row.Recoils) * 3 / 2048
		if math.Abs(row.DoseInc-want) > 1e-15 {
			t.Errorf("iteration %d dose increment %v, want %v", i, row.DoseInc, want)
		}
		dose += row.DoseInc
		if row.Dose != dose {
			t.Errorf("iteration %d cumulative dose %v, want %v", i, row.Dose, dose)
		}
		if row.NewVacancies == 0 {
			t.Errorf("iteration %d harvested no new vacancies", i)
		}
		if row.Events == 0 {
			t.Errorf("iteration %d executed no KMC events", i)
		}
	}
	if res.Dose != dose {
		t.Errorf("total dose %v, ledger sums to %v", res.Dose, dose)
	}
	if res.MDSteps != 200 {
		t.Errorf("MD steps %d, want 200", res.MDSteps)
	}
	// KMC conserves vacancies: the final population is every distinct MD
	// vacancy handed over, evolved but never created or destroyed — minus
	// the recorded same-site merges.
	if len(res.Population) == 0 || res.Analysis.NumVacancies != len(res.Population) {
		t.Errorf("population %d, analysis counts %d", len(res.Population), res.Analysis.NumVacancies)
	}
	assertPopulationConserved(t, res)
	if !strings.Contains(res.String(), "dpa") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestCampaignSpectrumDraws(t *testing.T) {
	// A two-line spectrum with a dominant low-energy component: the ledger
	// must show only spectrum energies, and the config hash must change
	// with the spectrum.
	spec, err := ReadSpectrum(strings.NewReader("150 3\n600 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaignConfig()
	cfg.Campaign.Spectrum = spec
	base := campaignConfig()
	if cfg.Hash() == base.Hash() {
		t.Fatal("spectrum does not change the config hash")
	}
	if h := base.Hash(); h == (&Config{MD: base.MD, KMCCycles: base.KMCCycles, Protocol: base.Protocol}).Hash() {
		t.Fatal("campaign spec does not change the config hash")
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Ledger {
		if row.Recoils == 0 {
			continue
		}
		// Applied energy must decompose into spectrum entries.
		per := row.EnergyEV / float64(row.Recoils)
		if per < 150 || per > 600 {
			t.Errorf("iteration %d mean applied energy %v outside spectrum range", row.Iter, per)
		}
	}
}

func TestCampaignRejectsConfiguredPKA(t *testing.T) {
	cfg := campaignConfig()
	cfg.MD.PKA = &md.PKA{Energy: 300}
	if _, err := RunCampaign(cfg); err == nil || !strings.Contains(err.Error(), "PKA") {
		t.Fatalf("configured PKA accepted by campaign mode: %v", err)
	}
}

// assertPopulationConserved checks the campaign's exact conservation law:
// every harvested MD vacancy is in the final population except the recorded
// same-site merges.
func assertPopulationConserved(t *testing.T, res *CampaignResult) {
	t.Helper()
	harvested, merged := 0, 0
	for _, row := range res.Ledger {
		harvested += row.NewVacancies
		merged += row.Merged
	}
	pop := len(res.Population)
	if len(res.Objects) > 0 {
		pop = 0
		for _, o := range res.Objects {
			pop += o.Size
		}
	}
	if pop != harvested-merged {
		t.Errorf("population %d, want %d harvested - %d merged = %d",
			pop, harvested, merged, harvested-merged)
	}
}

// ledgerMDPart projects a ledger row onto its MD/dose-derived fields — the
// part that must be identical across topologies and worker counts (the
// anneal's evolved positions, and with them Merged/Population/Events/clock,
// are topology-dependent in atomistic KMC mode).
type ledgerMDPart struct {
	Iter, Recoils, Skipped, NewVacancies int
	EnergyEV, DoseInc, Dose              float64
}

func mdPart(rows []IterationSummary) []ledgerMDPart {
	out := make([]ledgerMDPart, len(rows))
	for i, r := range rows {
		out[i] = ledgerMDPart{r.Iter, r.Recoils, r.Skipped, r.NewVacancies,
			r.EnergyEV, r.DoseInc, r.Dose}
	}
	return out
}

func sameLedgerMDPart(t *testing.T, label string, a, b []IterationSummary) {
	t.Helper()
	pa, pb := mdPart(a), mdPart(b)
	if len(pa) != len(pb) {
		t.Fatalf("%s: ledger lengths %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("%s: ledger row %d diverged: %+v vs %+v", label, i, pa[i], pb[i])
		}
	}
}

func sameCampaign(t *testing.T, label string, a, b *CampaignResult) {
	t.Helper()
	sameLedgerMDPart(t, label, a.Ledger, b.Ledger)
	for i := range a.Ledger {
		if i < len(b.Ledger) && a.Ledger[i] != b.Ledger[i] {
			t.Errorf("%s: full ledger row %d diverged: %+v vs %+v", label, i, a.Ledger[i], b.Ledger[i])
		}
	}
	if a.Dose != b.Dose || a.Recoils != b.Recoils || a.Skipped != b.Skipped {
		t.Errorf("%s: totals (%v,%d,%d) vs (%v,%d,%d)",
			label, a.Dose, a.Recoils, a.Skipped, b.Dose, b.Recoils, b.Skipped)
	}
	if a.Events != b.Events || a.MCTime != b.MCTime {
		t.Errorf("%s: anneal (%d, %v) vs (%d, %v)", label, a.Events, a.MCTime, b.Events, b.MCTime)
	}
	sameSites(t, label+" population", a.Population, b.Population)
	if len(a.Objects) != len(b.Objects) {
		t.Errorf("%s: object counts %d vs %d", label, len(a.Objects), len(b.Objects))
	} else {
		for i := range a.Objects {
			if a.Objects[i] != b.Objects[i] {
				t.Errorf("%s: object %d diverged: %+v vs %+v", label, i, a.Objects[i], b.Objects[i])
			}
		}
	}
}

// TestCampaignDeterministicAcrossWorkers: the per-rank force-pass worker
// count is a pure speed knob — the whole campaign result is bit-identical.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base := campaignConfig()
	base.MD.Workers = 1
	a, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	wide := campaignConfig()
	wide.MD.Workers = 4
	b, err := RunCampaign(wide)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, "workers 1 vs 4", a, b)
}

// TestCampaignDeterministicAcrossGrids: the MD trajectory, recoil plan,
// harvest, and dose ledger are decomposition-blind; the atomistic-KMC anneal
// keys its streams on rank, so only its event count and clock may differ.
func TestCampaignDeterministicAcrossGrids(t *testing.T) {
	serial := campaignConfig()
	a, err := RunCampaign(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := campaignConfig()
	par.MD.Grid = [3]int{2, 1, 1}
	b, err := RunCampaign(par)
	if err != nil {
		t.Fatal(err)
	}
	sameLedgerMDPart(t, "grid 1 vs 2 ranks", a.Ledger, b.Ledger)
	if a.Dose != b.Dose || a.Recoils != b.Recoils || a.Skipped != b.Skipped {
		t.Errorf("dose totals diverged across grids: (%v,%d,%d) vs (%v,%d,%d)",
			a.Dose, a.Recoils, a.Skipped, b.Dose, b.Recoils, b.Skipped)
	}
	// Both populations obey the exact conservation law even though the
	// evolved positions (and thus any same-site merges) differ.
	assertPopulationConserved(t, a)
	assertPopulationConserved(t, b)
}

// TestCampaignOKMCDeterministicAcrossGrids: the OKMC anneal is replicated
// identically on every rank, so campaign results in OKMC mode are
// bit-identical across decompositions — events, clock, and objects included.
func TestCampaignOKMCDeterministicAcrossGrids(t *testing.T) {
	serial := campaignConfig()
	serial.Campaign.OKMC = true
	a, err := RunCampaign(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := campaignConfig()
	par.Campaign.OKMC = true
	par.MD.Grid = [3]int{2, 1, 1}
	par.MD.Workers = 4
	b, err := RunCampaign(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Objects) == 0 || a.Events == 0 {
		t.Fatalf("OKMC campaign produced no objects/events: %+v", a)
	}
	sameCampaign(t, "okmc 1 vs 2 ranks", a, b)
}

// campaignCrashAndRestart mirrors crashAndRestart for campaigns: reference
// run, fault-killed run, restart (optionally onto a different grid).
func campaignCrashAndRestart(t *testing.T, cfg Config, fault mpi.Fault, restartGrid [3]int) (straight, resumed *CampaignResult, man *Manifest) {
	t.Helper()
	straight, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}

	crash := cfg
	crash.Checkpoint.Faults = []mpi.Fault{fault}
	if _, err := RunCampaign(crash); err == nil {
		t.Fatalf("fault %v did not kill the campaign", fault)
	} else {
		var inj mpi.InjectedFault
		if !errors.As(err, &inj) {
			t.Fatalf("crashed campaign error %v is not the injected fault", err)
		}
	}

	man, err = Latest(cfg.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no snapshot after campaign crash: %v", err)
	}

	restart := cfg
	restart.Checkpoint.Restart = true
	if restartGrid != ([3]int{}) {
		restart.MD.Grid = restartGrid
	}
	resumed, err = RunCampaign(restart)
	if err != nil {
		t.Fatalf("restarted campaign: %v", err)
	}
	return straight, resumed, man
}

// TestCampaignRecoveryMidIteration: a rank killed inside the second
// iteration's MD anneal resumes from a mid-iteration snapshot whose pending
// injection is NOT re-applied, and reproduces the uninterrupted campaign
// bit-exactly — the restart-double-injection regression test at campaign
// scope.
func TestCampaignRecoveryMidIteration(t *testing.T) {
	cfg := campaignConfig()
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 30}
	// Iteration 1 spans global steps 101..200; the fault lands at 130 so
	// the newest snapshot is the mid-iteration one at 120.
	straight, resumed, man := campaignCrashAndRestart(t, cfg,
		mpi.Fault{Rank: 0, Point: mpi.PointMDStep, Step: 130}, [3]int{})

	if man.Stage != StageCampaign || man.Step != 120 {
		t.Fatalf("resumed from stage=%q step=%d, want campaign step 120", man.Stage, man.Step)
	}
	camp := man.Campaign
	if camp == nil {
		t.Fatal("campaign manifest lacks the campaign block")
	}
	if camp.Iter != 1 || camp.Pending == nil {
		t.Fatalf("mid-iteration manifest iter=%d pending=%v, want iter 1 with pending injection",
			camp.Iter, camp.Pending != nil)
	}
	if camp.Cursor == 0 {
		t.Error("manifest records no spectrum-RNG cursor")
	}
	if len(camp.Trajectory) != 1 {
		t.Errorf("manifest ledger has %d rows, want 1 completed iteration", len(camp.Trajectory))
	}
	if camp.Dose != straight.Ledger[1].Dose {
		t.Errorf("manifest dose %v, want %v (injection committed at iteration start)",
			camp.Dose, straight.Ledger[1].Dose)
	}
	sameCampaign(t, "mid-iteration restart", straight, resumed)
}

// TestCampaignRecoveryAtBoundary: a crash right after an iteration completes
// resumes from the boundary snapshot (no pending injection) bit-exactly.
func TestCampaignRecoveryAtBoundary(t *testing.T) {
	cfg := campaignConfig()
	// Cadence off the boundary: only the per-iteration boundary snapshot at
	// step 100 exists when the fault fires at 101.
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 1000}
	straight, resumed, man := campaignCrashAndRestart(t, cfg,
		mpi.Fault{Rank: 0, Point: mpi.PointMDStep, Step: 101}, [3]int{})

	if man.Stage != StageCampaign || man.Step != 100 {
		t.Fatalf("resumed from stage=%q step=%d, want campaign step 100", man.Stage, man.Step)
	}
	if man.Campaign.Iter != 1 || man.Campaign.Pending != nil {
		t.Fatalf("boundary manifest iter=%d pending=%v, want iter 1 with no pending",
			man.Campaign.Iter, man.Campaign.Pending != nil)
	}
	if got, want := len(man.Campaign.Population), straight.Ledger[0].Population; got != want {
		t.Errorf("boundary manifest population %d, want %d", got, want)
	}
	sameCampaign(t, "boundary restart", straight, resumed)
}

// TestCampaignElasticRestart: a campaign crashed mid-iteration on two ranks
// restarts onto one rank (re-sharded). The MD trajectory, recoil plan, and
// dose ledger are preserved exactly; populations are conserved.
func TestCampaignElasticRestart(t *testing.T) {
	cfg := campaignConfig()
	cfg.MD.Grid = [3]int{2, 1, 1}
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 30}
	straight, resumed, man := campaignCrashAndRestart(t, cfg,
		mpi.Fault{Rank: 1, Point: mpi.PointMDStep, Step: 130}, [3]int{1, 1, 1})

	if man.Ranks != 2 || man.Topology.Grid != ([3]int{2, 1, 1}) {
		t.Fatalf("snapshot topology %+v ranks=%d, want the 2-rank writer", man.Topology, man.Ranks)
	}
	sameLedgerMDPart(t, "elastic restart", straight.Ledger, resumed.Ledger)
	if straight.Dose != resumed.Dose || straight.Recoils != resumed.Recoils {
		t.Errorf("dose ledger diverged across the re-shard: (%v,%d) vs (%v,%d)",
			straight.Dose, straight.Recoils, resumed.Dose, resumed.Recoils)
	}
	if len(straight.Population) != len(resumed.Population) {
		t.Errorf("population not conserved across the re-shard: %d vs %d",
			len(straight.Population), len(resumed.Population))
	}
}

// TestCampaignElasticRestartOKMC: in OKMC mode the anneal is
// decomposition-blind, so a mid-iteration crash on two ranks restarted onto
// one rank reproduces the ENTIRE campaign bit-exactly — ledger, events,
// clock, and the final object population.
func TestCampaignElasticRestartOKMC(t *testing.T) {
	cfg := campaignConfig()
	cfg.Campaign.OKMC = true
	cfg.MD.Grid = [3]int{2, 1, 1}
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 30}
	straight, resumed, man := campaignCrashAndRestart(t, cfg,
		mpi.Fault{Rank: 0, Point: mpi.PointMDStep, Step: 130}, [3]int{1, 1, 1})

	if man.Stage != StageCampaign {
		t.Fatalf("resumed from stage %q", man.Stage)
	}
	if len(man.Campaign.Objects) == 0 {
		t.Error("mid-campaign OKMC manifest carries no objects")
	}
	sameCampaign(t, "elastic okmc restart", straight, resumed)
}

// TestCampaignRecoilExactlyOnceAtBoundaries (the ownership-handoff sweep):
// recoils aimed at sites on and around the slab cut planes of every grid
// that fits the box must each be applied by exactly one rank — applyRecoils
// fails the run otherwise, and the energy audit below would catch a double
// or dropped injection even if the vote miscounted.
func TestCampaignRecoilExactlyOnceAtBoundaries(t *testing.T) {
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {2, 2, 1}} {
		grid := grid
		mcfg := md.DefaultConfig()
		mcfg.Cells = [3]int{16, 16, 8}
		mcfg.Grid = grid
		mcfg.Temperature = 0
		mcfg.Steps = 1
		mcfg.TablePoints = 500
		if err := mcfg.Validate(); err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		// Recoil sites pinned to the cut planes of the 2-way splits (x=8,
		// y=8) including the off-plane basis atom straddling the cut, plus a
		// corner shared by both cuts and a wrapped coordinate on the
		// periodic seam.
		plan := []recoil{
			{Site: lattice.Coord{X: 8, Y: 2, Z: 2, B: 0}, Energy: 40, Dir: vec.V{X: 1}},
			{Site: lattice.Coord{X: 7, Y: 3, Z: 3, B: 1}, Energy: 40, Dir: vec.V{Y: 1}},
			{Site: lattice.Coord{X: 2, Y: 8, Z: 2, B: 0}, Energy: 40, Dir: vec.V{Z: 1}},
			{Site: lattice.Coord{X: 8, Y: 8, Z: 4, B: 0}, Energy: 40, Dir: vec.V{X: 1, Y: 1}},
			{Site: lattice.Coord{X: 16, Y: 0, Z: 0, B: 0}, Energy: 40, Dir: vec.V{X: 1, Y: 1, Z: 1}}, // wraps to 0,0,0
			{Site: lattice.Coord{X: 15, Y: 15, Z: 7, B: 1}, Energy: 40, Dir: vec.V{X: -1}},
		}
		w := mpi.NewWorld(mcfg.Ranks())
		errs := make([]error, mcfg.Ranks())
		kes := make([]float64, 1)
		w.Run(func(c *mpi.Comm) {
			rank, err := md.NewRank(mcfg, c)
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			before := c.Allreduce(mpi.Sum, md.KineticEnergy(rank.Store))
			inj, err := applyRecoils(c, rank, rank.L, plan)
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			after := c.Allreduce(mpi.Sum, md.KineticEnergy(rank.Store))
			if inj.Recoils != len(plan) || inj.Skipped != 0 {
				errs[c.Rank()] = fmt.Errorf("grid %v: applied %d of %d, skipped %d",
					grid, inj.Recoils, len(plan), inj.Skipped)
				return
			}
			if c.Rank() == 0 {
				kes[0] = after[0] - before[0]
			}
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		want := float64(len(plan)) * 40
		if math.Abs(kes[0]-want) > 1e-9 {
			t.Errorf("grid %v: recoil energy injected %.12g eV, want %g — a recoil was dropped or double-applied",
				grid, kes[0], want)
		}
	}
}
