package mdkmc_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mdkmc"
)

func TestRunMDQuick(t *testing.T) {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{6, 6, 6}
	cfg.Steps = 20
	cfg.TablePoints = 500
	res, err := mdkmc.RunMD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Atoms != 432 {
		t.Errorf("atoms = %d", res.Atoms)
	}
	if res.Kinetic <= 0 {
		t.Errorf("kinetic energy %v", res.Kinetic)
	}
	if res.Potential >= 0 {
		t.Errorf("potential energy %v, want negative (bound crystal)", res.Potential)
	}
	if res.Temperature <= 0 {
		t.Errorf("temperature %v", res.Temperature)
	}
}

func TestRunMDWorkersBitIdentical(t *testing.T) {
	// The public Workers knob is a pure speed knob: the full facade run —
	// energies, temperature, defect census — is bit-identical between the
	// serial reference and a multi-worker pool.
	run := func(workers int) *mdkmc.MDResult {
		cfg := mdkmc.DefaultMDConfig()
		cfg.Cells = [3]int{6, 6, 6}
		cfg.Steps = 10
		cfg.TablePoints = 500
		cfg.Workers = workers
		res, err := mdkmc.RunMD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(3)
	if serial.Kinetic != parallel.Kinetic || serial.Potential != parallel.Potential {
		t.Errorf("energies diverged: serial (%v, %v) vs 3 workers (%v, %v)",
			serial.Kinetic, serial.Potential, parallel.Kinetic, parallel.Potential)
	}
	if serial.Temperature != parallel.Temperature {
		t.Errorf("temperature diverged: %v vs %v", serial.Temperature, parallel.Temperature)
	}
	if serial.Vacancies != parallel.Vacancies {
		t.Errorf("vacancy count diverged: %d vs %d", serial.Vacancies, parallel.Vacancies)
	}
}

func TestRunMDRejectsInvalid(t *testing.T) {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Dt = -1
	if _, err := mdkmc.RunMD(cfg); err == nil {
		t.Errorf("invalid config accepted")
	}
}

func TestRunMDRankConstructionError(t *testing.T) {
	// Validates (all fields positive) but rank construction fails: the
	// process grid exceeds the cell counts, which only NewRank detects. The
	// documented contract is an error return, not a panic, and no deadlock
	// even though every rank dies inside world startup.
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{2, 2, 2}
	cfg.Grid = [3]int{4, 1, 1}
	res, err := mdkmc.RunMD(cfg)
	if err == nil {
		t.Fatal("grid exceeding cells accepted")
	}
	if res != nil {
		t.Errorf("non-nil result alongside error: %+v", res)
	}
	if !strings.Contains(err.Error(), "exceeds cells") {
		t.Errorf("error %q does not carry the rank-construction cause", err)
	}
}

func TestRunKMCRankConstructionError(t *testing.T) {
	// The 6-way split leaves subdomains thinner than the ghost halo;
	// kmc.Config.Validate rejects that before any rank starts. RunKMC must
	// return the error instead of letting a rank panic escape.
	cfg := mdkmc.DefaultKMCConfig()
	cfg.Cells = [3]int{12, 12, 12}
	cfg.Grid = [3]int{6, 1, 1}
	cfg.VacancyConcentration = 0.001
	res, err := mdkmc.RunKMC(cfg, 5, 0)
	if err == nil {
		t.Fatal("subdomain thinner than ghost accepted")
	}
	if res != nil {
		t.Errorf("non-nil result alongside error: %+v", res)
	}
	if !strings.Contains(err.Error(), "thinner than ghost") {
		t.Errorf("error %q does not carry the rank-construction cause", err)
	}
}

func TestRunKMCQuick(t *testing.T) {
	cfg := mdkmc.DefaultKMCConfig()
	cfg.Cells = [3]int{12, 12, 12}
	cfg.VacancyConcentration = 0.003
	res, err := mdkmc.RunKMC(cfg, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vacancies == 0 || res.Events == 0 {
		t.Errorf("vacancies=%d events=%d", res.Vacancies, res.Events)
	}
	if res.MCTime <= 0 || res.RealTimeDays <= 0 {
		t.Errorf("times: mc=%v real=%v", res.MCTime, res.RealTimeDays)
	}
	if len(res.VacancySites) != res.Vacancies {
		t.Errorf("site list %d vs count %d", len(res.VacancySites), res.Vacancies)
	}
}

func TestRunCoupledQuick(t *testing.T) {
	cfg := mdkmc.CoupledConfig{
		MD: func() mdkmc.MDConfig {
			m := mdkmc.DefaultMDConfig()
			m.Cells = [3]int{10, 10, 10}
			m.Temperature = 300
			m.Dt = 2e-4
			m.Steps = 120
			m.TablePoints = 500
			m.PKA = &mdkmc.PKA{Energy: 250}
			return m
		}(),
		KMCCycles: 15,
		Protocol:  mdkmc.ProtocolOnDemand,
	}
	res, err := mdkmc.RunCoupled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VacanciesMD == 0 {
		t.Fatalf("no vacancies from the cascade")
	}
	if res.VacanciesKMC != res.VacanciesMD {
		t.Errorf("vacancy conservation: %d -> %d", res.VacanciesMD, res.VacanciesKMC)
	}
}

func TestTemporalScaleHeadline(t *testing.T) {
	days := mdkmc.TemporalScaleDays(2e-4, 2e-6, 600)
	if math.Abs(days-19.2) > 0.2 {
		t.Errorf("headline temporal scale %.2f days, paper 19.2", days)
	}
}

func TestAnalyzeAndRender(t *testing.T) {
	sites := []mdkmc.Coord{
		{X: 1, Y: 1, Z: 1, B: 0},
		{X: 1, Y: 1, Z: 1, B: 1},
		{X: 4, Y: 4, Z: 4, B: 0},
	}
	a := mdkmc.AnalyzeClusters([3]int{6, 6, 6}, 2.855, sites, 1)
	if a.NumClusters != 2 || a.Largest != 2 {
		t.Errorf("analysis %+v", a)
	}
	img := mdkmc.RenderVacancies([3]int{6, 6, 6}, 2.855, sites, 20, 10)
	if !strings.Contains(img, "1") && !strings.Contains(img, "2") {
		t.Errorf("render shows no vacancies:\n%s", img)
	}
}

// TestRunKMCCheckpointedRestart: the public single-stage checkpoint API —
// crash a run with an injected fault, restart from the snapshot directory,
// and get the uninterrupted run's numbers bit-exactly.
func TestRunKMCCheckpointedRestart(t *testing.T) {
	cfg := mdkmc.DefaultKMCConfig()
	cfg.Cells = [3]int{12, 12, 12}
	cfg.VacancyConcentration = 0.003
	const cycles = 12

	straight, err := mdkmc.RunKMC(cfg, cycles, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ck := mdkmc.Checkpoint{Dir: dir, Every: 4}
	crash := ck
	crash.Faults = []mdkmc.Fault{{Rank: 0, Point: mdkmc.FaultPointKMCCycle, Step: 9}}
	_, err = mdkmc.RunKMCCheckpointed(cfg, cycles, 0, crash)
	var inj mdkmc.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("crashed run returned %v, want the injected fault", err)
	}

	ck.Restart = true
	resumed, err := mdkmc.RunKMCCheckpointed(cfg, cycles, 0, ck)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if resumed.Events != straight.Events || resumed.MCTime != straight.MCTime ||
		resumed.Vacancies != straight.Vacancies {
		t.Errorf("resumed (events=%d t=%v vac=%d) vs straight (events=%d t=%v vac=%d)",
			resumed.Events, resumed.MCTime, resumed.Vacancies,
			straight.Events, straight.MCTime, straight.Vacancies)
	}
	for i, s := range straight.VacancySites {
		if resumed.VacancySites[i] != s {
			t.Fatalf("vacancy site %d diverged: %+v vs %+v", i, resumed.VacancySites[i], s)
		}
	}
}

// TestRunMDCheckpointedRestart: same contract for the MD stage.
func TestRunMDCheckpointedRestart(t *testing.T) {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Steps = 30
	cfg.Dt = 2e-4
	cfg.Temperature = 300
	cfg.TablePoints = 500
	cfg.PKA = &mdkmc.PKA{Energy: 150}

	straight, err := mdkmc.RunMD(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ck := mdkmc.Checkpoint{Dir: dir, Every: 10}
	crash := ck
	crash.Faults = []mdkmc.Fault{{Rank: 0, Point: mdkmc.FaultPointMDStep, Step: 25}}
	_, err = mdkmc.RunMDCheckpointed(cfg, crash)
	var inj mdkmc.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("crashed run returned %v, want the injected fault", err)
	}

	ck.Restart = true
	resumed, err := mdkmc.RunMDCheckpointed(cfg, ck)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if resumed.Kinetic != straight.Kinetic || resumed.Potential != straight.Potential ||
		resumed.Vacancies != straight.Vacancies {
		t.Errorf("resumed (ke=%v pe=%v vac=%d) vs straight (ke=%v pe=%v vac=%d)",
			resumed.Kinetic, resumed.Potential, resumed.Vacancies,
			straight.Kinetic, straight.Potential, straight.Vacancies)
	}
}

// TestCheckpointedRejectsStageMismatch: an MD restart pointed at a KMC
// snapshot directory must refuse up front.
func TestCheckpointedRejectsStageMismatch(t *testing.T) {
	kcfg := mdkmc.DefaultKMCConfig()
	kcfg.Cells = [3]int{12, 12, 12}
	kcfg.VacancyConcentration = 0.003
	dir := t.TempDir()
	if _, err := mdkmc.RunKMCCheckpointed(kcfg, 6, 0, mdkmc.Checkpoint{Dir: dir, Every: 3}); err != nil {
		t.Fatal(err)
	}
	// The hashes differ between an MD and a KMC config, so the mismatch
	// surfaces as a hash error — either way, a loud refusal.
	mcfg := mdkmc.DefaultMDConfig()
	mcfg.Cells = [3]int{8, 8, 8}
	mcfg.Steps = 10
	mcfg.TablePoints = 500
	if _, err := mdkmc.RunMDCheckpointed(mcfg, mdkmc.Checkpoint{Dir: dir, Restart: true}); err == nil {
		t.Fatal("MD restart from a KMC snapshot directory accepted")
	}
}

// TestRunCoupledRejectsCampaignSnapshot: a configuration with a campaign
// block hashes the same whether RunCampaign or RunCoupled receives it, so
// the hash check passes and only the stage check keeps RunCoupled from
// restoring a campaign snapshot as an MD-stage one (resuming at the
// campaign-global step counter).
func TestRunCoupledRejectsCampaignSnapshot(t *testing.T) {
	mcfg := mdkmc.DefaultMDConfig()
	mcfg.Cells = [3]int{16, 8, 8}
	mcfg.Steps = 12
	mcfg.Dt = 2e-4
	mcfg.Temperature = 300
	mcfg.TablePoints = 500
	cfg := mdkmc.CoupledConfig{MD: mcfg, KMCCycles: 4}
	cfg.Campaign = mdkmc.CampaignSpec{Iters: 2, DoseIncrement: 2e-3, Energy: 300}
	cfg.Checkpoint = mdkmc.Checkpoint{Dir: t.TempDir(), Every: 5}
	if _, err := mdkmc.RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint.Restart = true
	_, err := mdkmc.RunCoupled(cfg)
	if err == nil || !strings.Contains(err.Error(), `"campaign"-stage snapshot`) {
		t.Fatalf("coupled restart from a campaign snapshot directory returned %v, want a stage refusal", err)
	}
}
