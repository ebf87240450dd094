package couple

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// sameTrajectory asserts two coupled results are bit-identical in every
// trajectory-derived quantity: final vacancy sites, event count, clock.
func sameTrajectory(t *testing.T, straight, resumed *Result) {
	t.Helper()
	if resumed.KMCEvents != straight.KMCEvents {
		t.Errorf("event count %d, uninterrupted run had %d", resumed.KMCEvents, straight.KMCEvents)
	}
	if resumed.MCTime != straight.MCTime {
		t.Errorf("MC time %v, uninterrupted run had %v", resumed.MCTime, straight.MCTime)
	}
	if resumed.VacanciesMD != straight.VacanciesMD || resumed.VacanciesKMC != straight.VacanciesKMC {
		t.Errorf("vacancy counts (%d,%d), uninterrupted run had (%d,%d)",
			resumed.VacanciesMD, resumed.VacanciesKMC, straight.VacanciesMD, straight.VacanciesKMC)
	}
	sameSites(t, "before", straight.BeforeSites, resumed.BeforeSites)
	sameSites(t, "after", straight.AfterSites, resumed.AfterSites)
}

func sameSites(t *testing.T, label string, a, b []lattice.Coord) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s-site counts differ: %d vs %d", label, len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s site %d diverged: %+v vs %+v", label, i, a[i], b[i])
			return
		}
	}
}

// crashAndRestart runs cfg to completion once (reference), re-runs it with
// the given fault armed (must die with an InjectedFault), restarts from the
// checkpoint directory, and hands back both results plus the manifest the
// restart resumed from (captured before the restart commits newer ones).
func crashAndRestart(t *testing.T, cfg Config, fault mpi.Fault) (straight, resumed *Result, man *Manifest) {
	t.Helper()
	straight, err := Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	crash := cfg
	crash.Checkpoint.Faults = []mpi.Fault{fault}
	if _, err := Run(crash); err == nil {
		t.Fatalf("fault %v did not kill the run", fault)
	} else {
		var inj mpi.InjectedFault
		if !errors.As(err, &inj) {
			t.Fatalf("crashed run error %v is not the injected fault", err)
		}
	}

	man, err = Latest(cfg.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no snapshot after crash: %v", err)
	}

	restart := cfg
	restart.Checkpoint.Restart = true
	resumed, err = Run(restart)
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	return straight, resumed, man
}

// TestRecoveryFromMDStageFault: a rank killed mid-MD, restarted from the
// latest MD-stage snapshot, reproduces the uninterrupted run bit-exactly.
func TestRecoveryFromMDStageFault(t *testing.T) {
	cfg := coupledConfig()
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 20}
	straight, resumed, man := crashAndRestart(t, cfg,
		mpi.Fault{Rank: 0, Point: mpi.PointMDStep, Step: 50})

	// The crash must have landed after an MD snapshot committed, so the
	// restart genuinely resumed mid-MD.
	if man.Stage != StageMD || man.Step != 40 {
		t.Fatalf("crash at MD step 50 resumed from stage=%q step=%d, want md step 40", man.Stage, man.Step)
	}
	sameTrajectory(t, straight, resumed)
}

// TestRecoveryFromKMCStageFault: a rank killed mid-KMC on a 2-rank world,
// restarted from a KMC-stage snapshot (the MD stage is skipped entirely on
// restart — its summary rides in the manifest), reproduces the
// uninterrupted run bit-exactly.
func TestRecoveryFromKMCStageFault(t *testing.T) {
	cfg := coupledConfig()
	cfg.MD.Cells = [3]int{22, 11, 11}
	cfg.MD.Grid = [3]int{2, 1, 1}
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 8}
	straight, resumed, man := crashAndRestart(t, cfg,
		mpi.Fault{Rank: 1, Point: mpi.PointKMCCycle, Step: 20})

	if man.Stage != StageKMC || man.MD == nil {
		t.Fatalf("crash at KMC cycle 20 resumed from stage=%q md-summary=%v", man.Stage, man.MD != nil)
	}
	if man.Step != 16 {
		t.Errorf("resumed from cycle %d, want 16 (cadence 8, crash at 20)", man.Step)
	}
	sameTrajectory(t, straight, resumed)
}

// TestAtomicCommitSurvivesCheckpointCrash: a crash injected between the
// rank-file writes and the manifest rename must leave the previous snapshot
// loadable and the staging directory ignored.
func TestAtomicCommitSurvivesCheckpointCrash(t *testing.T) {
	cfg := coupledConfig()
	dir := t.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dir, Every: 20}
	straight, err := Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Cadence 20: the step-20 snapshot commits, the step-40 one dies
	// inside the commit window (rank files written, rename pending).
	crash := cfg
	crash.Checkpoint.Faults = []mpi.Fault{{Rank: 0, Point: mpi.PointCheckpointCommit, Step: 40}}
	if _, err := Run(crash); err == nil {
		t.Fatal("commit-window fault did not kill the run")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpDirName)); err != nil {
		t.Errorf("crash inside the commit window left no staging dir: %v", err)
	}
	man, err := Latest(dir, cfg.Hash())
	if err != nil {
		t.Fatalf("previous snapshot unreadable after mid-write crash: %v", err)
	}
	if man == nil || man.Step != 20 || man.Stage != StageMD {
		t.Fatalf("latest snapshot = %+v, want the committed MD step-20 one", man)
	}
	for r := 0; r < man.Ranks; r++ {
		rc, err := man.Open(r)
		if err != nil {
			t.Fatalf("rank %d file of the previous snapshot unreadable: %v", r, err)
		}
		rc.Close()
	}

	restart := cfg
	restart.Checkpoint.Restart = true
	resumed, err := Run(restart)
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	sameTrajectory(t, straight, resumed)
}

// TestLatestSkipsDamagedSnapshot: a newer directory with a corrupt manifest
// or missing rank file is skipped in favor of the older complete snapshot.
func TestLatestSkipsDamagedSnapshot(t *testing.T) {
	cfg := coupledConfig()
	dir := t.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dir, Every: 60}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	man, err := Latest(dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no baseline snapshot: %v", err)
	}

	bad := filepath.Join(dir, "ckpt-999999")
	if err := os.MkdirAll(bad, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, manifestName), []byte("{torn write"), 0o666); err != nil {
		t.Fatal(err)
	}
	got, err := Latest(dir, cfg.Hash())
	if err != nil || got == nil || got.Seq != man.Seq {
		t.Errorf("Latest with damaged newer dir = %+v, %v; want seq %d", got, err, man.Seq)
	}
}

// TestRestartRejectsConfigMismatch: resuming under a configuration whose
// trajectory-determining fields changed must fail loudly, not silently
// diverge.
func TestRestartRejectsConfigMismatch(t *testing.T) {
	cfg := coupledConfig()
	dir := t.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dir, Every: 60}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.MD.Seed++
	changed.Checkpoint.Restart = true
	if _, err := Run(changed); err == nil {
		t.Fatal("restart with a different seed accepted")
	}
	// A bit-identical knob (MD worker count) must NOT invalidate snapshots.
	workers := cfg
	workers.MD.Workers = 3
	workers.Checkpoint.Restart = true
	if _, err := Run(workers); err != nil {
		t.Errorf("restart with a different worker count refused: %v", err)
	}
}

// TestRestartWithEmptyDirStartsFresh: -restart on a first run is not an
// error; it simply starts from scratch.
func TestRestartWithEmptyDirStartsFresh(t *testing.T) {
	cfg := coupledConfig()
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 0, Restart: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VacanciesMD == 0 {
		t.Error("fresh restart produced no cascade")
	}
}

// TestSnapshotRetention: only Keep snapshots survive pruning.
func TestSnapshotRetention(t *testing.T) {
	cfg := coupledConfig()
	dir := t.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dir, Every: 10, Keep: 2}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for _, e := range entries {
		if ckptDirRe.MatchString(e.Name()) {
			committed++
		}
	}
	if committed != 2 {
		t.Errorf("%d committed snapshots retained, want 2", committed)
	}
}

// TestRunReturnsErrorOnBadMDGrid: a grid the MD decomposition cannot carve
// must surface as an error from Run, not a RankPanic escaping to the caller
// (regression: couple.Run used to re-raise the rank's panic).
func TestRunReturnsErrorOnBadMDGrid(t *testing.T) {
	cfg := coupledConfig()
	cfg.MD.Cells = [3]int{2, 2, 2}
	cfg.MD.Grid = [3]int{4, 1, 1}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "exceeds cells") {
		t.Fatalf("Run with grid 4x1x1 over 2x2x2 cells: err=%v, want exceeds-cells error", err)
	}
}

// TestRunReturnsErrorOnThinKMCSubdomain: the same contract for a grid the
// second stage cannot use — Config.Validate refuses it through the derived
// KMC stage's own Validate.
func TestRunReturnsErrorOnThinKMCSubdomain(t *testing.T) {
	cfg := coupledConfig()
	cfg.MD.Cells = [3]int{12, 6, 6}
	cfg.MD.Grid = [3]int{6, 1, 1}
	cfg.MD.Steps = 3
	cfg.MD.PKA = nil
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "thinner than ghost") {
		t.Fatalf("Run with 2-cell KMC subdomain: err=%v, want thinner-than-ghost error", err)
	}
}

// TestRunRejectsKMCInfeasibleGridBeforeMD is the pre-flight contract: a grid
// whose slabs are thinner than the KMC ghost (11 cells over 4 ranks leaves a
// 2-cell slab against a 3-cell halo) is refused before the world starts, so
// no MD step runs and no snapshot is committed. An OKMC campaign has no KMC
// stage, so the same grid, wide enough for MD, runs to completion.
func TestRunRejectsKMCInfeasibleGridBeforeMD(t *testing.T) {
	thin := func(cfg Config) Config {
		cfg.MD.Cells = [3]int{11, 11, 11}
		cfg.MD.Grid = [3]int{4, 1, 1}
		cfg.MD.Steps = 30
		cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 10}
		return cfg
	}
	noSnapshot := func(name string, dir string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "thinner than ghost") {
			t.Errorf("%s: err=%v, want thinner-than-ghost error", name, err)
		}
		if seqs, err := committed(dir); err != nil || len(seqs) != 0 {
			t.Errorf("%s: committed snapshots %v (err %v), want none", name, seqs, err)
		}
	}

	cfg := thin(coupledConfig())
	_, err := Run(cfg)
	noSnapshot("Run", cfg.Checkpoint.Dir, err)

	cfg = thin(campaignConfig())
	cfg.Campaign.Iters = 1
	_, err = RunCampaign(cfg)
	noSnapshot("RunCampaign", cfg.Checkpoint.Dir, err)

	cfg.Campaign.OKMC = true
	cfg.Checkpoint.Dir = t.TempDir()
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("OKMC campaign on the MD-feasible grid: %v", err)
	}
	if res.Iterations != 1 {
		t.Errorf("OKMC campaign ran %d iterations, want 1", res.Iterations)
	}
}
