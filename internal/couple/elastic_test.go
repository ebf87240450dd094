package couple

import (
	"bytes"
	"errors"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// The cross-topology equivalence harness (DESIGN.md §14). A checkpoint
// written by an M-rank Cartesian decomposition is restarted onto N-rank
// topologies — shrink, same, grow, non-power-of-two — and the continued run
// is held against the uninterrupted reference:
//
//   - Same topology: the restart is byte-identical in every
//     trajectory-derived quantity (the pre-existing recovery contract).
//   - Different topology, MD stage: the MD engine is bit-identical across
//     decompositions (per-atom forces sum in lattice-offset order, never
//     boundary order), so the cascade's defect *set* is reproduced exactly;
//     only the rank-concatenated gather order may differ.
//   - Different topology, KMC stage: the defect population is conserved
//     exactly — KMC events move vacancies, never create or destroy them —
//     while the realization follows the new decomposition's (seed, rank,
//     cycle, sector) RNG streams, so event counts legitimately diverge.

// elasticConfig is the matrix workload: a box wide enough along x to carve
// into 4 slabs of at least the KMC ghost width, crashed and re-sharded
// along that axis.
func elasticConfig(t *testing.T) Config {
	cfg := coupledConfig()
	cfg.MD.Cells = [3]int{22, 11, 11}
	cfg.MD.Grid = [3]int{2, 1, 1}
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 20}
	return cfg
}

// targetGrids is the restart topology matrix: shrink to serial, identical,
// doubled, and a non-power-of-two grid.
var targetGrids = []struct {
	name string
	grid [3]int
}{
	{"shrink-1rank", [3]int{1, 1, 1}},
	{"same-2ranks", [3]int{2, 1, 1}},
	{"grow-4ranks", [3]int{4, 1, 1}},
	{"nonpow2-3ranks", [3]int{3, 1, 1}},
}

// canonSites returns the sites in canonical (x,y,z,b) order, so site sets
// gathered under different rank orders compare equal.
func canonSites(s []lattice.Coord) []lattice.Coord {
	out := append([]lattice.Coord(nil), s...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		return a.B < b.B
	})
	return out
}

// sameSiteSet asserts two site lists hold exactly the same sites, ignoring
// gather order.
func sameSiteSet(t *testing.T, label string, a, b []lattice.Coord) {
	t.Helper()
	sameSites(t, label+" (canonical order)", canonSites(a), canonSites(b))
}

// commInvariants checks the communication counters of a restarted run are
// well-formed: non-negative, message/byte counts consistent, and a
// multi-rank world actually communicates.
func commInvariants(t *testing.T, grid [3]int, s mpi.Stats) {
	t.Helper()
	if s.MsgsSent < 0 || s.BytesSent < 0 || s.MsgsRecv < 0 || s.BytesRecv < 0 {
		t.Errorf("grid %v: negative comm counters %+v", grid, s)
	}
	if (s.MsgsSent == 0) != (s.BytesSent == 0) {
		t.Errorf("grid %v: inconsistent send counters %+v", grid, s)
	}
	if grid[0]*grid[1]*grid[2] > 1 && s.MsgsSent == 0 {
		t.Errorf("grid %v: multi-rank run exchanged no messages", grid)
	}
}

// crashRun arms one fault on cfg and requires the run to die with it.
func crashRun(t *testing.T, cfg Config, fault mpi.Fault) {
	t.Helper()
	crash := cfg
	crash.Checkpoint.Faults = []mpi.Fault{fault}
	_, err := Run(crash)
	if err == nil {
		t.Fatalf("fault %v did not kill the run", fault)
	}
	var inj mpi.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("crashed run error %v is not the injected fault", err)
	}
}

// restartOnto resumes cfg's checkpoint directory onto the given process
// grid. Periodic snapshots are disabled on the resumed run so every matrix
// entry restarts from the same snapshot.
func restartOnto(t *testing.T, cfg Config, grid [3]int) *Result {
	t.Helper()
	restart := cfg
	restart.MD.Grid = grid
	restart.Checkpoint.Restart = true
	restart.Checkpoint.Every = 0
	res, err := Run(restart)
	if err != nil {
		t.Fatalf("restart onto grid %v: %v", grid, err)
	}
	return res
}

// TestElasticRestartMDStage: a 2-rank run crashed mid-cascade is restarted
// onto each matrix topology from the same MD-stage snapshot. The identical
// topology reproduces the uninterrupted run byte-exactly; the re-sharded
// topologies reproduce the cascade's defect set exactly and conserve the
// defect population through KMC.
func TestElasticRestartMDStage(t *testing.T) {
	cfg := elasticConfig(t)
	straight, err := Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	crashRun(t, cfg, mpi.Fault{Rank: 0, Point: mpi.PointMDStep, Step: 50})
	man, err := Latest(cfg.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no snapshot after crash: %v", err)
	}
	if man.Stage != StageMD || man.Step != 40 {
		t.Fatalf("resumed from stage=%q step=%d, want md step 40", man.Stage, man.Step)
	}
	if man.Topology.Grid != cfg.MD.Grid {
		t.Fatalf("manifest topology %v, want source grid %v", man.Topology.Grid, cfg.MD.Grid)
	}

	for _, tc := range targetGrids {
		t.Run(tc.name, func(t *testing.T) {
			res := restartOnto(t, cfg, tc.grid)
			if tc.grid == cfg.MD.Grid {
				sameTrajectory(t, straight, res)
				return
			}
			sameSiteSet(t, "cascade defect set", straight.BeforeSites, res.BeforeSites)
			if res.VacanciesMD != straight.VacanciesMD {
				t.Errorf("cascade produced %d vacancies, uninterrupted run %d",
					res.VacanciesMD, straight.VacanciesMD)
			}
			if res.VacanciesKMC != straight.VacanciesKMC {
				t.Errorf("final defect population %d, uninterrupted run %d",
					res.VacanciesKMC, straight.VacanciesKMC)
			}
			if res.KMCCycles != straight.KMCCycles {
				t.Errorf("ran %d KMC cycles, uninterrupted run %d", res.KMCCycles, straight.KMCCycles)
			}
			if res.KMCEvents <= 0 {
				t.Errorf("resumed run recorded no KMC events")
			}
			if len(res.AfterSites) != res.VacanciesKMC {
				t.Errorf("%d after-sites for %d vacancies", len(res.AfterSites), res.VacanciesKMC)
			}
			commInvariants(t, tc.grid, res.CommStats)
		})
	}
}

// TestElasticRestartKMCStage: the same matrix for a crash after the MD→KMC
// handoff. The MD summary rides the manifest verbatim, so even re-sharded
// restarts reproduce the cascade byte-exactly; the KMC defect population is
// conserved exactly under every target topology.
func TestElasticRestartKMCStage(t *testing.T) {
	cfg := elasticConfig(t)
	cfg.Checkpoint.Every = 8
	straight, err := Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	crashRun(t, cfg, mpi.Fault{Rank: 1, Point: mpi.PointKMCCycle, Step: 20})
	man, err := Latest(cfg.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no snapshot after crash: %v", err)
	}
	if man.Stage != StageKMC || man.Step != 16 || man.MD == nil {
		t.Fatalf("resumed from stage=%q step=%d md-summary=%v, want kmc cycle 16 with summary",
			man.Stage, man.Step, man.MD != nil)
	}

	for _, tc := range targetGrids {
		t.Run(tc.name, func(t *testing.T) {
			res := restartOnto(t, cfg, tc.grid)
			if tc.grid == cfg.MD.Grid {
				sameTrajectory(t, straight, res)
				return
			}
			// The summary is copied from the manifest, not regathered:
			// byte-identical including order.
			sameSites(t, "manifest MD summary", straight.BeforeSites, res.BeforeSites)
			if res.VacanciesMD != straight.VacanciesMD || res.VacanciesKMC != straight.VacanciesKMC {
				t.Errorf("defect population (%d,%d), uninterrupted run (%d,%d)",
					res.VacanciesMD, res.VacanciesKMC, straight.VacanciesMD, straight.VacanciesKMC)
			}
			if res.KMCCycles != straight.KMCCycles {
				t.Errorf("ran %d KMC cycles, uninterrupted run %d", res.KMCCycles, straight.KMCCycles)
			}
			commInvariants(t, tc.grid, res.CommStats)
		})
	}
}

// TestLatestLogsDamagedSnapshot: the silent-skip regression. Latest must
// still fall back past a damaged newer snapshot, but the rejection has to
// surface in the log with the snapshot name and the reason.
func TestLatestLogsDamagedSnapshot(t *testing.T) {
	cfg := coupledConfig()
	dir := t.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dir, Every: 60}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "ckpt-999999")
	if err := os.MkdirAll(bad, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, manifestName), []byte("{torn write"), 0o666); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	man, err := Latest(dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("Latest did not fall back past the damaged snapshot: %v", err)
	}
	warned := buf.String()
	if !strings.Contains(warned, "ckpt-999999") || !strings.Contains(warned, "skipping damaged snapshot") {
		t.Errorf("damaged snapshot rejected without a log line; log output:\n%s", warned)
	}
}
