package mdkmc_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"mdkmc"
)

// Elastic restart through the public single-stage APIs: a checkpoint
// written by a 2-rank run is re-sharded onto the grid ChooseGrid picks for
// the new rank count — the exact path the CLIs' -restart-ranks flag drives.

func sortedSites(s []mdkmc.Coord) []mdkmc.Coord {
	out := append([]mdkmc.Coord(nil), s...)
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

func TestChooseGridPublic(t *testing.T) {
	g, err := mdkmc.ChooseGrid([3]int{22, 11, 11}, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g != [3]int{4, 1, 1} {
		t.Errorf("ChooseGrid(22x11x11, 4 ranks) = %v, want the x-major [4 1 1]", g)
	}
	if _, err := mdkmc.ChooseGrid([3]int{22, 11, 11}, 50, 5); err == nil {
		t.Error("50 ranks over 22x11x11 cells with min width 5 accepted")
	}
}

// TestRunMDCheckpointedElasticRestart: crash a 2-rank cascade, resume on 4
// ranks. The MD engine is bit-identical across decompositions per atom, so
// the defect census matches exactly and the energies agree to summation
// order (the cross-rank reductions regroup); the NVE drift gate guards the
// resumed integration.
func TestRunMDCheckpointedElasticRestart(t *testing.T) {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{22, 11, 11}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Steps = 60
	cfg.Dt = 2e-4
	cfg.Temperature = 300
	cfg.TablePoints = 500
	cfg.PKA = &mdkmc.PKA{Energy: 300}

	straight, err := mdkmc.RunMD(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ck := mdkmc.Checkpoint{Dir: t.TempDir(), Every: 20}
	crash := ck
	crash.Faults = []mdkmc.Fault{{Rank: 1, Point: mdkmc.FaultPointMDStep, Step: 50}}
	_, err = mdkmc.RunMDCheckpointed(cfg, crash)
	var inj mdkmc.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("crashed run returned %v, want the injected fault", err)
	}

	grown := cfg
	grown.Grid, err = mdkmc.ChooseGrid(cfg.Cells, 4, cfg.GhostWidth())
	if err != nil {
		t.Fatal(err)
	}
	ck.Restart = true
	ck.Every = 0
	resumed, err := mdkmc.RunMDCheckpointed(grown, ck)
	if err != nil {
		t.Fatalf("restart onto %v: %v", grown.Grid, err)
	}
	if resumed.Vacancies != straight.Vacancies {
		t.Errorf("defect census %d, uninterrupted run %d", resumed.Vacancies, straight.Vacancies)
	}
	a, b := sortedSites(straight.VacancySites), sortedSites(resumed.VacancySites)
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("vacancy site sets diverged at %d", i)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"kinetic", resumed.Kinetic, straight.Kinetic},
		{"potential", resumed.Potential, straight.Potential},
	} {
		if rel := math.Abs(c.got-c.want) / math.Max(math.Abs(c.want), 1); rel > 1e-12 {
			t.Errorf("%s energy %v, uninterrupted run %v (rel %.2g)", c.name, c.got, c.want, rel)
		}
	}
	// NVE gate on the resumed run: total energy within 2e-5 eV/atom of the
	// reference total (the same bound the conservation property test uses).
	drift := math.Abs((resumed.Kinetic+resumed.Potential)-(straight.Kinetic+straight.Potential)) /
		float64(resumed.Atoms)
	if drift > 2e-5 {
		t.Errorf("resumed-run energy drift %.3g eV/atom", drift)
	}
}

// TestRunKMCCheckpointedElasticRestart: the KMC stage re-sharded from 2
// ranks onto 4. The defect population is conserved exactly; the realization
// follows the new decomposition's RNG streams.
func TestRunKMCCheckpointedElasticRestart(t *testing.T) {
	cfg := mdkmc.DefaultKMCConfig()
	cfg.Cells = [3]int{22, 11, 11}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.VacancyConcentration = 0.003
	const cycles = 12

	straight, err := mdkmc.RunKMC(cfg, cycles, 0)
	if err != nil {
		t.Fatal(err)
	}

	ck := mdkmc.Checkpoint{Dir: t.TempDir(), Every: 4}
	crash := ck
	crash.Faults = []mdkmc.Fault{{Rank: 0, Point: mdkmc.FaultPointKMCCycle, Step: 9}}
	_, err = mdkmc.RunKMCCheckpointed(cfg, cycles, 0, crash)
	var inj mdkmc.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("crashed run returned %v, want the injected fault", err)
	}

	grown := cfg
	grown.Grid, err = mdkmc.ChooseGrid(cfg.Cells, 4, cfg.GhostWidth())
	if err != nil {
		t.Fatal(err)
	}
	ck.Restart = true
	ck.Every = 0
	resumed, err := mdkmc.RunKMCCheckpointed(grown, cycles, 0, ck)
	if err != nil {
		t.Fatalf("restart onto %v: %v", grown.Grid, err)
	}
	if resumed.Vacancies != straight.Vacancies {
		t.Errorf("defect population %d, uninterrupted run %d", resumed.Vacancies, straight.Vacancies)
	}
	if resumed.Cycles != straight.Cycles {
		t.Errorf("ran %d cycles, uninterrupted run %d", resumed.Cycles, straight.Cycles)
	}
	if resumed.MCTime <= 0 || resumed.Events <= 0 {
		t.Errorf("resumed run did not advance: t=%v events=%d", resumed.MCTime, resumed.Events)
	}
}
