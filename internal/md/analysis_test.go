package md

import (
	"math"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/rng"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

func TestDefectsOnPerfectLattice(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 0
	runWorld(t, cfg, func(r *Rank) {
		st := r.Defects()
		if st.Vacancies != 0 || st.Runaways != 0 || st.FrenkelPairs != 0 {
			t.Errorf("defects on perfect lattice: %+v", st)
		}
		if st.MaxDisplacement != 0 {
			t.Errorf("max displacement %v on perfect lattice", st.MaxDisplacement)
		}
	})
}

func TestDefectsAfterCascade(t *testing.T) {
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Temperature = 100
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 300}
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 250; i++ {
			r.Step()
		}
		st := r.Defects()
		if st.Vacancies == 0 {
			t.Fatalf("cascade produced no vacancies: %+v", st)
		}
		if st.Vacancies != st.Runaways {
			t.Errorf("vacancies %d != runaways %d", st.Vacancies, st.Runaways)
		}
		if st.FrenkelPairs != st.Vacancies {
			t.Errorf("frenkel pairs %d", st.FrenkelPairs)
		}
		if st.MaxDisplacement <= 0 || st.MaxDisplacement > RunawayThreshold+1e-9 {
			t.Errorf("resident max displacement %v outside (0, threshold]", st.MaxDisplacement)
		}
	})
}

// speciesCount returns the global number of atoms of each species
// (collective); the alloy path's conservation check.
func speciesCount(r *Rank) (fe, cu int) {
	var lfe, lcu float64
	count := func(t units.Element) {
		if t == units.Cu {
			lcu++
		} else {
			lfe++
		}
	}
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		if !r.Store.IsVacancy(local) {
			count(r.Store.Type[local])
		}
		r.Store.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			count(a.Type)
		})
	})
	tot := r.Comm.Allreduce(mpi.Sum, lfe, lcu)
	return int(tot[0] + 0.5), int(tot[1] + 0.5)
}

func TestAlloyMDConservesSpecies(t *testing.T) {
	cfg := smallConfig()
	cfg.CuFraction = 0.1
	cfg.Temperature = 600
	runWorld(t, cfg, func(r *Rank) {
		fe0, cu0 := speciesCount(r)
		if cu0 == 0 {
			t.Fatalf("no copper substituted at 10%%")
		}
		if fe0+cu0 != cfg.NumAtoms() {
			t.Fatalf("species sum %d != atoms %d", fe0+cu0, cfg.NumAtoms())
		}
		for i := 0; i < 40; i++ {
			r.Step()
		}
		fe1, cu1 := speciesCount(r)
		if fe1 != fe0 || cu1 != cu0 {
			t.Errorf("species drifted: Fe %d->%d, Cu %d->%d", fe0, fe1, cu0, cu1)
		}
	})
}

func TestAlloyMDEnergyConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.CuFraction = 0.15
	cfg.Temperature = 300
	cfg.Dt = 1e-3
	runWorld(t, cfg, func(r *Rank) {
		ke0, pe0 := r.TotalEnergy()
		for i := 0; i < 120; i++ {
			r.Step()
		}
		ke1, pe1 := r.TotalEnergy()
		drift := math.Abs((ke1 + pe1) - (ke0 + pe0))
		if perAtom := drift / float64(cfg.NumAtoms()); perAtom > 3e-5 {
			t.Errorf("alloy energy drift %.3g eV/atom", perAtom)
		}
	})
}

func TestAlloyGhostTypesConsistent(t *testing.T) {
	// Ghost copies must carry the same species as the owner's copy.
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 6, 6}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.CuFraction = 0.2
	runWorld(t, cfg, func(r *Rank) {
		r.Step()
		// Every local lattice site — ghost or owned — must match the pure
		// placement rule substituteCopper used.
		base := rng.New(cfg.Seed).Derive(0xC0)
		threshold := uint64(cfg.CuFraction * float64(^uint64(0)))
		for local := 0; local < r.Box.NumLocalSites(); local++ {
			if r.Store.IsVacancy(local) {
				continue
			}
			c := r.Box.GlobalCoord(local)
			gi := uint64(r.L.Index(r.L.Wrap(c)))
			want := units.Fe
			if base.Derive(gi).Uint64() <= threshold {
				want = units.Cu
			}
			if got := r.Store.Type[local]; got != want {
				t.Fatalf("site %+v type %v, placement rule says %v", c, got, want)
			}
		}
		fe, cu := speciesCount(r)
		if fe+cu != cfg.NumAtoms() {
			t.Errorf("species sum %d != %d", fe+cu, cfg.NumAtoms())
		}
	})
}

func TestApplyRecoil(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 0
	runWorld(t, cfg, func(r *Rank) {
		site := lattice.Coord{X: 2, Y: 2, Z: 2, B: 0}
		if ok, err := r.ApplyRecoil(site, 100, vec.V{X: 1}); err != nil || !ok {
			t.Fatalf("recoil not applied to owned site: ok=%v err=%v", ok, err)
		}
		local := r.Box.LocalIndex(site)
		ke := 0.5 * r.Store.Type[local].Mass() * r.Store.Vel[local].Norm2()
		if math.Abs(ke-100) > 1e-9 {
			t.Errorf("recoil kinetic energy %v, want 100 eV", ke)
		}
		// Wrapped out-of-box coordinates are accepted.
		if ok, err := r.ApplyRecoil(lattice.Coord{X: int32(cfg.Cells[0] + 2), Y: 2, Z: 2}, 10, vec.V{X: 1}); err != nil || !ok {
			t.Errorf("wrapped recoil rejected: ok=%v err=%v", ok, err)
		}
	})
}

// TestApplyRecoilRejectsInvalidArguments: a zero or non-finite direction
// used to be silently replaced (or worse, normalized into NaN velocities),
// and a non-positive energy put NaN into the recoil speed. Both must now be
// descriptive errors, with the target atom's velocity untouched.
func TestApplyRecoilRejectsInvalidArguments(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 0
	runWorld(t, cfg, func(r *Rank) {
		site := lattice.Coord{X: 2, Y: 2, Z: 2, B: 0}
		local := r.Box.LocalIndex(site)
		before := r.Store.Vel[local]
		cases := []struct {
			name   string
			energy float64
			dir    vec.V
		}{
			{"zero direction", 100, vec.V{}},
			{"NaN direction", 100, vec.V{X: math.NaN()}},
			{"Inf direction", 100, vec.V{Y: math.Inf(1)}},
			{"zero energy", 0, vec.V{X: 1}},
			{"negative energy", -5, vec.V{X: 1}},
			{"NaN energy", math.NaN(), vec.V{X: 1}},
			{"Inf energy", math.Inf(1), vec.V{X: 1}},
		}
		for _, tc := range cases {
			ok, err := r.ApplyRecoil(site, tc.energy, tc.dir)
			if err == nil || ok {
				t.Errorf("%s: ApplyRecoil = (%v, %v), want a descriptive error", tc.name, ok, err)
			}
		}
		if r.Store.Vel[local] != before {
			t.Errorf("rejected recoils perturbed the velocity: %v -> %v", before, r.Store.Vel[local])
		}
		// A valid recoil after the rejections still works and stays finite.
		if ok, err := r.ApplyRecoil(site, 50, vec.V{X: 1, Y: 1}); err != nil || !ok {
			t.Fatalf("valid recoil after rejections: ok=%v err=%v", ok, err)
		}
		v := r.Store.Vel[local]
		for _, comp := range []float64{v.X, v.Y, v.Z} {
			if math.IsNaN(comp) || math.IsInf(comp, 0) {
				t.Fatalf("recoil velocity not finite: %v", v)
			}
		}
	})
}

// FuzzApplyRecoil drives ApplyRecoil with arbitrary energies and directions
// on a tiny crystal: any call must either return an error or leave the
// target velocity finite — never NaN/Inf in the store.
func FuzzApplyRecoil(f *testing.F) {
	f.Add(100.0, 1.0, 0.35, 0.2)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(-3.5, math.NaN(), 0.0, 1.0)
	f.Add(math.Inf(1), 0.0, math.Inf(-1), 0.0)
	f.Add(1e-300, 1e-300, 0.0, 0.0)
	cfg := smallConfig()
	cfg.Temperature = 0
	cfg.Steps = 0
	f.Fuzz(func(t *testing.T, energy, dx, dy, dz float64) {
		runWorld(t, cfg, func(r *Rank) {
			site := lattice.Coord{X: 2, Y: 2, Z: 2, B: 0}
			local := r.Box.LocalIndex(site)
			ok, err := r.ApplyRecoil(site, energy, vec.V{X: dx, Y: dy, Z: dz})
			if err != nil && ok {
				t.Fatalf("applied despite error %v", err)
			}
			v := r.Store.Vel[local]
			for _, comp := range []float64{v.X, v.Y, v.Z} {
				if math.IsNaN(comp) || math.IsInf(comp, 0) {
					t.Fatalf("energy=%v dir=(%v,%v,%v): non-finite velocity %v (err=%v)",
						energy, dx, dy, dz, v, err)
				}
			}
		})
	})
}

func TestSubstitutionDeterministicAcrossGrids(t *testing.T) {
	// Copper placement must be identical for 1-rank and 2-rank runs.
	count := func(grid [3]int) map[int64]units.Element {
		cfg := smallConfig()
		cfg.Cells = [3]int{8, 6, 6}
		cfg.Grid = grid
		cfg.CuFraction = 0.2
		types := make(map[int64]units.Element)
		mu := make(chan struct{}, 1)
		mu <- struct{}{}
		runWorld(t, cfg, func(r *Rank) {
			local := make(map[int64]units.Element)
			r.Box.EachOwned(func(_ lattice.Coord, l int) {
				if !r.Store.IsVacancy(l) {
					local[r.Store.ID[l]] = r.Store.Type[l]
				}
			})
			<-mu
			for k, v := range local {
				types[k] = v
			}
			mu <- struct{}{}
		})
		return types
	}
	a := count([3]int{1, 1, 1})
	b := count([3]int{2, 1, 1})
	if len(a) != len(b) {
		t.Fatalf("atom counts differ: %d vs %d", len(a), len(b))
	}
	for id, ta := range a {
		if b[id] != ta {
			t.Fatalf("atom %d species differs across grids", id)
		}
	}
}
