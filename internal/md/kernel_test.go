package md

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// requireIdenticalState asserts bit-exact equality of atoms and energies
// between two world states while ignoring operation counts — the
// optimized and reference kernels produce bitwise-equal physics by design
// (DESIGN.md §13) but count their (very different) table work honestly.
func requireIdenticalState(t *testing.T, label string, want, got worldState) {
	t.Helper()
	if len(got.atoms) != len(want.atoms) {
		t.Fatalf("%s: %d atoms vs %d", label, len(got.atoms), len(want.atoms))
	}
	for id, a := range want.atoms {
		b, ok := got.atoms[id]
		if !ok {
			t.Fatalf("%s: atom %d missing", label, id)
		}
		if a != b {
			t.Fatalf("%s: atom %d diverged:\n  want %+v\n  got  %+v", label, id, a, b)
		}
	}
	for rk := range want.pe {
		if want.pe[rk] != got.pe[rk] {
			t.Fatalf("%s: rank %d PE %v, want bit-equal %v", label, rk, got.pe[rk], want.pe[rk])
		}
	}
}

func TestReferenceKernelEquivalence(t *testing.T) {
	// The tentpole property of the raw-speed pass: the optimized kernel
	// (half-neighbor pair ownership, fused lookups, precomputed embedding
	// derivatives) is bit-identical to the retained full-iteration
	// reference kernel — positions, velocities, forces, densities, and
	// per-rank energy shares — for pure Fe and the Fe-Cu alloy, on one
	// rank and across a 2-rank ghost boundary, through a cascade that
	// produces run-away atoms, for every worker count.
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"fe-1rank", func(c *Config) {}},
		{"fe-2ranks", func(c *Config) {
			c.Cells = [3]int{8, 6, 6}
			c.Grid = [3]int{2, 1, 1}
		}},
		{"fecu-2ranks", func(c *Config) {
			c.Cells = [3]int{8, 6, 6}
			c.Grid = [3]int{2, 1, 1}
			c.CuFraction = 0.25
		}},
		// A box wide enough that the run-aways' chains are within wide
		// reach of only some sites: the others skip the wide walk.
		{"fe-1rank-local-chains", func(c *Config) {
			c.Cells = [3]int{10, 10, 10}
			c.PKA = &PKA{Energy: 2000}
		}},
	}
	const steps = 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Temperature = 600
			cfg.Dt = 2e-4
			cfg.PKA = &PKA{Energy: 120}
			tc.mut(&cfg)
			cfg.Workers = 1
			ref := gatherState(t, cfg, steps, useReferenceKernel)

			// The reference kernel is itself worker-invariant (stats
			// included), like the optimized one.
			cfg.Workers = 7
			requireIdentical(t, tc.name+"/reference-workers=7", ref,
				gatherState(t, cfg, steps, useReferenceKernel))

			for _, workers := range []int{1, 4, 7} {
				cfg.Workers = workers
				got := gatherState(t, cfg, steps, nil)
				requireIdenticalState(t,
					fmt.Sprintf("%s/optimized-workers=%d", tc.name, workers), ref, got)
			}
		})
	}
}

func TestReferenceKernelEquivalenceCPE(t *testing.T) {
	// The same reference-vs-optimized invariance through the CPE kernel:
	// both kernel choices, through both the plain pool and the simulated
	// core group, land on one bitwise trajectory.
	cfg := smallConfig()
	cfg.Temperature = 600
	const steps = 3
	cfg.Workers = 1
	ref := gatherState(t, cfg, steps, useReferenceKernel)
	for _, refKernel := range []bool{false, true} {
		for _, variant := range []KernelVariant{VariantTraditional, VariantFull} {
			cfg.Workers = 4
			got := gatherState(t, cfg, steps, func(r *Rank) {
				r.AttachCPEKernel(variant)
				if refKernel {
					useReferenceKernel(r)
				}
			})
			requireIdenticalState(t,
				fmt.Sprintf("cpe/%v/reference=%v", variant, refKernel), ref, got)
		}
	}
}

func TestEnergyConservationNVEReferenceKernel(t *testing.T) {
	// The NVE drift guard on the retained reference kernel, so the
	// cross-check mode stays a valid integrator in its own right.
	cfg := smallConfig()
	cfg.Temperature = 300
	cfg.Workers = 4
	runWorld(t, cfg, func(r *Rank) {
		useReferenceKernel(r)
		ke0, pe0 := r.TotalEnergy()
		for i := 0; i < 200; i++ {
			r.Step()
		}
		ke1, pe1 := r.TotalEnergy()
		drift := math.Abs((ke1+pe1)-(ke0+pe0)) / float64(r.GlobalAtomCount())
		if drift > 2e-5 {
			t.Errorf("NVE drift %.3g eV/atom over 200 steps", drift)
		}
	})
}

// dimerStore builds a store holding exactly two resident atoms — nearest
// neighbors in the central cell, every other site (ghosts included) a
// vacancy — so each kernel pass's operation counts can be pinned exactly.
func dimerStore(t *testing.T, alloy bool) (*neighbor.Store, *ForceField, int, int) {
	t.Helper()
	l := lattice.New(8, 8, 8, units.LatticeConstantFe)
	grid, err := lattice.NewGrid(l, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pot *eam.Potential
	if alloy {
		pot = eam.NewFeCu(eam.Analytic, 500)
	} else {
		pot = eam.NewFe(eam.Analytic, 500)
	}
	tab := l.NeighborOffsets(pot.Cutoff + WideMargin)
	box := grid.Box(0, tab.MaxCellReach())
	s := neighbor.NewStore(box, tab, units.Fe)
	siteA := box.LocalIndex(lattice.Coord{X: 4, Y: 4, Z: 4, B: 0})
	siteB := box.LocalIndex(lattice.Coord{X: 4, Y: 4, Z: 4, B: 1})
	for local := 0; local < box.NumLocalSites(); local++ {
		if local != siteA && local != siteB {
			s.MakeVacancy(local)
		}
	}
	if alloy {
		s.Type[siteB] = units.Cu
	}
	return s, NewForceField(s, pot, DefaultSkin), siteA, siteB
}

func TestDimerOpStatsExact(t *testing.T) {
	// Regression test for the historical ForcesRange undercount (it
	// recorded 3 lookups per pair while issuing 4, and never counted the
	// per-central embedding evaluation): every kernel pass's exact
	// operation counts on a two-atom dimer, for pure Fe and for a mixed
	// Fe-Cu pair — the counts the CPE cost model charges DMA and compute
	// time from.
	for _, alloy := range []bool{false, true} {
		name := "fe-fe"
		if alloy {
			name = "fe-cu"
		}
		t.Run(name, func(t *testing.T) {
			s, ff, siteA, siteB := dimerStore(t, alloy)
			owned := s.Box.OwnedCells()
			nLocal := s.Box.NumLocalSites()
			// Candidate visits per central: 1 (home) + one per offset.
			vA := int64(1 + len(s.Deltas(0)))
			vB := int64(1 + len(s.Deltas(1)))
			tA := int64(1 + ff.Tight[0])
			tB := int64(1 + ff.Tight[1])
			m := func(fe, cu int64) int64 { // minority count by species case
				if alloy {
					return cu
				}
				return fe
			}

			// Reference kernel: per accepted pair side, 1 density lookup in
			// the density pass and 4 lookups in the force pass, plus 1
			// embedding lookup per central.
			refD := ff.DensitiesRange(s, 0, owned)
			wantRefD := OpStats{Atoms: 2, Pairs: 2, Visits: vA + vB,
				Lookups: 2, MinorityLookups: m(0, 2)}
			if refD != wantRefD {
				t.Errorf("reference density stats %+v, want %+v", refD, wantRefD)
			}
			refF, refE := ff.ForcesRange(s, 0, owned)
			wantRefF := OpStats{Atoms: 2, Pairs: 2, Visits: vA + vB,
				Lookups: 10, MinorityLookups: m(0, 8)}
			if refF != wantRefF {
				t.Errorf("reference force stats %+v, want %+v", refF, wantRefF)
			}
			refRhoA, refRhoB := s.Rho[siteA], s.Rho[siteB]
			refFA, refFB := s.F[siteA], s.F[siteB]

			// Optimized kernel: the gather evaluates the unique pair once
			// through the fused lookup (2 evals same-species, 3 mixed), the
			// fill evaluates each atom's embedding once, and the reduces
			// re-evaluate nothing.
			gather := ff.DensityGatherRange(s, 0, owned)
			wantGather := OpStats{Atoms: 2, Pairs: 1, Visits: tA + tB,
				Lookups: m(2, 3), MinorityLookups: m(0, 3)}
			if gather != wantGather {
				t.Errorf("gather stats %+v, want %+v", gather, wantGather)
			}
			// With no run-aways in the store, the reduce passes walk only
			// the tight prefix (the wide-scan skip), so they visit fewer
			// candidates than the reference kernel's full enumeration.
			reduce := ff.DensityReduceRange(s, 0, owned)
			wantReduce := OpStats{Atoms: 2, Pairs: 2, Visits: tA + tB}
			if reduce != wantReduce {
				t.Errorf("density reduce stats %+v, want %+v", reduce, wantReduce)
			}
			fill := ff.FillEmbeddingRange(s, 0, nLocal)
			wantFill := OpStats{Lookups: 2, MinorityLookups: m(0, 1)}
			if fill != wantFill {
				t.Errorf("fill stats %+v, want %+v", fill, wantFill)
			}
			forceRed, optE := ff.ForceReduceRange(s, 0, owned)
			wantForceRed := OpStats{Atoms: 2, Pairs: 2, Visits: tA + tB}
			if forceRed != wantForceRed {
				t.Errorf("force reduce stats %+v, want %+v", forceRed, wantForceRed)
			}

			// And the physics agrees bitwise between the two kernels.
			if s.Rho[siteA] != refRhoA || s.Rho[siteB] != refRhoB {
				t.Errorf("optimized densities (%v, %v) != reference (%v, %v)",
					s.Rho[siteA], s.Rho[siteB], refRhoA, refRhoB)
			}
			if s.F[siteA] != refFA || s.F[siteB] != refFB {
				t.Errorf("optimized forces diverged from reference")
			}
			if optE != refE {
				t.Errorf("optimized energy %v != reference %v", optE, refE)
			}
		})
	}
}

func TestWideWalkOnlyNearChains(t *testing.T) {
	// One run-away in an otherwise perfect single-rank crystal: in both
	// reduce passes, exactly the sites whose wide reach holds its chain
	// walk the wide table, every other site the tight prefix, and the
	// run-away central the wide table from its anchor.
	l := lattice.New(10, 10, 10, units.LatticeConstantFe)
	grid, err := lattice.NewGrid(l, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pot := eam.NewFe(eam.Analytic, 500)
	tab := l.NeighborOffsets(pot.Cutoff + WideMargin)
	box := grid.Box(0, tab.MaxCellReach())
	s := neighbor.NewStore(box, tab, units.Fe)
	ff := NewForceField(s, pot, DefaultSkin)
	anchor := box.LocalIndex(lattice.Coord{X: 5, Y: 5, Z: 5, B: 0})
	s.AddRunaway(anchor, neighbor.Runaway{
		ID:   int64(l.NumSites()) + 1,
		Type: units.Fe,
		R:    s.R[anchor].Add(vec.V{X: 0.7, Y: 0.7}),
	})

	wide := int64(len(s.Deltas(0)))
	want := wide + 1 // the run-away central
	near := 0
	box.EachOwned(func(c lattice.Coord, local int) {
		reach := local == anchor
		for _, d := range s.Deltas(c.B) {
			reach = reach || local+int(d) == anchor
		}
		if reach {
			near++
			want += int64(len(s.Deltas(c.B))) + 1
		} else {
			want += int64(ff.Tight[c.B]) + 1
		}
	})
	if near != 1+int(wide) {
		t.Fatalf("%d sites reach the chain, want the anchor and its %d wide neighbors", near, wide)
	}

	owned := box.OwnedCells()
	ff.DensityGatherRange(s, 0, owned)
	if got := ff.DensityReduceRange(s, 0, owned).Visits; got != want {
		t.Errorf("density reduce visits %d, want %d", got, want)
	}
	ff.FillEmbeddingRange(s, 0, box.NumLocalSites())
	if got, _ := ff.ForceReduceRange(s, 0, owned); got.Visits != want {
		t.Errorf("force reduce visits %d, want %d", got.Visits, want)
	}
}

func TestCoincidentAtomsCountedAndSticky(t *testing.T) {
	// Distinct atoms at bitwise-identical positions have no defined pair
	// force; both kernels must count every skipped encounter (two per
	// pass: once from each side) and the rank must surface a sticky error
	// instead of silently integrating a corrupted trajectory.
	for _, refKernel := range []bool{false, true} {
		name := "optimized"
		if refKernel {
			name = "reference"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Temperature = 0
			runWorld(t, cfg, func(r *Rank) {
				if refKernel {
					useReferenceKernel(r)
				}
				if err := r.CoincidenceError(); err != nil {
					t.Fatalf("clean world reported coincidence: %v", err)
				}
				local := r.Box.LocalIndex(lattice.Coord{X: 3, Y: 3, Z: 3, B: 0})
				r.Store.AddRunaway(local, neighbor.Runaway{
					ID:   1 << 40,
					Type: r.Store.Type[local],
					R:    r.Store.R[local], // exactly on top of the resident
				})
				r.computeForces()
				if got := r.LastStats.Coincident; got != 4 {
					t.Errorf("Coincident = %d, want 4 (both sides, both passes)", got)
				}
				err := r.CoincidenceError()
				if err == nil {
					t.Fatalf("no sticky coincidence error")
				}
				if !strings.Contains(err.Error(), "coincident") {
					t.Errorf("error %q does not describe the coincidence", err)
				}
				// Sticky: a later clean force computation keeps the error.
				r.Store.RemoveRunaway(local, r.Store.Head[local])
				r.computeForces()
				if r.LastStats.Coincident != 0 {
					t.Errorf("coincidence persisted after removal: %+v", r.LastStats)
				}
				if r.CoincidenceError() == nil {
					t.Errorf("coincidence error was not sticky")
				}
			})
		})
	}
}
