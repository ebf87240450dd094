package md

import (
	"strings"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
)

// cascadeConfig is the TestForcesMatchBruteForceCascade fixture: a 250 eV
// recoil in a 6³ box, which leaves vacancies and run-away chains behind.
func cascadeConfig() Config {
	cfg := smallConfig()
	cfg.Temperature = 100
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 250}
	return cfg
}

// ownedState snapshots every owned atom of one rank by ID.
func ownedState(r *Rank) map[int64]atomState {
	out := make(map[int64]atomState)
	r.Box.EachOwned(func(_ lattice.Coord, li int) {
		if !r.Store.IsVacancy(li) {
			out[r.Store.ID[li]] = atomState{
				r: r.Store.R[li], v: r.Store.Vel[li],
				f: r.Store.F[li], rho: r.Store.Rho[li],
			}
		}
		r.Store.EachRunaway(li, func(_ int32, a *neighbor.Runaway) {
			out[a.ID] = atomState{r: a.R, v: a.Vel, f: a.F, rho: a.Rho}
		})
	})
	return out
}

func streamCaps(ff *ForceField) [2 * ForceChunks]int {
	var caps [2 * ForceChunks]int
	for c := range ff.stream {
		caps[2*c], caps[2*c+1] = cap(ff.stream[c]), cap(ff.revLoc[c])
	}
	return caps
}

func TestResidentCoincidenceCountedAndSticky(t *testing.T) {
	// Two *resident* atoms at bitwise-identical positions: the encounter the
	// mask-driven density reduce no longer meets itself, so the gather must
	// count it for both sides — four in total with the force reduce's two —
	// exactly as the reference kernel does.
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
				a := r.Box.LocalIndex(lattice.Coord{X: 3, Y: 3, Z: 3, B: 0})
				b := r.Box.LocalIndex(lattice.Coord{X: 3, Y: 3, Z: 3, B: 1})
				r.Store.R[b] = r.Store.R[a]
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
			})
		})
	}
}

func TestStreamRowsMatchGather(t *testing.T) {
	// The stream's index is consistent with what the gather reports: all
	// rows together hold one slot per accepted pair, and inside a chunk each
	// row starts where the previous one ended, its length being its mask's
	// bit count.
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps int
	}{
		{"bulk", smallConfig(), 3},
		{"cascade", cascadeConfig(), 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runWorld(t, tc.cfg, func(r *Rank) {
				for i := 0; i < tc.steps; i++ {
					r.Step()
				}
				ff, s := r.FF, r.Store
				gather := ff.DensityGatherRange(s, 0, s.Box.OwnedCells())
				held := 0
				for oi := range ff.rowStart {
					n := ff.rowLen(oi)
					held += n
					c := ff.chunkOf[oi]
					want := 0 // a chunk's first row starts its buffer
					if oi > 0 && ff.chunkOf[oi-1] == c {
						want = int(ff.rowStart[oi-1]) + ff.rowLen(oi-1)*ff.slotFloats
					}
					if got := int(ff.rowStart[oi]); got != want {
						t.Fatalf("site %d (chunk %d): row starts at float %d, want %d", oi, c, got, want)
					}
					if end := want + n*ff.slotFloats; end > len(ff.stream[c]) {
						t.Fatalf("site %d: row ends at float %d beyond chunk %d's %d", oi, end, c, len(ff.stream[c]))
					}
				}
				if int64(held) != gather.Pairs {
					t.Errorf("rows hold %d slots, gather accepted %d pairs", held, gather.Pairs)
				}
			})
		})
	}
}

func TestKernelRoundsDoNotAllocate(t *testing.T) {
	// Steady state allocates nothing: a whole sweep of the production round
	// table over a warmed bulk rank — gather (which appends to the stream),
	// density reduce (which appends to the reverse index), fill, pair round
	// and force reduce, all 64 chunks each — mallocs zero times.
	// TestBulkStepDoesNotAllocate extends this to the whole step.
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Temperature = 600
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 3; i++ {
			r.Step()
		}
		rounds := append(append([]round(nil), r.FF.rounds.density...), r.FF.rounds.force...)
		sweep := func() {
			for ri := range rounds {
				for i := 0; i < ForceChunks; i++ {
					rounds[ri].chunk(r.FF, r.Store, i, nil)
				}
			}
		}
		if n := testing.AllocsPerRun(5, sweep); n != 0 {
			t.Errorf("a kernel sweep allocates %v times on a warmed bulk rank, want 0", n)
		}
	})
}

func TestBulkStepDoesNotAllocate(t *testing.T) {
	// A whole velocity-Verlet step of a warmed 1-rank, serial-pool bulk
	// rank — integration, ghost exchange, relink and both force passes
	// through ForcePool.run — mallocs zero times; md.allocs_per_step on
	// md-bulk is this count.
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Temperature = 600
	cfg.Workers = 1
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 3; i++ {
			r.Step()
		}
		if n := testing.AllocsPerRun(5, r.Step); n != 0 {
			t.Errorf("a bulk step allocates %v times, want 0", n)
		}
	})
}

func TestStreamGrowsFromNothing(t *testing.T) {
	// Buffers started at capacity 0 force every chunk through growStream
	// and growRevLoc, across a cascade that keeps changing what each row
	// and each reverse index holds. The result must still be the reference
	// kernel's, bit for bit, and once the state stops changing the
	// capacities must too.
	runWorld(t, cascadeConfig(), func(r *Rank) {
		for c := range r.FF.stream {
			r.FF.stream[c] = nil
			r.FF.revLoc[c] = nil
		}
		for i := 0; i < 120; i++ {
			r.Step()
		}
		if CountOwnedRunaways(r.Store) == 0 {
			t.Fatalf("cascade left no run-aways; the comparison would be trivial")
		}
		got, gotPE := ownedState(r), r.LastPE
		caps, bytes := streamCaps(r.FF), r.FF.MemoryBytes()
		r.computeForces()
		if streamCaps(r.FF) != caps || r.FF.MemoryBytes() != bytes {
			t.Errorf("stream capacities changed on an unchanged state")
		}
		useReferenceKernel(r)
		want := ownedState(r)
		if len(got) != len(want) {
			t.Fatalf("%d atoms vs reference %d", len(got), len(want))
		}
		for id, a := range want {
			if got[id] != a {
				t.Fatalf("atom %d diverged from the reference kernel:\n  want %+v\n  got  %+v", id, a, got[id])
			}
		}
		if gotPE != r.LastPE {
			t.Errorf("PE %v, reference %v", gotPE, r.LastPE)
		}
	})
}

func TestWideSkinMatchesReference(t *testing.T) {
	// A skin that pushes the tight prefix past 64 offsets needs more than
	// one mask word per site; such a config validates and must still build
	// and agree with the reference kernel through a small cascade.
	cfg := smallConfig()
	cfg.Temperature = 600
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 120}
	cfg.Skin = 3.0
	const steps = 6
	ref := gatherState(t, cfg, steps, useReferenceKernel)
	got := gatherState(t, cfg, steps, func(r *Rank) {
		if r.FF.Tight[0] <= 64 || r.FF.maskWords < 2 {
			t.Errorf("tight prefix %v in %d mask words: the skin does not exercise the multi-word mask",
				r.FF.Tight, r.FF.maskWords)
		}
	})
	requireIdenticalState(t, "skin=3.0", ref, got)
}

func TestRankMemoryPerAtom(t *testing.T) {
	// The deterministic stand-in for the md-bulk peak-RSS claim: what a 20³
	// rank holds per atom. The fixed-stride pair cache put this at ~1,525 B
	// and the 6-float pair stream at 628 B; 4-float single-species slots
	// pay for the reverse index and the lower mask, so a slot or an index
	// regrowing fails here.
	cfg := DefaultConfig()
	cfg.Cells = [3]int{20, 20, 20}
	cfg.Temperature = 600
	cfg.Workers = 1
	runWorld(t, cfg, func(r *Rank) {
		perAtom := float64(r.MemoryBytes()) / float64(CountOwnedAtoms(r.Store))
		t.Logf("rank holds %.0f B/atom (force field %.0f)", perAtom,
			float64(r.FF.MemoryBytes())/float64(CountOwnedAtoms(r.Store)))
		if perAtom > 560 {
			t.Errorf("rank holds %.0f B/atom, want at most 560 (the 6-float stream held 628)", perAtom)
		}
	})
}
