package md

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/telemetry"
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

// rowStart returns the float offset of owned site o's row in its chunk's
// buffer.
func (ff *ForceField) rowStart(o int) int { return int(ff.row(o)[0] & locFloats) }

// rowLen returns the number of slots owned site o holds.
func (ff *ForceField) rowLen(o int) int { return bitsSet(ff.row(o)[1:]) }

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
				for oi := range ff.revStart {
					n := ff.rowLen(oi)
					held += n
					c := ff.chunkOf(oi)
					want := 0 // a chunk's first row starts its buffer
					if oi > 0 && ff.chunkOf(oi-1) == c {
						want = ff.rowStart(oi-1) + ff.rowLen(oi-1)*ff.slotFloats
					}
					if got := ff.rowStart(oi); got != want {
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
		if perAtom > 550 { // 545 measured; 5 B of slack
			t.Errorf("rank holds %.0f B/atom, want at most 550 (the 6-float stream held 628)", perAtom)
		}
	})
}

// churningCascade is a 500 eV recoil in a hot 6³ box at the production time
// step: rows keep changing, so most steps rebuild some chunks of the
// reverse index, and none rebuilds all of them.
func churningCascade() Config {
	cfg := cascadeConfig()
	cfg.Temperature = 600
	cfg.Dt = DefaultDt
	cfg.PKA = &PKA{Energy: 500}
	return cfg
}

// reverseIndexDiff rebuilds r's reverse index from scratch — empty lists,
// cleared masks and starts, every chunk — and describes the first place
// where the kept index differed from it ("" if nowhere).
func reverseIndexDiff(r *Rank) string {
	ff, s := r.FF, r.Store
	mask, start := slices.Clone(ff.revMask), slices.Clone(ff.revStart)
	var locs [ForceChunks][]uint32
	for c := range locs {
		locs[c] = slices.Clone(ff.revLoc[c][:ff.revUsed[c]])
		ff.revLoc[c] = nil
	}
	clear(ff.revMask)
	clear(ff.revStart)
	for c := 0; c < ForceChunks; c++ {
		lo, hi := s.Box.SpanCells(ForceChunks, c)
		ff.indexPartners(s, c, lo, hi)
	}
	for oi := range start {
		w := ff.maskWords
		if !slices.Equal(mask[oi*w:(oi+1)*w], ff.revMask[oi*w:(oi+1)*w]) {
			return fmt.Sprintf("marks the wrong partner slots of owned site %d", oi)
		}
		if start[oi] != ff.revStart[oi] {
			return fmt.Sprintf("starts owned site %d at entry %d, want %d", oi, start[oi], ff.revStart[oi])
		}
	}
	for c := range locs {
		if !slices.Equal(locs[c], ff.revLoc[c][:ff.revUsed[c]]) {
			return fmt.Sprintf("lists other locations for chunk %d", c)
		}
	}
	return ""
}

func TestKeptReverseIndexIsExact(t *testing.T) {
	// The density reduce keeps each chunk's reverse index until a row it
	// reads changes. After every step the kept index must equal one rebuilt
	// from scratch: on bulk and on a cascade whose chunks keep changing, on
	// 1 and 2 ranks, with 1 and 4 workers, and with multi-word masks.
	bulk := smallConfig()
	bulk.Temperature = 600
	wide := churningCascade()
	wide.Skin = 3.0
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps int
	}{
		{"bulk", bulk, 8},
		{"cascade", churningCascade(), 40},
		{"skin=3.0", wide, 12},
	} {
		for _, ranks := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				cfg := tc.cfg
				cfg.Grid = [3]int{ranks, 1, 1}
				cfg.Workers = workers
				t.Run(fmt.Sprintf("%s/ranks=%d/workers=%d", tc.name, ranks, workers), func(t *testing.T) {
					var rebuilds atomic.Int64
					runWorld(t, cfg, func(r *Rank) {
						if tc.name == "skin=3.0" && r.FF.maskWords < 2 {
							t.Errorf("%d mask words: the skin does not exercise multi-word masks", r.FF.maskWords)
						}
						reg := telemetry.New(r.Comm.Rank())
						r.Pool.AttachTelemetry(reg)
						failed := false
						for i := 0; i < tc.steps; i++ {
							r.Step()
							if d := reverseIndexDiff(r); d != "" && !failed {
								t.Errorf("rank %d, step %d: the kept reverse index %s", r.Comm.Rank(), i+1, d)
								failed = true // keep stepping: the other rank needs the exchanges
							}
						}
						rebuilds.Add(reg.Counter("md/reverse-index/rebuilds").Value())
					})
					if tc.name != "bulk" && rebuilds.Load() == 0 {
						t.Errorf("no chunk was rebuilt; the cascade never invalidated the kept index")
					}
				})
			}
		}
	}
}

func TestReverseIndexRebuildsPerStep(t *testing.T) {
	// md/reverse-index/rebuilds counts the chunks whose reverse index the
	// density reduce rebuilt. A warmed bulk rank's rows do not change, so it
	// rebuilds none; a cascade rebuilds some chunks, but never all 64 on
	// one step.
	bulk := smallConfig()
	bulk.Cells = [3]int{8, 8, 8}
	bulk.Temperature = 600
	perStep := func(cfg Config, warm, steps int) []int64 {
		var out []int64
		runWorld(t, cfg, func(r *Rank) {
			for i := 0; i < warm; i++ {
				r.Step()
			}
			reg := telemetry.New(r.Comm.Rank())
			r.Pool.AttachTelemetry(reg)
			rebuilds := reg.Counter("md/reverse-index/rebuilds")
			for i := 0; i < steps; i++ {
				before := rebuilds.Value()
				r.Step()
				out = append(out, rebuilds.Value()-before)
			}
		})
		return out
	}
	for i, n := range perStep(bulk, 3, 20) {
		if n != 0 {
			t.Errorf("bulk step %d rebuilt %d chunks, want 0", i+1, n)
		}
	}
	counts := perStep(churningCascade(), 0, 40)
	total := int64(0)
	for i, n := range counts {
		total += n
		if n >= ForceChunks {
			t.Errorf("cascade step %d rebuilt all %d chunks", i+1, n)
		}
	}
	t.Logf("cascade: %d rebuilds over %d steps %v", total, len(counts), counts)
	if mean := float64(total) / float64(len(counts)); mean < 1 {
		t.Errorf("cascade rebuilt %.2f chunks per step, want at least 1", mean)
	}
}

func TestForceFieldMemoryBytesCoversEveryArray(t *testing.T) {
	// MemoryBytes charges the struct itself (the per-chunk state is inline)
	// plus, for every slice field and every slice of an array-of-slices
	// field, its capacity times its element size: an array left out of the
	// Fig. 11 capacity figure fails here. Checked on a single-species and an
	// alloy force field, before and after a cascade grows the buffers.
	alloy := churningCascade()
	alloy.CuFraction = 0.05
	for _, cfg := range []Config{churningCascade(), alloy} {
		runWorld(t, cfg, func(r *Rank) {
			for _, steps := range []int{0, 20} {
				for i := 0; i < steps; i++ {
					r.Step()
				}
				want := int(reflect.TypeFor[ForceField]().Size())
				v := reflect.ValueOf(r.FF).Elem()
				for i := 0; i < v.NumField(); i++ {
					f := v.Field(i)
					switch {
					case f.Kind() == reflect.Slice:
						want += f.Cap() * int(f.Type().Elem().Size())
					case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Slice:
						for j := 0; j < f.Len(); j++ {
							want += f.Index(j).Cap() * int(f.Type().Elem().Elem().Size())
						}
					}
				}
				if got := r.FF.MemoryBytes(); got != want {
					t.Errorf("CuFraction %v, after %d steps: MemoryBytes() = %d, want %d", cfg.CuFraction, steps, got, want)
				}
			}
		})
	}
}
