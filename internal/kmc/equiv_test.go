package kmc

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/rng"
)

// event is one possible vacancy hop: the atom at target moves into the
// vacancy at site.
type event struct {
	site   int // owned vacancy, local index
	target int // occupied 1NN, local index (possibly a ghost)
	rate   float64
}

// swapDeltaERef is the reference ΔE the production swapDeltaE must equal
// bit for bit: the pre-stencil implementation, which collects the bystander
// density bumps of both shells per call, sorts them by site, merges the
// sites near both s and n, and evaluates every embedding term through the
// potential with no memo. It shares only the shell tables and the flat
// deltas with the code under test.
func swapDeltaERef(st *State, s, n int, cs, cn lattice.Coord) float64 {
	e := &st.en
	occ, rho := st.Occ, st.Rho
	m := occ[n] // species of the moving atom

	var dPair float64
	// Pair sums around the destination s (gains) and origin n (losses).
	for k, d := range st.deltas[cs.B] {
		j := s + int(d)
		if j != n && occ[j] != Vacant {
			dPair += e.shells.phi[m][occ[j]][cs.B][k]
		}
	}
	for k, d := range st.deltas[cn.B] {
		j := n + int(d)
		if j != s && occ[j] != Vacant {
			dPair -= e.shells.phi[m][occ[j]][cn.B][k]
		}
	}

	// Embedding changes of the bystanders: every occupied site i near s
	// gains f_m(r_is); every occupied site i near n loses f_m(r_in).
	// Collect the deltas first because a site can neighbor both.
	type bump struct {
		site  int
		delta float64
	}
	bumps := make([]bump, 0, 128)
	fm := e.shells.f[m]
	for k, d := range st.deltas[cs.B] {
		j := s + int(d)
		if j != n && occ[j] != Vacant {
			bumps = append(bumps, bump{j, fm[cs.B][k]})
		}
	}
	for k, d := range st.deltas[cn.B] {
		j := n + int(d)
		if j != s && occ[j] != Vacant {
			bumps = append(bumps, bump{j, -fm[cn.B][k]})
		}
	}
	// Merge duplicates (sites near both s and n) in deterministic site
	// order, so the floating-point sum is reproducible across protocols.
	sort.Slice(bumps, func(i, j int) bool { return bumps[i].site < bumps[j].site })
	var dEmbed float64
	for i := 0; i < len(bumps); {
		site := bumps[i].site
		delta := 0.0
		for ; i < len(bumps) && bumps[i].site == site; i++ {
			delta += bumps[i].delta
		}
		if delta != 0 {
			dEmbed += e.embed(occ[site], rho[site]+delta) - e.embed(occ[site], rho[site])
		}
	}

	// The moving atom itself: before, embedded at n; after, at s with n
	// vacated. Density contributions depend on the *sources* around it.
	rhoBefore := rho[n] // ρ at n excludes n itself by construction
	rhoAfter := 0.0
	for k, d := range st.deltas[cs.B] {
		j := s + int(d)
		if j != n && occ[j] != Vacant {
			rhoAfter += e.shells.f[occ[j]][cs.B][k]
		}
	}
	dEmbed += e.embed(m, rhoAfter) - e.embed(m, rhoBefore)
	return dPair + dEmbed
}

// checkSwapDeltaE compares swapDeltaE with swapDeltaERef, bit for bit, for
// every owned vacancy and every occupied first-shell target of the state,
// and returns the number of hops compared.
func checkSwapDeltaE(t *testing.T, st *State) int {
	t.Helper()
	hops := 0
	for _, v := range st.OwnedVacancies() {
		cv := st.Box.GlobalCoord(v)
		for k, d := range st.shell1[cv.B] {
			n := v + int(d)
			if st.Occ[n] == Vacant {
				continue
			}
			cn := st.Tab.PerBase[cv.B][k].Apply(cv)
			want := swapDeltaERef(st, v, n, cv, cn)
			// Twice: the second call reads the embedding memo the first filled.
			for pass := 0; pass < 2; pass++ {
				got := st.en.swapDeltaE(st, v, n, cv, cn)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rank %d hop %d->%d (pass %d): swapDeltaE %v (%#x), reference %v (%#x)",
						st.Comm.Rank(), v, n, pass, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			hops++
		}
	}
	return hops
}

// TestSwapDeltaEMatchesReference pins ΔE's bits against an oracle that is
// not the code under test.
func TestSwapDeltaEMatchesReference(t *testing.T) {
	dilute := testConfig()
	dilute.Cells = [3]int{14, 14, 14}
	alloy := testConfig()
	alloy.VacancyConcentration = 0.004
	alloy.CuConcentration = 0.03
	alloy.EmCu = 0.55
	// 6 cells against a 3-cell halo: every cell has self-images on every
	// axis, and most bystander shells cross the periodic boundary.
	selfImage := testConfig()
	selfImage.Cells = [3]int{6, 8, 6}
	selfImage.VacancyConcentration = 0.02
	tworank := testConfig()
	tworank.Cells = [3]int{22, 11, 11}
	tworank.Grid = [3]int{2, 1, 1}
	tworank.VacancyConcentration = 0.01

	for _, tc := range []struct {
		name   string
		cfg    Config
		cycles int
	}{
		{"dilute-Fe", dilute, 0},
		{"FeCu-alloy", alloy, 0},
		{"self-images", selfImage, 0},
		{"self-images-evolved", selfImage, 30},
		{"2x1x1-after-50-cycles", tworank, 50},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			hops := make([]int, tc.cfg.Ranks())
			ghostHops := make([]int, tc.cfg.Ranks()) // hops whose target is a ghost site
			runWorld(t, tc.cfg, func(st *State) {
				for i := 0; i < tc.cycles; i++ {
					st.Cycle()
				}
				hops[st.Comm.Rank()] = checkSwapDeltaE(t, st)
				for _, v := range st.OwnedVacancies() {
					for _, d := range st.shell1[v&1] {
						if n := v + int(d); st.Occ[n] != Vacant && !st.Box.Owns(st.Box.GlobalCoord(n)) {
							ghostHops[st.Comm.Rank()]++
						}
					}
				}
			})
			for r, n := range hops {
				if n < 20 {
					t.Errorf("rank %d compared only %d hops", r, n)
				}
				if tc.cfg.Ranks() > 1 && ghostHops[r] == 0 {
					t.Errorf("rank %d has no hop into the halo: boundary vacancies not covered", r)
				}
			}
		})
	}
}

// sectorEvents enumerates, in deterministic order, every possible event
// whose vacancy lies in sector sec, and returns the events plus their total
// rate — steps #3/#4 of the paper's Figure 7 flowchart. It is the reference
// full-rescan enumeration: the hot path reads the incremental cache
// (events.go) instead, and the property test below asserts the two agree
// bit-exactly after arbitrary ghost updates.
func (st *State) sectorEvents(sec int) ([]event, float64) {
	var evs []event
	var total float64
	for _, v := range st.OwnedVacancies() {
		cv := st.Box.GlobalCoord(v)
		if st.sectorOf(cv) != sec {
			continue
		}
		basis := int8(v & 1)
		for k, d := range st.shell1[basis] {
			n := v + int(d)
			if st.Occ[n] == Vacant {
				continue // vacancy-vacancy exchange is a no-op
			}
			off := st.Tab.PerBase[basis][k]
			cn := off.Apply(cv)
			dE := swapDeltaERef(st, v, n, cv, cn)
			rate := hopRate(st.Cfg.Nu, st.emFor(st.Occ[n]), st.kBT, dE)
			evs = append(evs, event{site: v, target: n, rate: rate})
			total += rate
		}
	}
	return evs, total
}

// trajectory captures everything the incremental-vs-rescan equivalence
// asserts: the merged occupancy snapshot, total executed events, and the
// Monte Carlo clock.
type trajectory struct {
	snap   map[int]uint8
	events int
	time   float64
}

// runTrajectory executes cycles KMC cycles across cfg.Ranks() ranks and
// merges the per-rank results. With rescan set every rank runs in the
// full-rescan reference mode: each selection recomputes every candidate
// rate from scratch instead of reading the incremental cache.
func runTrajectory(t *testing.T, cfg Config, cycles int, rescan bool) trajectory {
	t.Helper()
	tr := trajectory{snap: make(map[int]uint8)}
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := NewState(cfg, c)
		if err != nil {
			panic(err)
		}
		st.fullRescan = rescan
		events := 0
		for i := 0; i < cycles; i++ {
			events += st.Cycle()
		}
		snap := st.Snapshot()
		<-mu
		for k, v := range snap {
			tr.snap[k] = v
		}
		tr.events += events
		tr.time = st.Time
		mu <- struct{}{}
	})
	return tr
}

// TestIncrementalMatchesRescan is the tentpole equivalence property: with
// the event-rate cache on, trajectories (snapshot, event count, clock) are
// bit-identical to the full-rescan reference, over multi-rank runs, every
// protocol, and both the Fe and Fe-Cu systems.
func TestIncrementalMatchesRescan(t *testing.T) {
	type variant struct {
		name  string
		cells [3]int
		grid  [3]int
		proto Protocol
		alloy bool
	}
	variants := []variant{
		{"2x2x1-traditional-Fe", [3]int{22, 22, 11}, [3]int{2, 2, 1}, Traditional, false},
		{"2x2x1-ondemand-Fe", [3]int{22, 22, 11}, [3]int{2, 2, 1}, OnDemand, false},
		{"2x2x1-1sided-Fe", [3]int{22, 22, 11}, [3]int{2, 2, 1}, OnDemandOneSided, false},
		{"2x2x1-ondemand-FeCu", [3]int{22, 22, 11}, [3]int{2, 2, 1}, OnDemand, true},
		{"2x2x1-traditional-FeCu", [3]int{22, 22, 11}, [3]int{2, 2, 1}, Traditional, true},
		{"2x2x2-ondemand-Fe", [3]int{22, 22, 22}, [3]int{2, 2, 2}, OnDemand, false},
		{"2x2x2-traditional-Fe", [3]int{22, 22, 22}, [3]int{2, 2, 2}, Traditional, false},
	}
	const cycles = 50
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cells = v.cells
			cfg.Grid = v.grid
			cfg.Protocol = v.proto
			cfg.VacancyConcentration = 1e-3
			if v.alloy {
				cfg.CuConcentration = 0.02
				cfg.EmCu = 0.55
			}
			inc := runTrajectory(t, cfg, cycles, false)
			ref := runTrajectory(t, cfg, cycles, true)

			if inc.events != ref.events {
				t.Errorf("event counts differ: incremental %d, rescan %d", inc.events, ref.events)
			}
			if inc.time != ref.time {
				t.Errorf("clocks differ: incremental %v, rescan %v", inc.time, ref.time)
			}
			if len(inc.snap) != len(ref.snap) {
				t.Fatalf("snapshot sizes differ: %d vs %d", len(inc.snap), len(ref.snap))
			}
			diff := 0
			for k, occ := range ref.snap {
				if inc.snap[k] != occ {
					diff++
				}
			}
			if diff != 0 {
				t.Errorf("snapshots differ at %d sites", diff)
			}
		})
	}
}

// TestSectorTotalsMatchRescanAfterRandomUpdates is the cache-coherence
// property test: after arbitrary occupancy writes (standing in for hop
// applications and incoming ghost records), the cached per-sector totals
// must equal a fresh sectorEvents enumeration bit-for-bit.
func TestSectorTotalsMatchRescanAfterRandomUpdates(t *testing.T) {
	for _, alloy := range []bool{false, true} {
		alloy := alloy
		t.Run(fmt.Sprintf("alloy-%v", alloy), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cells = [3]int{12, 12, 12}
			cfg.VacancyConcentration = 0.002
			if alloy {
				cfg.CuConcentration = 0.02
				cfg.EmCu = 0.55
			}
			runWorld(t, cfg, func(st *State) {
				// Warm the cache, then perturb and recheck several rounds.
				src := rng.New(99)
				species := []uint8{Vacant, Atom, CuAtom}
				if !alloy {
					species = []uint8{Vacant, Atom}
				}
				for round := 0; round < 20; round++ {
					for sec := 0; sec < 8; sec++ {
						_, want := st.sectorEvents(sec)
						if got := st.sectorRate(sec); got != want {
							t.Fatalf("round %d sector %d: cached total %v, rescan %v",
								round, sec, got, want)
						}
					}
					// Random writes anywhere in the local region, including
					// the halo (the ghost-update path).
					for i := 0; i < 6; i++ {
						local := src.Intn(len(st.Occ))
						st.setOcc(local, species[src.Intn(len(species))], false)
					}
				}
			})
		})
	}
}

// TestVacancyIndexConsistent asserts the per-sector lists — the one vacancy
// index — stay in lockstep with the occupancy through cycles and random
// writes: strictly ascending, every entry an owned vacant site filed under
// its own sector with its own coordinate, and every owned vacant site listed.
func TestVacancyIndexConsistent(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		check := func(when string) {
			n := 0
			for sec := 0; sec < 8; sec++ {
				prev := -1
				for _, vc := range st.secVacs[sec] {
					v := vc.site
					if v <= prev {
						t.Fatalf("%s: sector %d list not strictly ascending", when, sec)
					}
					prev = v
					c := st.Box.GlobalCoord(v)
					if st.Occ[v] != Vacant || !st.Box.Owns(c) {
						t.Fatalf("%s: sector %d lists non-vacancy %d", when, sec, v)
					}
					if c.X != vc.cx || c.Y != vc.cy || c.Z != vc.cz {
						t.Fatalf("%s: vacancy %d at %+v cached as (%d,%d,%d)", when, v, c, vc.cx, vc.cy, vc.cz)
					}
					if got := st.sectorOf(c); got != sec {
						t.Fatalf("%s: vacancy %d filed under sector %d, is %d", when, v, sec, got)
					}
					n++
				}
			}
			owned := 0
			st.Box.EachOwned(func(_ lattice.Coord, local int) {
				if st.Occ[local] == Vacant {
					owned++
				}
			})
			if n != owned || n != st.numOwnedVacancies() || n != len(st.OwnedVacancies()) {
				t.Fatalf("%s: %d listed vacancies, %d owned vacant sites, count %d, OwnedVacancies %d",
					when, n, owned, st.numOwnedVacancies(), len(st.OwnedVacancies()))
			}
		}
		check("after init")
		for i := 0; i < 10; i++ {
			st.Cycle()
		}
		check("after cycles")
		// Direct writes through the ghost-update path.
		st.Box.EachOwned(func(_ lattice.Coord, local int) {
			if local%97 == 0 {
				st.setOcc(local, Vacant, false)
			}
		})
		check("after forced vacancies")
	})
}

// TestRateKernelDoesNotAllocate checks the zero-allocation promise of the
// //mdvet:hot rate kernel by running it — hotalloc sees neither make nor
// sort.Slice, which is how a 2 KB slice per ΔE once lived inside it.
func TestRateKernelDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	cfg.Protocol = OnDemand
	runWorld(t, cfg, func(st *State) {
		// Steady state first: lists, packers and memos grown to size.
		for i := 0; i < 200; i++ {
			st.Cycle()
		}
		var vc *vacCache
		for sec := range st.secVacs {
			if len(st.secVacs[sec]) > 0 {
				vc = &st.secVacs[sec][0]
			}
		}
		v := vc.site
		cv := st.Box.GlobalCoord(v)
		k := 0
		for st.Occ[v+int(st.shell1[cv.B][k])] == Vacant {
			k++
		}
		n := v + int(st.shell1[cv.B][k])
		cn := st.Tab.PerBase[cv.B][k].Apply(cv)
		var sink float64
		if a := testing.AllocsPerRun(100, func() { sink += st.en.swapDeltaE(st, v, n, cv, cn) }); a != 0 {
			t.Errorf("swapDeltaE allocates %v times per call", a)
		}
		if a := testing.AllocsPerRun(100, func() {
			vc.valid = false
			st.ratesOf(vc)
			sink += vc.rates[k]
		}); a != 0 {
			t.Errorf("a ratesOf refresh allocates %v times", a)
		}
		// A whole cycle: what is left is the Allreduce of the time window
		// (a one-rank world has no peer to send to).
		const perCycle = 2
		events := 0
		if a := testing.AllocsPerRun(100, func() { events += st.Cycle() }); a > perCycle {
			t.Errorf("a steady-state cycle allocates %v times, want at most %d", a, perCycle)
		}
		if events == 0 || sink == 0 {
			t.Errorf("measured nothing: %d events, sink %v", events, sink)
		}
	})
}
