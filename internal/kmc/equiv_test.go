package kmc

import (
	"fmt"
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
			dE := st.en.swapDeltaE(st, v, n, cv, cn)
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

// TestVacancyIndexConsistent asserts the per-sector selection lists stay in
// lockstep with the owned-vacancy set through cycles and random writes.
func TestVacancyIndexConsistent(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		check := func(when string) {
			n := 0
			for sec := 0; sec < 8; sec++ {
				prev := -1
				for _, v := range st.secVacs[sec] {
					if v <= prev {
						t.Fatalf("%s: sector %d list not strictly ascending", when, sec)
					}
					prev = v
					if !st.ownedVac[v] {
						t.Fatalf("%s: sector %d lists non-vacancy %d", when, sec, v)
					}
					if st.rateCache[v] == nil {
						t.Fatalf("%s: vacancy %d has no cache entry", when, v)
					}
					if got := st.sectorOf(st.Box.GlobalCoord(v)); got != sec {
						t.Fatalf("%s: vacancy %d filed under sector %d, is %d", when, v, sec, got)
					}
					n++
				}
			}
			if n != len(st.ownedVac) {
				t.Fatalf("%s: %d listed vacancies, %d owned", when, n, len(st.ownedVac))
			}
			if len(st.rateCache) != len(st.ownedVac) {
				t.Fatalf("%s: %d cache entries, %d owned vacancies", when, len(st.rateCache), len(st.ownedVac))
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
