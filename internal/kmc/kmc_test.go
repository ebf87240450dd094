package kmc

import (
	"math"
	"testing"
	"testing/quick"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/units"
)

func runWorld(t *testing.T, cfg Config, fn func(st *State)) {
	t.Helper()
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := NewState(cfg, c)
		if err != nil {
			panic(err)
		}
		fn(st)
	})
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{12, 12, 12}
	cfg.VacancyConcentration = 0.002 // enough vacancies for activity
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Cells[0] = 0 },
		func(c *Config) { c.A = -1 },
		func(c *Config) { c.Temperature = 0 },
		func(c *Config) { c.Nu = 0 },
		func(c *Config) { c.Em = -0.1 },
		func(c *Config) { c.VacancyConcentration = 0.9 },
		func(c *Config) { c.DtFactor = 0 },
	}
	for i, mutate := range bads {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestVacancyPlacementDeterministic(t *testing.T) {
	cfg := testConfig()
	var first []lattice.Coord
	runWorld(t, cfg, func(st *State) {
		first = st.VacancySites()
	})
	runWorld(t, cfg, func(st *State) {
		again := st.VacancySites()
		if len(again) != len(first) {
			t.Fatalf("vacancy count changed: %d vs %d", len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("vacancy %d moved: %+v vs %+v", i, again[i], first[i])
			}
		}
	})
}

func TestExplicitVacancyList(t *testing.T) {
	cfg := testConfig()
	cfg.VacancyConcentration = 0
	cfg.Vacancies = []int{10, 11, 500, 2001}
	runWorld(t, cfg, func(st *State) {
		if got := st.GlobalVacancyCount(); got != 4 {
			t.Errorf("vacancy count %d, want 4", got)
		}
	})
}

func TestRhoMatchesFromScratch(t *testing.T) {
	// Incremental ρ maintenance must agree with a full recomputation after
	// a batch of events.
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		for i := 0; i < 5; i++ {
			st.Cycle()
		}
		// Recompute ρ of every owned site from occupancy.
		st.Box.EachOwned(func(c lattice.Coord, local int) {
			var rho float64
			for k, d := range st.deltas[c.B] {
				rho += st.en.shells.fval(st.Occ[local+int(d)], int(c.B), k)
			}
			if math.Abs(rho-st.Rho[local]) > 1e-9 {
				t.Fatalf("site %d: incremental ρ %v vs recomputed %v", local, st.Rho[local], rho)
			}
		})
	})
}

func TestSiteConservation(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		before := st.GlobalVacancyCount()
		events := 0
		for i := 0; i < 10; i++ {
			events += st.Cycle()
		}
		tot := st.Comm.Allreduce(mpi.Sum, float64(events))
		if tot[0] == 0 {
			t.Fatalf("no events in 10 cycles")
		}
		if after := st.GlobalVacancyCount(); after != before {
			t.Errorf("vacancy count changed: %d -> %d", before, after)
		}
	})
}

func TestTimeAdvancesMonotonically(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		prev := st.Time
		for i := 0; i < 5; i++ {
			st.Cycle()
			if st.Time <= prev {
				t.Fatalf("time did not advance: %v -> %v", prev, st.Time)
			}
			prev = st.Time
		}
	})
}

func TestRatesPositiveAndBoltzmann(t *testing.T) {
	kBT := units.Boltzmann * 600
	r0 := hopRate(1e13, 0.65, kBT, 0)
	if r0 <= 0 {
		t.Fatalf("zero-dE rate %v", r0)
	}
	// Uphill hops are slower, downhill faster, with the KRA ratio
	// exp(-dE/2kBT) relative to the symmetric barrier.
	up := hopRate(1e13, 0.65, kBT, 0.2)
	down := hopRate(1e13, 0.65, kBT, -0.2)
	if !(down > r0 && r0 > up) {
		t.Errorf("rate ordering wrong: down=%v r0=%v up=%v", down, r0, up)
	}
	wantRatio := math.Exp(0.2 / kBT)
	if got := down / up; math.Abs(got-wantRatio)/wantRatio > 1e-9 {
		t.Errorf("detailed-balance ratio %v, want %v", got, wantRatio)
	}
}

func TestDivacancyBinding(t *testing.T) {
	// Adjacent vacancies must have lower energy than separated ones, or
	// clustering (Fig. 17) cannot emerge. Measure via the hop energetics:
	// moving an atom to separate two 1NN vacancies must cost energy, i.e.
	// the reverse (joining) hop has dE < 0.
	cfg := testConfig()
	cfg.VacancyConcentration = 0
	// Two vacancies: one at cell (6,6,6) corner, and its 1NN at the center
	// of cell (5,5,5)... place corner (6,6,6,B0) and (5,5,5,B1), which are
	// 1NN in BCC.
	l := lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A)
	v1 := l.Index(lattice.Coord{X: 6, Y: 6, Z: 6, B: 0})
	far := l.Index(lattice.Coord{X: 2, Y: 2, Z: 2, B: 0})
	cfg.Vacancies = []int{v1, far}
	runWorld(t, cfg, func(st *State) {
		// Hop an atom at a 1NN of v1 into v1: the new vacancy is then 1NN
		// of nothing (far is remote), so dE measures a neutral hop.
		cv := lattice.Coord{X: 6, Y: 6, Z: 6, B: 0}
		s := st.Box.LocalIndex(cv)
		basis := int8(0)
		// Neutral hop baseline.
		k0 := 0
		n0 := s + int(st.shell1[basis][k0])
		cn0 := st.Tab.PerBase[basis][k0].Apply(cv)
		dENeutral := st.en.swapDeltaE(st, s, n0, cv, cn0)

		// Now place a second vacancy 1NN of the hop target's destination...
		// Simpler direct check: energy of config with two adjacent
		// vacancies vs two separated, via summed swap moves. Move the far
		// vacancy step by step next to v1 and accumulate dE; total must be
		// negative (binding).
		_ = dENeutral
		total := 0.0
		// Walk the vacancy at (2,2,2,B0) to (5,5,5,B1) ~ 1NN of v1 by
		// repeated swaps along a deterministic path.
		cur := lattice.Coord{X: 2, Y: 2, Z: 2, B: 0}
		path := []lattice.Coord{
			{X: 2, Y: 2, Z: 2, B: 1}, {X: 3, Y: 3, Z: 3, B: 0}, {X: 3, Y: 3, Z: 3, B: 1},
			{X: 4, Y: 4, Z: 4, B: 0}, {X: 4, Y: 4, Z: 4, B: 1},
			{X: 5, Y: 5, Z: 5, B: 0}, {X: 5, Y: 5, Z: 5, B: 1},
		}
		for _, next := range path {
			sl := st.Box.LocalIndex(cur)
			nl := st.Box.LocalIndex(next)
			// dE of moving the atom at `next` into the vacancy at `cur`
			// moves the vacancy to `next`.
			dE := st.en.swapDeltaE(st, sl, nl, cur, next)
			total += dE
			st.setOcc(sl, Atom, false)
			st.setOcc(nl, Vacant, false)
			cur = next
		}
		if total >= 0 {
			t.Errorf("divacancy binding energy %v eV, want negative (attractive)", total)
		}
	})
}

func TestProtocolsProduceIdenticalTrajectories(t *testing.T) {
	// The headline correctness property of the on-demand strategy: it is a
	// pure communication optimization, so the trajectory must be identical
	// site-by-site with the traditional protocol, in serial and parallel.
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}} {
		cfg := testConfig()
		cfg.Cells = [3]int{22, 11, 11}
		cfg.Grid = grid
		snapshots := map[Protocol]map[int]uint8{}
		times := map[Protocol]float64{}
		for _, proto := range []Protocol{Traditional, OnDemand, OnDemandOneSided} {
			cfg.Protocol = proto
			merged := make(map[int]uint8)
			mu := make(chan struct{}, 1)
			mu <- struct{}{}
			var tEnd float64
			w := mpi.NewWorld(cfg.Ranks())
			w.Run(func(c *mpi.Comm) {
				st, err := NewState(cfg, c)
				if err != nil {
					panic(err)
				}
				for i := 0; i < 12; i++ {
					st.Cycle()
				}
				snap := st.Snapshot()
				<-mu
				for k, v := range snap {
					merged[k] = v
				}
				tEnd = st.Time
				mu <- struct{}{}
			})
			snapshots[proto] = merged
			times[proto] = tEnd
		}
		base := snapshots[Traditional]
		for _, proto := range []Protocol{OnDemand, OnDemandOneSided} {
			other := snapshots[proto]
			if len(other) != len(base) {
				t.Fatalf("grid %v %v: %d sites vs %d", grid, proto, len(other), len(base))
			}
			diff := 0
			for k, v := range base {
				if other[k] != v {
					diff++
				}
			}
			if diff != 0 {
				t.Errorf("grid %v: %v differs from traditional at %d sites", grid, proto, diff)
			}
			if times[proto] != times[Traditional] {
				t.Errorf("grid %v: %v time %v vs traditional %v", grid, proto,
					times[proto], times[Traditional])
			}
		}
	}
}

func TestOnDemandCommVolumeMuchSmaller(t *testing.T) {
	// Figure 12's claim: with a low vacancy concentration, on-demand
	// communication volume is a tiny fraction of the traditional ghost
	// exchange.
	cfg := testConfig()
	cfg.Cells = [3]int{22, 22, 11}
	cfg.Grid = [3]int{2, 2, 1}
	cfg.VacancyConcentration = 5e-4
	volumes := map[Protocol]int64{}
	for _, proto := range []Protocol{Traditional, OnDemand} {
		cfg.Protocol = proto
		var total int64
		mu := make(chan struct{}, 1)
		mu <- struct{}{}
		w := mpi.NewWorld(cfg.Ranks())
		w.Run(func(c *mpi.Comm) {
			st, err := NewState(cfg, c)
			if err != nil {
				panic(err)
			}
			// The plan is computed locally: construction sends nothing.
			if s := st.Stats(); s != (mpi.Stats{}) {
				t.Errorf("rank %d: NewState (%v) communicated: %+v", c.Rank(), proto, s)
			}
			base := st.Stats().BytesSent
			for i := 0; i < 5; i++ {
				st.Cycle()
			}
			d := st.Stats().BytesSent - base
			<-mu
			total += d
			mu <- struct{}{}
		})
		volumes[proto] = total
	}
	frac := float64(volumes[OnDemand]) / float64(volumes[Traditional])
	if frac > 0.2 {
		t.Errorf("on-demand volume fraction %.3f, want << 1 (paper: 0.026)", frac)
	}
	if volumes[OnDemand] == 0 {
		t.Errorf("on-demand sent no bytes at all")
	}
}

func TestOneSidedEliminatesEmptyMessages(t *testing.T) {
	cfg := testConfig()
	cfg.Cells = [3]int{22, 11, 11}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.VacancyConcentration = 2e-4 // very few events
	msgs := map[Protocol]int64{}
	for _, proto := range []Protocol{OnDemand, OnDemandOneSided} {
		cfg.Protocol = proto
		var total int64
		mu := make(chan struct{}, 1)
		mu <- struct{}{}
		w := mpi.NewWorld(cfg.Ranks())
		w.Run(func(c *mpi.Comm) {
			st, err := NewState(cfg, c)
			if err != nil {
				panic(err)
			}
			if s := st.Stats(); s != (mpi.Stats{}) {
				t.Errorf("rank %d: NewState (%v) communicated: %+v", c.Rank(), proto, s)
			}
			base := st.Stats().MsgsSent
			for i := 0; i < 5; i++ {
				st.Cycle()
			}
			d := st.Stats().MsgsSent - base
			<-mu
			total += d
			mu <- struct{}{}
		})
		msgs[proto] = total
	}
	if msgs[OnDemandOneSided] >= msgs[OnDemand] {
		t.Errorf("one-sided sent %d msgs, two-sided %d: zero-size messages not eliminated",
			msgs[OnDemandOneSided], msgs[OnDemand])
	}
}

func TestSectorOfCoversAllOctants(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		seen := map[int]int{}
		st.Box.EachOwned(func(c lattice.Coord, _ int) {
			sec := st.sectorOf(c)
			if sec < 0 || sec > 7 {
				t.Fatalf("sector %d out of range", sec)
			}
			seen[sec]++
		})
		if len(seen) != 8 {
			t.Errorf("only %d sectors populated", len(seen))
		}
	})
}

func TestVacanciesMoveOverTime(t *testing.T) {
	cfg := testConfig()
	runWorld(t, cfg, func(st *State) {
		before := st.VacancySites()
		for i := 0; i < 15; i++ {
			st.Cycle()
		}
		after := st.VacancySites()
		if len(after) != len(before) {
			t.Fatalf("vacancy count changed")
		}
		moved := false
		pos := map[lattice.Coord]bool{}
		for _, c := range before {
			pos[c] = true
		}
		for _, c := range after {
			if !pos[c] {
				moved = true
			}
		}
		if !moved {
			t.Errorf("no vacancy moved in 15 cycles")
		}
	})
}

func alloyConfig() Config {
	cfg := testConfig()
	cfg.CuConcentration = 0.02
	cfg.VacancyConcentration = 0.003
	cfg.EmCu = 0.55 // copper migrates faster than iron
	return cfg
}

// countSpecies returns this rank's owned (vacancies, Fe, Cu) counts.
func countSpecies(st *State) (vac, fe, cu int) {
	st.Box.EachOwned(func(_ lattice.Coord, local int) {
		switch st.Occ[local] {
		case Vacant:
			vac++
		case CuAtom:
			cu++
		default:
			fe++
		}
	})
	return
}

func TestAlloySpeciesConservation(t *testing.T) {
	for _, grid := range [][3]int{{1, 1, 1}, {2, 1, 1}} {
		cfg := alloyConfig()
		cfg.Cells = [3]int{22, 11, 11}
		cfg.Grid = grid
		w := mpi.NewWorld(cfg.Ranks())
		w.Run(func(c *mpi.Comm) {
			st, err := NewState(cfg, c)
			if err != nil {
				panic(err)
			}
			v0, f0, c0 := countSpecies(st)
			tot0 := c.Allreduce(mpi.Sum, float64(v0), float64(f0), float64(c0))
			if tot0[2] == 0 {
				t.Errorf("no copper placed")
			}
			for i := 0; i < 8; i++ {
				st.Cycle()
			}
			v1, f1, c1 := countSpecies(st)
			tot1 := c.Allreduce(mpi.Sum, float64(v1), float64(f1), float64(c1))
			for i := 0; i < 3; i++ {
				if tot0[i] != tot1[i] {
					t.Errorf("grid %v species %d count changed: %v -> %v",
						grid, i, tot0[i], tot1[i])
				}
			}
		})
	}
}

func TestAlloyProtocolEquivalence(t *testing.T) {
	cfg := alloyConfig()
	cfg.Cells = [3]int{22, 11, 11}
	cfg.Grid = [3]int{2, 1, 1}
	snaps := map[Protocol]map[int]uint8{}
	for _, proto := range []Protocol{Traditional, OnDemand} {
		cfg.Protocol = proto
		merged := make(map[int]uint8)
		mu := make(chan struct{}, 1)
		mu <- struct{}{}
		w := mpi.NewWorld(cfg.Ranks())
		w.Run(func(c *mpi.Comm) {
			st, err := NewState(cfg, c)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 10; i++ {
				st.Cycle()
			}
			snap := st.Snapshot()
			<-mu
			for k, v := range snap {
				merged[k] = v
			}
			mu <- struct{}{}
		})
		snaps[proto] = merged
	}
	diff := 0
	for k, v := range snaps[Traditional] {
		if snaps[OnDemand][k] != v {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("alloy trajectories differ at %d sites", diff)
	}
}

func TestCuMigratesFasterThanFe(t *testing.T) {
	// With EmCu < Em, a vacancy-Cu exchange must outpace a comparable
	// vacancy-Fe exchange.
	cfg := alloyConfig()
	runWorld(t, cfg, func(st *State) {
		if feRate, cuRate := st.emFor(Atom), st.emFor(CuAtom); cuRate >= feRate {
			t.Errorf("EmCu %v not below Em %v", cuRate, feRate)
		}
		kBT := st.kBT
		rFe := hopRate(cfg.Nu, st.emFor(Atom), kBT, 0)
		rCu := hopRate(cfg.Nu, st.emFor(CuAtom), kBT, 0)
		if rCu <= rFe {
			t.Errorf("Cu hop rate %v not above Fe %v", rCu, rFe)
		}
	})
}

func TestCuCuBindingFromMixingEnthalpy(t *testing.T) {
	// The biased cross pair gives unlike bonds a positive cost, so two
	// adjacent Cu atoms must have lower total energy than two separated
	// ones — the driving force of precipitation.
	base := testConfig()
	base.VacancyConcentration = 0
	base.Vacancies = []int{0} // KMC requires at least one vacancy elsewhere
	l := lattice.New(base.Cells[0], base.Cells[1], base.Cells[2], base.A)

	energyWith := func(cu []lattice.Coord) float64 {
		cfg := base
		cfg.CuSites = nil
		for _, c := range cu {
			cfg.CuSites = append(cfg.CuSites, l.Index(c))
		}
		var e float64
		runWorld(t, cfg, func(st *State) { e = st.TotalEnergy() })
		return e
	}
	adjacent := energyWith([]lattice.Coord{
		{X: 6, Y: 6, Z: 6, B: 0}, {X: 6, Y: 6, Z: 6, B: 1}, // 1NN pair
	})
	separated := energyWith([]lattice.Coord{
		{X: 6, Y: 6, Z: 6, B: 0}, {X: 2, Y: 2, Z: 2, B: 1},
	})
	if adjacent >= separated {
		t.Errorf("adjacent Cu pair energy %v not below separated %v", adjacent, separated)
	}
}

func TestAlloyValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CuConcentration = 0.9
	if err := cfg.Validate(); err == nil {
		t.Errorf("huge Cu concentration accepted")
	}
	cfg = DefaultConfig()
	cfg.EmCu = -1
	if err := cfg.Validate(); err == nil {
		t.Errorf("negative EmCu accepted")
	}
}

func TestPackerRoundTripQuick(t *testing.T) {
	f := func(a int32, b uint8, c int32) bool {
		var p halo.Packer
		p.I32(a)
		p.U8(b)
		p.I32(c)
		u := halo.NewUnpacker("kmc", p.Bytes())
		return u.I32() == a && u.U8() == b && u.I32() == c && u.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapDeltaEReversible(t *testing.T) {
	// Microscopic reversibility of the energetics: the energy change of a
	// hop equals minus the energy change of the reverse hop evaluated in
	// the post-hop state. Combined with the KRA barrier this gives detailed
	// balance: k(i->j)/k(j->i) = exp(-dE/kBT).
	cfg := testConfig()
	cfg.VacancyConcentration = 0.004
	runWorld(t, cfg, func(st *State) {
		checked := 0
		for _, v := range st.OwnedVacancies() {
			cv := st.Box.GlobalCoord(v)
			basis := int8(v & 1)
			for k, d := range st.shell1[basis] {
				n := v + int(d)
				if st.Occ[n] == Vacant {
					continue
				}
				cn := st.Tab.PerBase[basis][k].Apply(cv)
				fwd := st.en.swapDeltaE(st, v, n, cv, cn)
				// Apply the swap, evaluate the reverse, undo.
				moving := st.Occ[n]
				st.setOcc(v, moving, false)
				st.setOcc(n, Vacant, false)
				rev := st.en.swapDeltaE(st, n, v, cn, cv)
				st.setOcc(n, moving, false)
				st.setOcc(v, Vacant, false)
				if math.Abs(fwd+rev) > 1e-9 {
					t.Fatalf("hop %d->%d not reversible: fwd %v rev %v", v, n, fwd, rev)
				}
				// Detailed balance of the rates.
				kf := hopRate(cfg.Nu, cfg.Em, st.kBT, fwd)
				kr := hopRate(cfg.Nu, cfg.Em, st.kBT, rev)
				want := math.Exp(-fwd / st.kBT)
				if got := kf / kr; math.Abs(got-want)/want > 1e-9 {
					t.Fatalf("detailed balance broken: %v vs %v", got, want)
				}
				checked++
			}
		}
		if checked < 10 {
			t.Fatalf("only %d hops checked", checked)
		}
	})
}

func TestBoltzmannEquilibriumTwoStateToy(t *testing.T) {
	// A vacancy next to a divacancy trap: over a long trajectory, the
	// fraction of time spent bound vs free must follow the Boltzmann factor
	// of the binding energy. This is a statistical test of the full
	// engine (rates, selection, clock), so tolerances are loose.
	cfg := testConfig()
	cfg.Cells = [3]int{6, 6, 6} // small box: the free state is well sampled
	cfg.VacancyConcentration = 0
	l := lattice.New(6, 6, 6, cfg.A)
	// A vacancy pair forming the trap, plus one mobile vacancy.
	cfg.Vacancies = []int{
		l.Index(lattice.Coord{X: 3, Y: 3, Z: 3, B: 0}),
		l.Index(lattice.Coord{X: 3, Y: 3, Z: 3, B: 1}),
		l.Index(lattice.Coord{X: 1, Y: 1, Z: 1, B: 0}),
	}
	cfg.Temperature = 1500 // hot: un-trapping happens often enough to sample
	runWorld(t, cfg, func(st *State) {
		bound := 0.0
		total := 0.0
		for i := 0; i < 2500; i++ {
			st.Cycle()
			// Measure: is any vacancy pair within 1NN?
			sites := st.VacancySites()
			isBound := false
			for a := 0; a < len(sites); a++ {
				for b := a + 1; b < len(sites); b++ {
					d := st.L.MinImage(st.L.Position(sites[a]), st.L.Position(sites[b])).Norm()
					if d < 1.1*st.L.FirstNeighborDistance() {
						isBound = true
					}
				}
			}
			if isBound {
				bound++
			}
			total++
		}
		// With attractive binding, bound configurations must be strongly
		// over-represented relative to the ~5% random-placement baseline of
		// this box size.
		frac := bound / total
		if frac < 0.25 {
			t.Errorf("bound fraction %.3f: binding not expressed in equilibrium", frac)
		}
	})
}
