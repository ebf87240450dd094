package md

import (
	"math"
	"testing"

	"mdkmc/internal/eam"
	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// runWorld executes fn on a world sized for cfg and returns nothing; panics
// propagate as test failures.
func runWorld(t *testing.T, cfg Config, fn func(r *Rank)) {
	t.Helper()
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		r, err := NewRank(cfg, c)
		if err != nil {
			panic(err)
		}
		fn(r)
	})
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{6, 6, 6}
	cfg.Mode = eam.Analytic
	cfg.TablePoints = 500
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cells[0] = 0 },
		func(c *Config) { c.Grid[1] = 0 },
		func(c *Config) { c.A = 0 },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Steps = -1 },
		func(c *Config) { c.Skin = 0 },
		func(c *Config) { c.TablePoints = 2 },
		func(c *Config) { c.Workers = -1 },
		// NaN passes every "x <= 0" test, and ±Inf is not a physical value.
		func(c *Config) { c.A = math.NaN() },
		func(c *Config) { c.A = math.Inf(1) },
		func(c *Config) { c.Dt = math.NaN() },
		func(c *Config) { c.Dt = math.Inf(1) },
		func(c *Config) { c.Skin = math.NaN() },
		func(c *Config) { c.CuFraction = math.NaN() },
		func(c *Config) { c.Temperature = -100 },
		func(c *Config) { c.Temperature = math.NaN() },
		func(c *Config) { c.Temperature = math.Inf(1) },
		func(c *Config) { c.PKA = &PKA{Energy: math.NaN()} },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cold := DefaultConfig()
	cold.Temperature = 0
	if err := cold.Validate(); err != nil {
		t.Errorf("0 K rejected: %v", err)
	}
}

func TestPerfectLatticeZeroForce(t *testing.T) {
	// By symmetry every atom of a perfect BCC crystal at rest feels zero
	// net force.
	cfg := smallConfig()
	cfg.Temperature = 0
	runWorld(t, cfg, func(r *Rank) {
		r.Box.EachOwned(func(_ lattice.Coord, local int) {
			if f := r.Store.F[local].Norm(); f > 1e-9 {
				t.Errorf("site %d force %v in perfect lattice", local, f)
			}
		})
	})
}

func TestNewtonThirdLaw(t *testing.T) {
	// Total force sums to zero on a thermally perturbed lattice.
	cfg := smallConfig()
	cfg.Temperature = 600
	runWorld(t, cfg, func(r *Rank) {
		// Displace atoms deterministically to break symmetry, then refresh
		// forces.
		r.Box.EachOwned(func(c lattice.Coord, local int) {
			gi := uint64(r.L.Index(c))
			r.Store.R[local] = r.Store.R[local].Add(vec.V{
				X: 0.05 * math.Sin(float64(gi)),
				Y: 0.05 * math.Cos(float64(3*gi)),
				Z: 0.05 * math.Sin(float64(7*gi)+1),
			})
		})
		r.computeForces()
		var sum vec.V
		r.Box.EachOwned(func(_ lattice.Coord, local int) {
			sum = sum.Add(r.Store.F[local])
		})
		tot := r.Comm.Allreduce(mpi.Sum, sum.X, sum.Y, sum.Z)
		if v := (vec.V{X: tot[0], Y: tot[1], Z: tot[2]}).Norm(); v > 1e-8 {
			t.Errorf("net force %v, want ~0 (Newton's third law)", v)
		}
	})
}

func TestForcesMatchNumericalGradient(t *testing.T) {
	// F = -dE/dx for a probe atom, against a central difference of the
	// total potential energy.
	cfg := smallConfig()
	cfg.Cells = [3]int{4, 4, 4}
	cfg.Temperature = 0
	runWorld(t, cfg, func(r *Rank) {
		probe := r.Box.LocalIndex(lattice.Coord{X: 2, Y: 2, Z: 2, B: 0})
		// Perturb a neighborhood so the probe sits in a non-trivial field.
		r.Store.R[probe] = r.Store.R[probe].Add(vec.V{X: 0.11, Y: -0.07, Z: 0.05})
		other := r.Box.LocalIndex(lattice.Coord{X: 2, Y: 2, Z: 2, B: 1})
		r.Store.R[other] = r.Store.R[other].Add(vec.V{X: -0.08, Y: 0.02, Z: 0.04})

		energyAt := func(x float64) float64 {
			saved := r.Store.R[probe]
			r.Store.R[probe] = vec.V{X: x, Y: saved.Y, Z: saved.Z}
			r.computeForces()
			_, pe := r.TotalEnergy()
			r.Store.R[probe] = saved
			return pe
		}
		x0 := r.Store.R[probe].X
		const h = 1e-5
		grad := (energyAt(x0+h) - energyAt(x0-h)) / (2 * h)
		r.computeForces()
		fx := r.Store.F[probe].X
		if math.Abs(fx+grad) > 1e-4*math.Max(1, math.Abs(grad)) {
			t.Errorf("Fx = %v, -dE/dx = %v", fx, -grad)
		}
	})
}

func TestEnergyConservationNVE(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 300
	cfg.Dt = 1e-3 // 1 fs
	runWorld(t, cfg, func(r *Rank) {
		ke0, pe0 := r.TotalEnergy()
		e0 := ke0 + pe0
		for i := 0; i < 200; i++ {
			r.Step()
		}
		ke1, pe1 := r.TotalEnergy()
		e1 := ke1 + pe1
		perAtom := math.Abs(e1-e0) / float64(r.GlobalAtomCount())
		if perAtom > 2e-5 {
			t.Errorf("energy drift %.3g eV/atom over 200 steps", perAtom)
		}
		// And the system actually moved: kinetic energy redistributed.
		if ke1 == ke0 {
			t.Errorf("kinetic energy frozen")
		}
	})
}

func TestAtomConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.Temperature = 900 // hot: runaway conversions happen
	runWorld(t, cfg, func(r *Rank) {
		want := cfg.NumAtoms()
		for i := 0; i < 100; i++ {
			r.Step()
			if got := r.GlobalAtomCount(); got != want {
				t.Fatalf("step %d: %d atoms, want %d", i, got, want)
			}
		}
	})
}

func TestTemperatureEquilibration(t *testing.T) {
	// With the Berendsen thermostat the temperature approaches the target.
	cfg := smallConfig()
	cfg.Temperature = 600
	cfg.Thermostat = &Berendsen{Target: 600, Tau: 0.05}
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 150; i++ {
			r.Step()
		}
		tK := r.Temperature()
		if tK < 400 || tK > 800 {
			t.Errorf("temperature %v K after thermostatted run, want ~600", tK)
		}
	})
}

func TestParallelMatchesSerial(t *testing.T) {
	// The central decomposition-correctness property: a 2x1x1 (and 2x2x1)
	// run reproduces the serial trajectory exactly (bitwise positions).
	base := smallConfig()
	base.Cells = [3]int{8, 6, 6}
	base.Temperature = 600
	const steps = 25

	type snapshot map[int64]vec.V
	collect := func(grid [3]int) snapshot {
		cfg := base
		cfg.Grid = grid
		out := make(snapshot)
		w := mpi.NewWorld(cfg.Ranks())
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		w.Run(func(c *mpi.Comm) {
			r, err := NewRank(cfg, c)
			if err != nil {
				panic(err)
			}
			for i := 0; i < steps; i++ {
				r.Step()
			}
			local := make(snapshot)
			r.Box.EachOwned(func(_ lattice.Coord, localIdx int) {
				if !r.Store.IsVacancy(localIdx) {
					local[r.Store.ID[localIdx]] = r.Store.R[localIdx]
				}
				r.Store.EachRunaway(localIdx, func(_ int32, a *neighbor.Runaway) {
					local[a.ID] = a.R
				})
			})
			<-mu
			for id, p := range local {
				out[id] = p
			}
			mu <- struct{}{}
		})
		return out
	}

	serial := collect([3]int{1, 1, 1})
	for _, grid := range [][3]int{{2, 1, 1}, {2, 2, 1}} {
		par := collect(grid)
		if len(par) != len(serial) {
			t.Fatalf("grid %v: %d atoms vs serial %d", grid, len(par), len(serial))
		}
		worst := 0.0
		for id, p := range serial {
			q, ok := par[id]
			if !ok {
				t.Fatalf("grid %v: atom %d missing", grid, id)
			}
			// Parallel atoms may live in a shifted periodic frame; compare
			// via minimum image.
			l := lattice.New(base.Cells[0], base.Cells[1], base.Cells[2], base.A)
			if d := l.MinImage(p, q).Norm(); d > worst {
				worst = d
			}
		}
		if worst > 1e-9 {
			t.Errorf("grid %v: max trajectory deviation %.3g Å", grid, worst)
		}
	}
}

func TestRunawayGenerationAndReturn(t *testing.T) {
	// Kick one atom hard enough to leave its site: a vacancy and a run-away
	// must appear; with zero ambient temperature it eventually rebinds or
	// stays tracked, and atom count is conserved throughout.
	cfg := smallConfig()
	cfg.Temperature = 0
	runWorld(t, cfg, func(r *Rank) {
		probe := r.Box.LocalIndex(lattice.Coord{X: 3, Y: 3, Z: 3, B: 0})
		m := r.Store.Type[probe].Mass()
		// ~40 eV recoil: enough to displace, not enough for a long cascade.
		speed := math.Sqrt(2 * 40 / m)
		r.Store.Vel[probe] = vec.V{X: speed * 0.7, Y: speed * 0.6, Z: speed * 0.39}
		sawRunaway := false
		for i := 0; i < 150; i++ {
			r.Step()
			if CountOwnedRunaways(r.Store) > 0 {
				sawRunaway = true
			}
			if got := r.GlobalAtomCount(); got != cfg.NumAtoms() {
				t.Fatalf("step %d: atom count %d", i, got)
			}
			if CountOwnedRunaways(r.Store) != r.Store.CountVacancies() {
				// Every run-away leaves exactly one vacancy (until
				// recombination, which removes one of each).
				t.Fatalf("step %d: %d runaways vs %d vacancies", i,
					CountOwnedRunaways(r.Store), r.Store.CountVacancies())
			}
		}
		if !sawRunaway {
			t.Errorf("40 eV recoil never produced a run-away atom")
		}
	})
}

func TestCascadeProducesDefects(t *testing.T) {
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Temperature = 100
	cfg.Dt = 2e-4 // short steps for the collision phase
	cfg.PKA = &PKA{Energy: 300}
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 300; i++ {
			r.Step()
		}
		if got := r.GlobalAtomCount(); got != cfg.NumAtoms() {
			t.Fatalf("atom count %d, want %d", got, cfg.NumAtoms())
		}
		if v := r.GlobalVacancyCount(); v == 0 {
			t.Errorf("300 eV cascade produced no vacancies")
		}
	})
}

func TestCascadeParallelConservation(t *testing.T) {
	// The same cascade on 2 ranks: atoms conserved, defects appear, and
	// runaway/vacancy bookkeeping stays consistent across migration.
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 8, 8}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Temperature = 100
	cfg.Dt = 2e-4
	cfg.PKA = &PKA{Energy: 300}
	runWorld(t, cfg, func(r *Rank) {
		for i := 0; i < 200; i++ {
			r.Step()
		}
		if got := r.GlobalAtomCount(); got != cfg.NumAtoms() {
			t.Fatalf("atom count %d, want %d", got, cfg.NumAtoms())
		}
		runaways := r.Comm.Allreduce(mpi.Sum, float64(CountOwnedRunaways(r.Store)))
		vacancies := r.Comm.Allreduce(mpi.Sum, float64(r.Store.CountVacancies()))
		if runaways[0] != vacancies[0] {
			t.Errorf("global runaways %v vs vacancies %v", runaways[0], vacancies[0])
		}
	})
}

func TestCPEKernelMatchesPlainForces(t *testing.T) {
	// The offloaded kernel must produce bitwise-identical forces for every
	// variant (the optimizations change data movement, not results).
	for _, variant := range []KernelVariant{
		VariantTraditional, VariantCompacted, VariantCompactedReuse, VariantFull,
	} {
		cfg := smallConfig()
		cfg.Temperature = 600
		var plainF []vec.V
		runWorld(t, cfg, func(r *Rank) {
			for i := 0; i < 3; i++ {
				r.Step()
			}
			plainF = append([]vec.V(nil), r.Store.F...)
		})
		runWorld(t, cfg, func(r *Rank) {
			r.Kernel = NewCPEKernel(r.FF, variant)
			for i := 0; i < 3; i++ {
				r.Step()
			}
			if r.Kernel.StepTime <= 0 {
				t.Errorf("%v: no virtual time charged", variant)
			}
			r.Box.EachOwned(func(_ lattice.Coord, local int) {
				if r.Store.F[local] != plainF[local] {
					t.Fatalf("%v: force mismatch at %d: %v vs %v",
						variant, local, r.Store.F[local], plainF[local])
				}
			})
		})
	}
}

func TestKernelVariantOrdering(t *testing.T) {
	// Virtual times must reproduce the paper's Figure 9 ordering:
	// traditional slowest; compaction a large win; reuse a small further
	// win; double buffer little change.
	cfg := smallConfig()
	// Paper-scale tables (traditional = 273 KB, does not fit the LDM) and
	// enough sites per CPE that the block pipeline has several blocks.
	// Figure 9 measures the paper's per-neighbor-lookup kernel, so the
	// study runs on the reference kernel's round table; the optimized kernel
	// issues far fewer lookups, which legitimately shrinks the
	// traditional variant's row-fetch penalty below the figure's ratio.
	cfg.TablePoints = eam.TablePoints
	cfg.Mode = eam.Compacted
	cfg.Cells = [3]int{28, 28, 28}
	cfg.Temperature = 600
	times := map[KernelVariant]float64{}
	for _, variant := range []KernelVariant{
		VariantTraditional, VariantCompacted, VariantCompactedReuse, VariantFull,
	} {
		runWorld(t, cfg, func(r *Rank) {
			r.FF.rounds = &referenceRounds
			r.Kernel = NewCPEKernel(r.FF, variant)
			r.computeForces()
			times[variant] = r.Kernel.StepTime
		})
	}
	trad, comp := times[VariantTraditional], times[VariantCompacted]
	reuse, full := times[VariantCompactedReuse], times[VariantFull]
	ratio := trad / comp
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("traditional/compacted = %.2f, want ~2.2 (paper: +54.7%%)", ratio)
	}
	gainReuse := (comp - reuse) / comp
	if gainReuse < 0.005 || gainReuse > 0.12 {
		t.Errorf("reuse gain = %.1f%%, want a few percent (paper: ~4%%)", 100*gainReuse)
	}
	gainDB := (reuse - full) / reuse
	if gainDB < -0.01 || gainDB > 0.12 {
		t.Errorf("double-buffer gain = %.1f%%, want small (paper: no obvious gain)", 100*gainDB)
	}
}

func TestExchangePackRoundTrip(t *testing.T) {
	var p halo.Packer
	p.I64(-42)
	p.U8(7)
	p.U16(65000)
	p.F64(3.14159)
	p.Vec(vec.V{X: 1, Y: -2, Z: 3})
	u := halo.NewUnpacker("md", p.Bytes())
	if u.I64() != -42 || u.U8() != 7 || u.U16() != 65000 {
		t.Fatalf("integer round trip failed")
	}
	if u.F64() != 3.14159 {
		t.Fatalf("float round trip failed")
	}
	if u.Vec() != (vec.V{X: 1, Y: -2, Z: 3}) {
		t.Fatalf("vector round trip failed")
	}
	if !u.Done() {
		t.Fatalf("unpacker not exhausted")
	}
}

func TestGhostExchangeCommVolumeScalesWithSurface(t *testing.T) {
	// Communication bytes track the subdomain surface, not its volume:
	// doubling the box along the split axis doubles each rank's atoms but
	// leaves the exchanged face area — and hence the bytes — unchanged.
	measure := func(cells [3]int) int64 {
		cfg := smallConfig()
		cfg.Cells = cells
		cfg.Grid = [3]int{2, 1, 1}
		w := mpi.NewWorld(2)
		results := make([]int64, 2)
		w.Run(func(c *mpi.Comm) {
			reg := telemetry.New(c.Rank())
			c.AttachTelemetry(reg)
			r, err := NewRank(cfg, c)
			if err != nil {
				panic(err)
			}
			// The ghost plan is computed locally: construction's only
			// point-to-point traffic is the initial force computation's one
			// position and one density message to the single peer.
			sent := int64(-1)
			for _, m := range reg.Snapshot().Metrics {
				if m.Name == "mpi/p2p/msgs-sent" {
					sent = m.Value
				}
			}
			if sent != 2 {
				t.Errorf("rank %d: NewRank sent %d point-to-point messages, want 2", c.Rank(), sent)
			}
			before := r.Comm.Stats().BytesSent
			r.Step()
			results[c.Rank()] = r.Comm.Stats().BytesSent - before
		})
		return results[0] + results[1]
	}
	small := measure([3]int{8, 6, 6})
	big := measure([3]int{16, 6, 6})
	ratio := float64(big) / float64(small)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("ghost bytes ratio %.2f, want ~1 (surface scaling)", ratio)
	}
}

func TestBoundaryCrossingCascadeSerial(t *testing.T) {
	// Regression: an energetic atom at the box edge crosses the periodic
	// boundary; on one rank its new anchor is a periodic image of the same
	// domain and must be placed locally, not routed as a migrant.
	cfg := smallConfig()
	cfg.Temperature = 0
	cfg.Dt = 2e-4
	runWorld(t, cfg, func(r *Rank) {
		edge := lattice.Coord{X: 0, Y: 0, Z: 0, B: 0}
		if ok, err := r.ApplyRecoil(edge, 150, vec.V{X: -1, Y: -0.3, Z: -0.2}); err != nil || !ok {
			t.Fatalf("recoil not applied: ok=%v err=%v", ok, err)
		}
		for i := 0; i < 200; i++ {
			r.Step()
			if got := r.GlobalAtomCount(); got != cfg.NumAtoms() {
				t.Fatalf("step %d: atom count %d", i, got)
			}
		}
	})
}

func TestBoundaryCrossingCascadeParallel(t *testing.T) {
	cfg := smallConfig()
	cfg.Cells = [3]int{8, 6, 6}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Temperature = 0
	cfg.Dt = 2e-4
	runWorld(t, cfg, func(r *Rank) {
		// Strike near the rank boundary pointing across it, and near the
		// periodic y-boundary pointing out.
		if _, err := r.ApplyRecoil(lattice.Coord{X: 3, Y: 0, Z: 3, B: 0}, 150, vec.V{X: 1, Y: -0.7, Z: 0.1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			r.Step()
			if got := r.GlobalAtomCount(); got != cfg.NumAtoms() {
				t.Fatalf("step %d: atom count %d", i, got)
			}
		}
	})
}

func TestAlloyKernelStrategies(t *testing.T) {
	// Both minority-table strategies must produce identical forces; the
	// virtual times differ (the register path pays per-lookup mesh traffic
	// for every minority lookup, the resident path only for cache misses).
	cfg := smallConfig()
	cfg.Cells = [3]int{10, 10, 10}
	cfg.CuFraction = 0.25
	cfg.Temperature = 600
	cfg.Mode = eam.Compacted
	cfg.TablePoints = eam.TablePoints
	forces := map[AlloyTableStrategy][]vec.V{}
	times := map[AlloyTableStrategy]float64{}
	for _, strat := range []AlloyTableStrategy{AlloyDominantResident, AlloyDistributedTables} {
		runWorld(t, cfg, func(r *Rank) {
			r.Kernel = NewCPEKernel(r.FF, VariantFull)
			r.Kernel.Alloy = strat
			r.computeForces()
			forces[strat] = append([]vec.V(nil), r.Store.F...)
			times[strat] = r.Kernel.StepTime
		})
	}
	a, b := forces[AlloyDominantResident], forces[AlloyDistributedTables]
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alloy strategies disagree on force %d", i)
		}
	}
	if times[AlloyDominantResident] <= 0 || times[AlloyDistributedTables] <= 0 {
		t.Fatalf("no virtual time charged: %v", times)
	}
	if times[AlloyDominantResident] == times[AlloyDistributedTables] {
		t.Errorf("strategies charged identical time %v; minority traffic not modeled",
			times[AlloyDominantResident])
	}
}

func TestAlloyTablesExceedLDMTogether(t *testing.T) {
	// The situation that forces a strategy choice: the alloy's compacted
	// density tables (Fe-Fe, Cu-Cu, Fe-Cu) together exceed the local store.
	pot := eam.NewFeCu(eam.Compacted, eam.TablePoints)
	compacted, _ := pot.TableBytes()
	if 3*compacted <= 64*1024 {
		t.Fatalf("three compacted tables (%d B) fit the LDM; the paper's alloy problem vanished", 3*compacted)
	}
	if compacted >= 64*1024 {
		t.Fatalf("a single compacted table (%d B) does not fit; even the dominant-resident strategy fails", compacted)
	}
}

func TestSoftwareCacheSlowerThanBuffer(t *testing.T) {
	// The paper's stated reason for the user-controlled buffer: the
	// software-emulated cache configuration is slower for this kernel.
	cfg := smallConfig()
	cfg.Cells = [3]int{10, 10, 10}
	cfg.Temperature = 600
	cfg.Mode = eam.Compacted
	cfg.TablePoints = eam.TablePoints
	times := map[bool]float64{}
	for _, cache := range []bool{false, true} {
		runWorld(t, cfg, func(r *Rank) {
			r.Kernel = NewCPEKernel(r.FF, VariantFull)
			r.Kernel.SoftwareCache = cache
			r.computeForces()
			times[cache] = r.Kernel.StepTime
		})
	}
	if times[true] <= times[false] {
		t.Errorf("software cache (%.3g s) not slower than buffer mode (%.3g s)",
			times[true], times[false])
	}
}

// TestRanksSharePotential: every rank of an 8-rank world, and of a second
// world after it, reads the one potential eam.Shared holds for the key.
func TestRanksSharePotential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{12, 12, 12}
	cfg.Grid = [3]int{2, 2, 2}
	want := eam.Shared(cfg.Mode, cfg.TablePoints, units.Fe)
	for world := 0; world < 2; world++ {
		runWorld(t, cfg, func(r *Rank) {
			if r.Pot != want {
				t.Errorf("world %d rank %d: potential is not the shared instance", world, r.Comm.Rank())
			}
		})
	}
}
