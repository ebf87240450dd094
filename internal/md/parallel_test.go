package md

import (
	"fmt"
	"math"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/vec"
)

// atomState is everything the force passes produce for one atom.
type atomState struct {
	r, v, f vec.V
	rho     float64
}

// worldState collects the observables that must be bit-identical across
// worker counts: every atom's full state plus each rank's energy share and
// operation counts.
type worldState struct {
	atoms map[int64]atomState
	pe    []float64
	stats []OpStats
}

// gatherState advances `steps` steps of cfg on a fresh world (optionally
// attaching a kernel per rank) and snapshots every owned atom.
func gatherState(t *testing.T, cfg Config, steps int, attach func(r *Rank)) worldState {
	t.Helper()
	out := worldState{
		atoms: make(map[int64]atomState),
		pe:    make([]float64, cfg.Ranks()),
		stats: make([]OpStats, cfg.Ranks()),
	}
	w := mpi.NewWorld(cfg.Ranks())
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	w.Run(func(c *mpi.Comm) {
		r, err := NewRank(cfg, c)
		if err != nil {
			panic(err)
		}
		if attach != nil {
			attach(r)
		}
		for i := 0; i < steps; i++ {
			r.Step()
		}
		local := make(map[int64]atomState)
		r.Box.EachOwned(func(_ lattice.Coord, li int) {
			if !r.Store.IsVacancy(li) {
				local[r.Store.ID[li]] = atomState{
					r: r.Store.R[li], v: r.Store.Vel[li],
					f: r.Store.F[li], rho: r.Store.Rho[li],
				}
			}
			r.Store.EachRunaway(li, func(_ int32, a *neighbor.Runaway) {
				local[a.ID] = atomState{r: a.R, v: a.Vel, f: a.F, rho: a.Rho}
			})
		})
		<-mu
		for id, st := range local {
			out.atoms[id] = st
		}
		out.pe[c.Rank()] = r.LastPE
		out.stats[c.Rank()] = r.LastStats
		mu <- struct{}{}
	})
	return out
}

// requireIdentical asserts bit-exact equality of two world states.
func requireIdentical(t *testing.T, label string, want, got worldState) {
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
		if want.stats[rk] != got.stats[rk] {
			t.Fatalf("%s: rank %d op stats diverged:\n  want %+v\n  got  %+v",
				label, rk, want.stats[rk], got.stats[rk])
		}
	}
}

func TestWorkersEquivalence(t *testing.T) {
	// The tentpole property: the worker count is invisible in the results.
	// Positions, velocities, forces, densities, per-rank energy shares, and
	// operation counts are bit-identical for Workers ∈ {1, 2, 4, 7} —
	// serial reference included — for pure Fe and the Fe-Cu alloy, on one
	// rank (periodic self-exchange only) and across a 2-rank ghost
	// boundary, through a cascade that converts residents to run-aways and
	// migrates them between ranks.
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
			ref := gatherState(t, cfg, steps, nil)
			for _, workers := range []int{2, 4, 7} {
				cfg.Workers = workers
				got := gatherState(t, cfg, steps, nil)
				requireIdentical(t, fmt.Sprintf("%s/workers=%d", tc.name, workers), ref, got)
			}
		})
	}
}

func TestWorkersEquivalenceCPEKernel(t *testing.T) {
	// The same invariance through the CPE kernel, for multiple variants and
	// host worker counts — and against the plain pool itself: both shard
	// the owned cells 64 ways and reduce in chunk order, so the simulated
	// cluster and the host pool agree bitwise on every observable,
	// including the floating-point energy.
	cfg := smallConfig()
	cfg.Temperature = 600
	const steps = 3
	cfg.Workers = 1
	ref := gatherState(t, cfg, steps, nil)
	for _, variant := range []KernelVariant{VariantTraditional, VariantFull} {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			got := gatherState(t, cfg, steps, func(r *Rank) { r.AttachCPEKernel(variant) })
			requireIdentical(t, fmt.Sprintf("%v/workers=%d", variant, workers), ref, got)
		}
	}

	// The virtual clock cannot see the host: the accumulated step time and
	// the last round's DMA totals — what bench/probes.go reports as
	// sunway.virtual_us_per_step and sunway.dma_bytes_per_step — are
	// bit-identical for every worker count (0 = GOMAXPROCS).
	type virtualClock struct {
		stepTime         float64
		dmaOps, dmaBytes int64
	}
	for _, cu := range []float64{0, 0.25} {
		for _, variant := range []KernelVariant{VariantTraditional, VariantFull} {
			var ref virtualClock
			for _, workers := range []int{1, 3, 7, 0} {
				cfg.Workers = workers
				cfg.CuFraction = cu
				var got virtualClock
				runWorld(t, cfg, func(r *Rank) {
					k := r.AttachCPEKernel(variant)
					for i := 0; i < steps; i++ {
						r.Step()
					}
					got.stepTime = k.StepTime
					got.dmaOps, got.dmaBytes = k.CG.TotalDMA()
				})
				if got.stepTime <= 0 || got.dmaBytes <= 0 {
					t.Fatalf("cu=%v/%v/workers=%d: kernel not charged: %+v", cu, variant, workers, got)
				}
				if workers == 1 {
					ref = got
				} else if got != ref {
					t.Errorf("cu=%v/%v/workers=%d: virtual clock %+v, want bit-equal %+v",
						cu, variant, workers, got, ref)
				}
			}
		}
	}
}

func TestEnergyConservationNVEParallel(t *testing.T) {
	// Property test guarding the NVE integrator against force-kernel
	// regressions: over 200 thermostat-free steps the total energy must
	// drift by less than 2e-5 eV/atom — with multi-worker force passes and
	// with the CPE kernel attached, not just the serial reference the
	// original TestEnergyConservationNVE exercises.
	for _, tc := range []struct {
		name   string
		attach func(r *Rank)
	}{
		{"pool-4-workers", nil},
		{"cpe-kernel-full", func(r *Rank) { r.AttachCPEKernel(VariantFull) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Temperature = 300
			cfg.Workers = 4
			runWorld(t, cfg, func(r *Rank) {
				if tc.attach != nil {
					tc.attach(r)
				}
				ke0, pe0 := r.TotalEnergy()
				for i := 0; i < 200; i++ {
					r.Step()
				}
				ke1, pe1 := r.TotalEnergy()
				drift := math.Abs((ke1+pe1)-(ke0+pe0)) / float64(r.GlobalAtomCount())
				if drift > 2e-5 {
					t.Errorf("NVE drift %.3g eV/atom over 200 steps", drift)
				}
				if ke1 == ke0 {
					t.Errorf("kinetic energy frozen")
				}
			})
		})
	}
}

// poolMetric returns the named metric of a registry snapshot.
func poolMetric(t testing.TB, reg *telemetry.Registry, name string) telemetry.Metric {
	t.Helper()
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("metric %q not registered", name)
	return telemetry.Metric{}
}

// busyImbalance is max/mean of a worker-busy timer's records: 1.0 is a
// perfectly balanced dispatch, and a timer with no recorded time reports 1.
func busyImbalance(m telemetry.Metric) float64 {
	if m.SumNS <= 0 {
		return 1
	}
	return float64(m.MaxNS) * float64(m.Count) / float64(m.SumNS)
}

func TestForcePoolTimingCounters(t *testing.T) {
	// The host-side instrumentation of the pool, read from the rank's
	// telemetry registry: every worker's busy time is recorded per round,
	// the chunks the workers executed tile every pass exactly, and the
	// imbalance metric is well-formed — with and without a CPE kernel
	// attached, since the kernel is charged on the same dispatch loop.
	const workers, steps = 3, 2
	// Each pass is two barrier-separated rounds (gather+reduce,
	// fill+reduce) of ForceChunks chunks each.
	const roundsPerPass = 2
	for _, tc := range []struct {
		name   string
		attach func(r *Rank)
	}{
		{"pool", func(r *Rank) {}},
		{"cpe-kernel", func(r *Rank) { r.AttachCPEKernel(VariantFull) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Workers = workers
			runWorld(t, cfg, func(r *Rank) {
				tc.attach(r)
				reg := telemetry.New(r.Comm.Rank())
				r.AttachTelemetry(reg)
				for i := 0; i < steps; i++ {
					r.Step()
				}
				for _, pass := range []string{"density", "force"} {
					m := poolMetric(t, reg, "md/pool/"+pass+"-busy")
					if want := int64(steps * roundsPerPass * workers); m.Count != want {
						t.Errorf("%s pass: %d busy records, want %d (one per worker and round)", pass, m.Count, want)
					}
					if m.SumNS <= 0 {
						t.Errorf("%s pass: no busy time recorded", pass)
					}
					if im := busyImbalance(m); im < 1 || math.IsNaN(im) || math.IsInf(im, 0) {
						t.Errorf("%s pass: imbalance %v, want finite and >= 1", pass, im)
					}
				}
				chunks := poolMetric(t, reg, "md/pool/chunks").Value
				if want := int64(steps * 2 * roundsPerPass * ForceChunks); chunks != want {
					t.Errorf("%d chunks executed, want %d (%d per pass)", chunks, want, roundsPerPass*ForceChunks)
				}
				if r.Kernel != nil && r.Kernel.StepTime <= 0 {
					t.Errorf("attached kernel was not charged")
				}
			})
		})
	}
}
