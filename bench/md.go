package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mdkmc"
	"mdkmc/internal/couple"
	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/rng"
)

// Input-generation stream salts: every seeded choice the benchmark makes
// draws from rng.New(seed).Derive(salt), so workloads never share a stream.
const (
	saltPKA    = 0xB001
	saltJobMix = 0xB002
)

// maxDrift is the NVE gate on md-bulk: relative total-energy drift over one
// unit.
const maxDrift = 1e-4

// The traced MD harness steps the unit's trajectory, takes the digest at the
// unit's last step, and keeps stepping to harnessSteps so its timing samples
// do not depend on how short a unit is. Every replayEvery steps it replays
// the four exported force-path phases on the current state; the last
// allocSteps steps run bare (no spans, no replays) between two heap
// readings.
const (
	harnessSteps = 100
	replayEvery  = 5
	allocSteps   = 10
)

// mdWorkload is md-bulk or md-cascade: mdkmc.RunMD on a generated config.
type mdWorkload struct {
	name string
	cfg  mdkmc.MDConfig
	dir  string // scratch for the couple snapshot probes (md-cascade)

	sizing

	gateDrift     bool // NVE drift gate (md-bulk)
	wantVacancies bool // the cascade must displace atoms; the bulk must not

	e0 float64 // total energy of the initial state, from setup (drift gate)
}

func newMDBulk(seed uint64, tiny bool) *mdWorkload {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{20, 20, 20}
	cfg.Steps = 40
	if tiny {
		cfg.Cells = [3]int{8, 8, 8}
		cfg.Steps = 20
	}
	cfg.Workers = 1
	cfg.Temperature = 600
	cfg.Seed = seed
	return &mdWorkload{name: wlMDBulk, cfg: cfg, sizing: sizingFor(tiny), gateDrift: true}
}

func newMDCascade(seed uint64, tiny bool, dir string) *mdWorkload {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{28, 14, 14}
	cfg.Steps = 50
	energy := 2000.0
	if tiny {
		cfg.Cells = [3]int{16, 8, 8}
		cfg.Steps = 20
		energy = 300
	}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Workers = 1
	cfg.Temperature = 300
	cfg.Dt = 4e-4
	cfg.Seed = seed
	// The PKA sits at the box centre, on the boundary between the two
	// ranks; its direction is drawn from the seed.
	src := rng.New(seed).Derive(saltPKA)
	var dir3 [3]float64
	for dir3[0]*dir3[0]+dir3[1]*dir3[1]+dir3[2]*dir3[2] < 0.25 {
		dir3 = [3]float64{src.Norm(), src.Norm(), src.Norm()}
	}
	cfg.PKA = &mdkmc.PKA{Energy: energy, Direction: dir3}
	return &mdWorkload{name: wlMDCascade, cfg: cfg, dir: dir, sizing: sizingFor(tiny), wantVacancies: true}
}

func (w *mdWorkload) setup() (time.Duration, error) {
	var d time.Duration
	var e0 float64
	start := time.Now()
	err := mpi.NewWorld(w.cfg.Ranks()).RunE(func(c *mpi.Comm) error {
		r, err := md.NewRank(w.cfg, c)
		if err != nil {
			return err
		}
		c.Barrier()
		took := time.Since(start)
		ke, pe := r.TotalEnergy()
		if c.Rank() == 0 {
			d, e0 = took, ke+pe
		}
		return nil
	})
	w.e0 = e0
	return d, err
}

// mdDigest folds the result fields a trajectory determines: energy bits and
// the vacancy sites in canonical order.
func mdDigest(l *lattice.Lattice, ke, pe float64, sites []lattice.Coord) string {
	idx := make([]int, len(sites))
	for i, s := range sites {
		idx[i] = l.Index(l.Wrap(s))
	}
	sort.Ints(idx)
	var d digester
	d.float(ke)
	d.float(pe)
	d.int(len(idx))
	for _, i := range idx {
		d.int(i)
	}
	return d.sum()
}

func (w *mdWorkload) lattice() *lattice.Lattice {
	return lattice.New(w.cfg.Cells[0], w.cfg.Cells[1], w.cfg.Cells[2], w.cfg.A)
}

// check applies the correctness gate to a finished trajectory and returns
// the reasons it fails, if any.
func (w *mdWorkload) check(ke, pe float64, vacancies int) []string {
	var bad []string
	if math.IsNaN(ke+pe) || math.IsInf(ke+pe, 0) {
		bad = append(bad, fmt.Sprintf("energy not finite: ke=%v pe=%v", ke, pe))
	}
	if w.gateDrift && w.e0 != 0 {
		if drift := math.Abs((ke + pe - w.e0) / w.e0); drift > maxDrift {
			bad = append(bad, fmt.Sprintf("NVE drift %.3g exceeds %.3g", drift, maxDrift))
		}
	}
	if w.wantVacancies && vacancies == 0 {
		bad = append(bad, "cascade produced no vacancies")
	}
	if !w.wantVacancies && vacancies != 0 {
		bad = append(bad, fmt.Sprintf("perfect crystal grew %d vacancies", vacancies))
	}
	return bad
}

func (w *mdWorkload) unit() (unitOut, error) {
	if w.gateDrift && w.e0 == 0 {
		if _, err := w.setup(); err != nil {
			return unitOut{}, err
		}
	}
	start := time.Now()
	res, err := mdkmc.RunMD(w.cfg)
	wall := time.Since(start)
	if err != nil {
		return unitOut{}, err
	}
	out := unitOut{
		wall:   wall,
		work:   float64(res.Atoms) * float64(res.Steps),
		ops:    res.Steps,
		digest: mdDigest(w.lattice(), res.Kinetic, res.Potential, res.VacancySites),
	}
	out.gate(w.check(res.Kinetic, res.Potential, res.Vacancies))
	return out, nil
}

// traced is the per-layer pass of an MD workload.
func (w *mdWorkload) traced(tr *tracer, ref func() error) (map[string]float64, []string, error) {
	vals := map[string]float64{}
	root := tr.begin("bench.traced", 0, -1)
	defer tr.end(root)

	// The program's own telemetry, through the public option: tel.* shares,
	// the exact comm counts, and the wall that telemetry.overhead_share
	// compares with the untraced units.
	res, wall, digests, err := fastest(tr, "mdkmc.RunMD", root, w.reps, ref, func() (*mdkmc.MDResult, string, error) {
		r, err := mdkmc.RunMDCheckpointed(w.cfg, mdkmc.Checkpoint{},
			mdkmc.WithTelemetry(mdkmc.TelemetryOptions{Enabled: true}))
		if err != nil {
			return nil, "", err
		}
		return r, mdDigest(w.lattice(), r.Kinetic, r.Potential, r.VacancySites), nil
	})
	if err != nil {
		return nil, nil, err
	}
	vals["traced_wall_s"] = wall.Seconds()
	vals["md.atom_steps_per_s"] = float64(res.Atoms) * float64(res.Steps) / wall.Seconds()
	vals["mpi.msgs_per_step"] = float64(res.Comm.MsgsSent) / float64(res.Steps)
	vals["mpi.bytes_per_step"] = float64(res.Comm.BytesSent) / float64(res.Steps)
	mdShares(vals, res.Telemetry, telTotal(res.Telemetry, "md/step"))
	vals["tel.unattributed_share"] = 1 - telSum(res.Telemetry, mdStepChildren...)/telTotal(res.Telemetry, "md/step")

	// The in-process harness: the same trajectory stepped from outside,
	// with the exported phases replayed every replayEvery steps.
	h, err := w.harness(tr, root)
	if err != nil {
		return nil, nil, err
	}
	digests = append(digests, h.digest)
	for k, v := range h.vals {
		vals[k] = v
	}

	if w.name == wlMDBulk {
		probeEAM(tr, root, vals, w.cfg.TablePoints, eamEvals/w.probeDiv)
		probeNeighbor(tr, root, vals, w.cfg)
		probeTelemetrySpan(tr, root, vals, spanBrackets/w.probeDiv)
		if err := probeSunway(tr, root, vals); err != nil {
			return nil, nil, err
		}
	} else {
		probeMPI(tr, root, vals, mpiRounds/w.probeDiv)
	}
	return vals, digests, nil
}

// harnessOut is what the in-process MD harness measured.
type harnessOut struct {
	digest string
	vals   map[string]float64
}

// harness builds the ranks with md.NewRank and steps them from outside,
// timing Rank.Step on rank 0 and, every replayEvery steps, the four exported
// force-path phases replayed on the current state. The replays rewrite
// ghosts, densities and forces with the values they already hold, so the
// trajectory — and the digest — must equal the public call's.
func (w *mdWorkload) harness(tr *tracer, parent int) (*harnessOut, error) {
	cfg := w.cfg
	ranks := cfg.Ranks()
	vals := map[string]float64{}
	var (
		stepMS, posMS, rhoMS, densMS, forceMS []float64
		pairs, lookups                        int64
		steps, ke, pe                         float64
		sites                                 = make([][]lattice.Coord, ranks)
		ckptBytes                             = make([]int, ranks)
		bad                                   []string
	)
	var co *couple.Coordinator
	ckDir := filepath.Join(w.dir, "probe-ckpt")
	if w.name == wlMDCascade {
		var err error
		if co, err = couple.NewCoordinator(couple.Checkpoint{Dir: ckDir, Every: 1}, cfg.Hash()); err != nil {
			return nil, err
		}
	}
	err := mpi.NewWorld(ranks).RunE(func(c *mpi.Comm) error {
		me := c.Rank()
		rec := me == 0 // rank 0 records; every rank executes
		hs := tr.begin("md.harness", me, parent)
		defer tr.end(hs)

		id := tr.begin("md.new_rank", me, hs)
		r, err := md.NewRank(cfg, c)
		d := tr.end(id)
		if err != nil {
			tr.fail(id)
			return err
		}
		if rec {
			vals["md.new_rank_ms"] = ms(d)
		}
		atoms0 := r.GlobalAtomCount()

		total := max(cfg.Steps, harnessSteps/w.probeDiv)
		for i := 0; i < total; i++ {
			id := tr.begin("md.step", me, hs)
			t0 := time.Now()
			r.Step()
			d := time.Since(t0)
			tr.end(id)
			if rec {
				stepMS = append(stepMS, ms(d))
				pairs += r.LastStats.Pairs
				lookups += r.LastStats.Lookups
			}
			if (i+1)%replayEvery == 0 {
				rp := tr.begin("md.replay", me, hs)
				a := tr.timed("md.ghost_pos", me, rp, func() { r.Ex.ExchangePositions(r.Store) })
				b := tr.timed("md.density", me, rp, func() { r.Pool.Densities(r.Store) })
				g := tr.timed("md.ghost_rho", me, rp, func() { r.Ex.ExchangeDensities(r.Store) })
				f := tr.timed("md.force", me, rp, func() { r.Pool.Forces(r.Store) })
				tr.end(rp)
				if rec {
					posMS, densMS = append(posMS, ms(a)), append(densMS, ms(b))
					rhoMS, forceMS = append(rhoMS, ms(g)), append(forceMS, ms(f))
				}
			}
			if i+1 != cfg.Steps {
				continue
			}
			// The unit's final state: the digest inputs and the
			// conservation gates.
			k, p := r.TotalEnergy()
			vac := r.GlobalVacancyCount()
			atoms := r.GlobalAtomCount()
			sites[me] = r.OwnedVacancySites()
			if rec {
				ke, pe = k, p
				bad = w.check(k, p, vac)
				if atoms != atoms0 || atoms != cfg.NumAtoms() {
					bad = append(bad, fmt.Sprintf("atom count %d, started with %d of %d", atoms, atoms0, cfg.NumAtoms()))
				}
			}
		}
		if err := r.CoincidenceError(); err != nil {
			return err
		}
		if rec {
			steps = float64(total)
		}

		// Heap allocations per step over bare steps: the replays and the
		// tracer allocate; the program's step should not.
		var m0, m1 runtime.MemStats
		c.Barrier()
		if rec {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < allocSteps; i++ {
			r.Step()
		}
		c.Barrier()
		if rec {
			runtime.ReadMemStats(&m1)
			vals["md.allocs_per_step"] = float64(m1.Mallocs-m0.Mallocs) / allocSteps
		}

		// Checkpoint layer on the evolved state: Save/Restore to memory.
		var buf bytes.Buffer
		var saveErr, restoreErr error
		ds := tr.timed("md.save", me, hs, func() { saveErr = r.Save(&buf) })
		ckptBytes[me] = buf.Len()
		dr := tr.timed("md.restore", me, hs, func() { restoreErr = r.Restore(bytes.NewReader(buf.Bytes())) })
		if saveErr != nil {
			return saveErr
		}
		if restoreErr != nil {
			return restoreErr
		}
		if rec {
			vals["md.save_ms"], vals["md.restore_ms"] = ms(ds), ms(dr)
		}

		if w.name == wlMDBulk {
			// Pool scaling on this state: both passes at 1 worker and at
			// every core.
			pass := func() { r.Pool.Densities(r.Store); r.Pool.Forces(r.Store) }
			one := tr.timed("md.pool_1", me, hs, pass)
			r.Pool.Workers = runtime.GOMAXPROCS(0)
			all := tr.timed("md.pool_n", me, hs, pass)
			r.Pool.Workers = cfg.Workers
			vals["md.pool_speedup"] = one.Seconds() / all.Seconds()
			return nil
		}

		// couple layer on the 2-rank cascade state: a committed snapshot,
		// its same-topology restore, then (below) a 2→1 re-shard.
		topo := couple.Topology{Grid: cfg.Grid, Cuts: r.Grid.Cuts()}
		var snapErr error
		c.Barrier()
		dsnap := tr.timed("couple.snapshot", me, hs, func() {
			snapErr = co.Snapshot(c, couple.StageMD, r.StepCount, topo, nil, r.Save)
		})
		if snapErr != nil {
			return snapErr
		}
		var resErr error
		dres := tr.timed("couple.restore", me, hs, func() {
			man, err := couple.Latest(ckDir, cfg.Hash())
			if err != nil || man == nil {
				resErr = fmt.Errorf("couple.Latest: manifest %v, err %v", man, err)
				return
			}
			rc, err := man.Open(me)
			if err != nil {
				resErr = err
				return
			}
			resErr = r.Restore(rc)
			rc.Close()
		})
		if resErr != nil {
			return resErr
		}
		c.Barrier()
		if rec {
			vals["couple.snapshot_ms"], vals["couple.restore_ms"] = ms(dsnap), ms(dres)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("harness correctness gate: %v", bad)
	}

	var all []lattice.Coord
	total := 0
	for i := range sites {
		all = append(all, sites[i]...)
		total += ckptBytes[i]
	}
	vals["md.step_ms_p50"] = median(stepMS)
	vals["md.step_ms_p98"] = quantile(stepMS, 0.98)
	vals["md.ghost_pos_ms"] = median(posMS)
	vals["md.density_ms"] = median(densMS)
	vals["md.ghost_rho_ms"] = median(rhoMS)
	vals["md.force_ms"] = median(forceMS)
	vals["md.step_rest_ms"] = vals["md.step_ms_p50"] - vals["md.ghost_pos_ms"] - vals["md.density_ms"] - vals["md.ghost_rho_ms"] - vals["md.force_ms"]
	vals["md.pairs_per_step"] = float64(pairs) / steps
	vals["md.lookups_per_step"] = float64(lookups) / steps
	vals["md.ckpt_bytes_per_atom"] = float64(total) / float64(cfg.NumAtoms())

	if w.name == wlMDCascade {
		n, err := dirBytes(ckDir)
		if err != nil {
			return nil, err
		}
		vals["couple.snapshot_bytes"] = float64(n)
		d, err := w.reshardProbe(tr, parent, ckDir)
		if err != nil {
			return nil, err
		}
		vals["couple.reshard_restore_ms"] = ms(d)
	}
	return &harnessOut{digest: mdDigest(w.lattice(), ke, pe, all), vals: vals}, nil
}

// reshardProbe restores the 2-rank snapshot under ckDir onto one rank: the
// elastic path a preempted job takes when it resumes on a smaller grant.
func (w *mdWorkload) reshardProbe(tr *tracer, parent int, ckDir string) (time.Duration, error) {
	cfg := w.cfg
	cfg.Grid = [3]int{1, 1, 1}
	var d time.Duration
	err := mpi.NewWorld(1).RunE(func(c *mpi.Comm) error {
		r, err := md.NewRank(cfg, c)
		if err != nil {
			return err
		}
		man, err := couple.Latest(ckDir, cfg.Hash())
		if err != nil || man == nil {
			return fmt.Errorf("couple.Latest: manifest %v, err %v", man, err)
		}
		src, err := man.Topology.SourceGrid(r.L)
		if err != nil {
			return err
		}
		var resErr error
		d = tr.timed("couple.reshard_restore", 0, parent, func() {
			resErr = r.RestoreResharded(md.ShardSource{Grid: src, Open: man.Open})
		})
		return resErr
	})
	return d, err
}

// probeEAM measures the potential layer alone: table construction and the
// fused pair/density lookup over a fixed grid of separations.
func probeEAM(tr *tracer, parent int, vals map[string]float64, points, n int) {
	var pot *eam.Potential
	d := tr.timed("eam.table_build", 0, parent, func() { pot = eam.NewFe(eam.Compacted, points) })
	vals["eam.table_build_ms"] = ms(d)
	compacted, _ := pot.TableBytes()
	vals["eam.table_bytes"] = float64(compacted)

	sp := pot.Elements[0]
	var sink float64
	d = tr.timed("eam.pair_density", 0, parent, func() {
		for i := 0; i < n; i++ {
			// Separations sweep the tabulated range the way neighbours at
			// mixed distances do; the stride is coprime to the grid.
			r := 2.0 + (pot.Cutoff-2.0)*float64((i*7919)%n)/float64(n)
			phi, _, fab, _, _, _ := pot.PairDensity(sp, sp, r)
			sink += phi + fab
		}
	})
	vals["eam.pair_density_ns"] = float64(d.Nanoseconds()) / float64(n)
	if math.IsNaN(sink) {
		vals["eam.pair_density_ns"] = math.NaN()
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
