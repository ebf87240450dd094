package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mdkmc"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// shareCycles is the number of identical cycles over which the traced pass
// compares on-demand with traditional ghost traffic (the paper's Fig. 12).
const shareCycles = 200

// kmcWorkload is kmc-anneal: mdkmc.RunKMC on dilute random vacancies.
type kmcWorkload struct {
	cfg    mdkmc.KMCConfig
	cycles int

	sizing

	vac0 int // initial global vacancy count, from setup (conservation gate)
}

func newKMCAnneal(seed uint64, tiny bool) *kmcWorkload {
	cfg := mdkmc.DefaultKMCConfig()
	cfg.Cells = [3]int{32, 16, 16}
	cycles := 2000
	if tiny {
		cfg.Cells = [3]int{20, 10, 10}
		cycles = 300
	}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Protocol = mdkmc.ProtocolOnDemand
	cfg.VacancyConcentration = 4e-3
	cfg.Seed = seed
	return &kmcWorkload{cfg: cfg, cycles: cycles, sizing: sizingFor(tiny)}
}

func (w *kmcWorkload) setup() (time.Duration, error) {
	var d time.Duration
	var vac int
	start := time.Now()
	err := mpi.NewWorld(w.cfg.Ranks()).RunE(func(c *mpi.Comm) error {
		st, err := kmc.NewState(w.cfg, c)
		if err != nil {
			return err
		}
		c.Barrier()
		took := time.Since(start)
		n := st.GlobalVacancyCount()
		if c.Rank() == 0 {
			d, vac = took, n
		}
		return nil
	})
	w.vac0 = vac
	return d, err
}

// kmcDigest folds events, MC-time bits and the final vacancy sites.
func kmcDigest(l *lattice.Lattice, events int, mcTime float64, sites []lattice.Coord) string {
	idx := make([]int, len(sites))
	for i, s := range sites {
		idx[i] = l.Index(l.Wrap(s))
	}
	sort.Ints(idx)
	var d digester
	d.int(events)
	d.float(mcTime)
	d.int(len(idx))
	for _, i := range idx {
		d.int(i)
	}
	return d.sum()
}

func (w *kmcWorkload) lattice() *lattice.Lattice {
	return lattice.New(w.cfg.Cells[0], w.cfg.Cells[1], w.cfg.Cells[2], w.cfg.A)
}

func (w *kmcWorkload) check(vacancies, events int, mcTime float64) []string {
	var bad []string
	if w.vac0 > 0 && vacancies != w.vac0 {
		bad = append(bad, fmt.Sprintf("vacancies %d, started with %d", vacancies, w.vac0))
	}
	if events <= 0 {
		bad = append(bad, "no event executed")
	}
	if !(mcTime > 0) {
		bad = append(bad, fmt.Sprintf("MC time %v did not advance", mcTime))
	}
	return bad
}

func (w *kmcWorkload) unit() (unitOut, error) {
	if w.vac0 == 0 {
		if _, err := w.setup(); err != nil {
			return unitOut{}, err
		}
	}
	start := time.Now()
	res, err := mdkmc.RunKMC(w.cfg, w.cycles, 0)
	wall := time.Since(start)
	if err != nil {
		return unitOut{}, err
	}
	out := unitOut{
		wall:   wall,
		work:   float64(res.Events),
		ops:    res.Cycles,
		digest: kmcDigest(w.lattice(), res.Events, res.MCTime, res.VacancySites),
	}
	out.gate(w.check(res.Vacancies, res.Events, res.MCTime))
	return out, nil
}

func (w *kmcWorkload) traced(tr *tracer, ref func() error) (map[string]float64, []string, error) {
	vals := map[string]float64{}
	root := tr.begin("bench.traced", 0, -1)
	defer tr.end(root)

	res, wall, digests, err := fastest(tr, "mdkmc.RunKMC", root, w.reps, ref, func() (*mdkmc.KMCResult, string, error) {
		r, err := mdkmc.RunKMCCheckpointed(w.cfg, w.cycles, 0, mdkmc.Checkpoint{},
			mdkmc.WithTelemetry(mdkmc.TelemetryOptions{Enabled: true}))
		if err != nil {
			return nil, "", err
		}
		return r, kmcDigest(w.lattice(), r.Events, r.MCTime, r.VacancySites), nil
	})
	if err != nil {
		return nil, nil, err
	}
	cycles := float64(res.Cycles)
	vals["traced_wall_s"] = wall.Seconds()
	vals["kmc.events_per_s"] = float64(res.Events) / wall.Seconds()
	vals["kmc.events_per_cycle"] = float64(res.Events) / cycles
	vals["kmc.msgs_per_cycle"] = float64(res.Comm.MsgsSent) / cycles
	vals["kmc.bytes_per_cycle"] = float64(res.Comm.BytesSent) / cycles
	total := telTotal(res.Telemetry, "kmc/cycle")
	kmcShares(vals, res.Telemetry, total)
	vals["tel.unattributed_share"] = 1 - telSum(res.Telemetry, "kmc/sync", "kmc/sector", "kmc/ghost/flush")/total

	d, err := w.harness(tr, root, vals)
	if err != nil {
		return nil, nil, err
	}
	digests = append(digests, d)

	onDemand, err := w.ghostBytes(tr, root, kmc.OnDemand)
	if err != nil {
		return nil, nil, err
	}
	traditional, err := w.ghostBytes(tr, root, kmc.Traditional)
	if err != nil {
		return nil, nil, err
	}
	vals["kmc.ondemand_bytes_share"] = float64(onDemand) / float64(traditional)
	probeMPI(tr, root, vals, mpiRounds/w.probeDiv)
	return vals, digests, nil
}

// harness steps kmc.State from outside, timing every Cycle on rank 0, then
// probes Save/Restore on the evolved state. It returns the digest of the
// trajectory, which must equal the public call's.
func (w *kmcWorkload) harness(tr *tracer, parent int, vals map[string]float64) (string, error) {
	ranks := w.cfg.Ranks()
	var (
		cycleUS []float64
		events  int
		mcTime  float64
		bad     []string
		sites   = make([][]lattice.Coord, ranks)
	)
	err := mpi.NewWorld(ranks).RunE(func(c *mpi.Comm) error {
		me := c.Rank()
		rec := me == 0
		hs := tr.begin("kmc.harness", me, parent)
		defer tr.end(hs)

		id := tr.begin("kmc.new_state", me, hs)
		st, err := kmc.NewState(w.cfg, c)
		d := tr.end(id)
		if err != nil {
			tr.fail(id)
			return err
		}
		if rec {
			vals["kmc.new_state_ms"] = ms(d)
		}

		var m0, m1 runtime.MemStats
		c.Barrier()
		if rec {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for st.Cycles < w.cycles {
			id := tr.begin("kmc.cycle", me, hs)
			before := st.Time
			t0 := time.Now()
			st.Cycle()
			d := time.Since(t0)
			tr.end(id)
			if !(st.Time > before) {
				tr.fail(id)
			}
			if rec {
				cycleUS = append(cycleUS, us(d))
			}
		}
		c.Barrier()
		if rec {
			runtime.ReadMemStats(&m1)
			// Both ranks and the tracer's own span records are inside the
			// window; the tracer's share is two 64-byte records per cycle.
			vals["kmc.alloc_bytes_per_cycle"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(w.cycles)
		}

		tot := c.Allreduce(mpi.Sum, float64(st.Events))
		vac := st.GlobalVacancyCount()
		sites[me] = st.VacancySites()
		if rec {
			events, mcTime = int(tot[0]+0.5), st.Time
			bad = w.check(vac, events, mcTime)
		}

		var buf bytes.Buffer
		var saveErr, restoreErr error
		ds := tr.timed("kmc.save", me, hs, func() { saveErr = st.Save(&buf) })
		dr := tr.timed("kmc.restore", me, hs, func() { restoreErr = st.Restore(bytes.NewReader(buf.Bytes())) })
		if saveErr != nil {
			return saveErr
		}
		if restoreErr != nil {
			return restoreErr
		}
		if rec {
			vals["kmc.save_ms"], vals["kmc.restore_ms"] = ms(ds), ms(dr)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if len(bad) > 0 {
		return "", fmt.Errorf("harness correctness gate: %v", bad)
	}
	vals["kmc.cycle_us_p50"] = median(cycleUS)
	vals["kmc.cycle_us_p99"] = quantile(cycleUS, 0.99)
	var all []lattice.Coord
	for _, s := range sites {
		all = append(all, s...)
	}
	return kmcDigest(w.lattice(), events, mcTime, all), nil
}

// ghostBytes runs shareCycles cycles under the given protocol and returns
// the bytes all ranks sent. The trajectory is protocol-independent, so the
// two protocols move their bytes for identical events.
func (w *kmcWorkload) ghostBytes(tr *tracer, parent int, proto kmc.Protocol) (int64, error) {
	cfg := w.cfg
	cfg.Protocol = proto
	sent := make([]int64, cfg.Ranks())
	err := mpi.NewWorld(cfg.Ranks()).RunE(func(c *mpi.Comm) error {
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			return err
		}
		base := st.Stats().BytesSent
		id := tr.begin("kmc.cycles_"+proto.String(), c.Rank(), parent)
		for i := 0; i < shareCycles/w.probeDiv; i++ {
			st.Cycle()
		}
		tr.end(id)
		sent[c.Rank()] = st.Stats().BytesSent - base
		return nil
	})
	var total int64
	for _, b := range sent {
		total += b
	}
	return total, err
}
