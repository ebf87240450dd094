package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mdkmc"
	"mdkmc/internal/cluster"
	"mdkmc/internal/couple"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
)

// campaignWorkload is campaign-ckpt: mdkmc.RunCampaign with a checkpoint
// directory at a cadence where the write path is a visible share of the
// wall.
type campaignWorkload struct {
	cfg  mdkmc.CoupledConfig
	dir  string
	runs int // units started; each gets its own checkpoint directory
	sizing
}

func newCampaign(seed uint64, tiny bool, dir string) *campaignWorkload {
	mcfg := mdkmc.DefaultMDConfig()
	mcfg.Cells = [3]int{24, 12, 12}
	mcfg.Steps = 40
	iters, cycles := 2, 100
	if tiny {
		mcfg.Cells = [3]int{16, 8, 8}
		mcfg.Steps = 30
		cycles = 40
	}
	mcfg.Grid = [3]int{2, 1, 1}
	mcfg.Workers = 1
	mcfg.Temperature = 300
	mcfg.TablePoints = 1000
	mcfg.Seed = seed
	cfg := mdkmc.CoupledConfig{
		MD:        mcfg,
		KMCCycles: cycles,
		Protocol:  mdkmc.ProtocolOnDemand,
		Campaign: mdkmc.CampaignSpec{
			Iters: iters,
			// Two 400 eV recoils per iteration: each is 4 NRT
			// displacements, and the increment asks for between 4 and 8.
			DoseIncrement: 6.0 / float64(mcfg.NumAtoms()),
			Energy:        400,
		},
		Checkpoint: mdkmc.Checkpoint{Every: 5},
	}
	return &campaignWorkload{cfg: cfg, dir: dir, sizing: sizingFor(tiny)}
}

func (w *campaignWorkload) setup() (time.Duration, error) {
	var d time.Duration
	start := time.Now()
	err := mpi.NewWorld(w.cfg.MD.Ranks()).RunE(func(c *mpi.Comm) error {
		if _, err := md.NewRank(w.cfg.MD, c); err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			d = time.Since(start)
		}
		return nil
	})
	return d, err
}

// campaignDigest folds the dose ledger and the final population.
func campaignDigest(l *lattice.Lattice, res *mdkmc.CampaignResult) string {
	var d digester
	d.float(res.Dose)
	d.int(res.Recoils)
	d.int(res.Events)
	d.float(res.MCTime)
	for _, row := range res.Ledger {
		d.int(row.Recoils)
		d.int(row.NewVacancies)
		d.int(row.Merged)
		d.int(row.Population)
		d.int(row.Events)
		d.float(row.MCTime)
		d.float(row.EnergyEV)
	}
	d.int(len(res.Population))
	for _, s := range res.Population {
		d.int(l.Index(l.Wrap(s)))
	}
	return d.sum()
}

func (w *campaignWorkload) lattice() *lattice.Lattice {
	c := w.cfg.MD
	return lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
}

// check is the campaign gate: the ledger identity Population = ΣNew −
// ΣMerged, and — when the run checkpointed — a committed snapshot that
// couple.Latest accepts.
func (w *campaignWorkload) check(res *mdkmc.CampaignResult, cfg mdkmc.CoupledConfig) []string {
	var bad []string
	if len(res.Ledger) != cfg.Campaign.Iters {
		bad = append(bad, fmt.Sprintf("%d ledger rows for %d iterations", len(res.Ledger), cfg.Campaign.Iters))
	}
	sum := 0
	for _, row := range res.Ledger {
		sum += row.NewVacancies - row.Merged
	}
	if n := len(res.Ledger); n > 0 {
		if last := res.Ledger[n-1].Population; last != sum || last != len(res.Population) {
			bad = append(bad, fmt.Sprintf("population %d (%d sites), ledger sums to %d", last, len(res.Population), sum))
		}
	}
	if res.Recoils == 0 {
		bad = append(bad, "no recoil applied")
	}
	if cfg.Checkpoint.Dir != "" {
		man, err := couple.Latest(cfg.Checkpoint.Dir, cfg.Hash())
		if err != nil || man == nil {
			bad = append(bad, fmt.Sprintf("no committed snapshot: manifest %v, err %v", man, err))
		}
	}
	return bad
}

// run executes the campaign once and applies the gate. Every checkpointing
// run writes into a fresh directory, removed once the run is checked.
func (w *campaignWorkload) run(checkpoint, telemetry bool) (*mdkmc.CampaignResult, unitOut, error) {
	cfg := w.cfg
	if checkpoint {
		w.runs++
		cfg.Checkpoint.Dir = filepath.Join(w.dir, fmt.Sprintf("ckpt-%d", w.runs))
		defer os.RemoveAll(cfg.Checkpoint.Dir)
	}
	cfg.Telemetry.Enabled = telemetry
	start := time.Now()
	res, err := mdkmc.RunCampaign(cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, unitOut{}, err
	}
	out := unitOut{
		wall:   wall,
		work:   float64(res.Iterations),
		ops:    res.Iterations,
		digest: campaignDigest(w.lattice(), res),
	}
	out.gate(w.check(res, cfg))
	return res, out, nil
}

func (w *campaignWorkload) unit() (unitOut, error) {
	_, out, err := w.run(true, false)
	return out, err
}

// best runs the campaign reps times inside spans, before (when not nil)
// ahead of each, and keeps the fastest repetition; a failed gate is an error
// here.
func (w *campaignWorkload) best(tr *tracer, parent int, span string, reps int, before func() error, checkpoint, telemetry bool) (*mdkmc.CampaignResult, time.Duration, []string, error) {
	return fastest(tr, span, parent, reps, before, func() (*mdkmc.CampaignResult, string, error) {
		r, out, err := w.run(checkpoint, telemetry)
		if err == nil && out.failed > 0 {
			err = fmt.Errorf("correctness gate: %v", out.problems)
		}
		return r, out.digest, err
	})
}

func (w *campaignWorkload) traced(tr *tracer, ref func() error) (map[string]float64, []string, error) {
	vals := map[string]float64{}
	root := tr.begin("bench.traced", 0, -1)
	defer tr.end(root)

	// With checkpoints and the program's telemetry on.
	res, wall, digests, err := w.best(tr, root, "mdkmc.RunCampaign", w.reps, ref, true, true)
	if err != nil {
		return nil, nil, err
	}
	vals["traced_wall_s"] = wall.Seconds()
	vals["couple.iterations_per_s"] = float64(res.Iterations) / wall.Seconds()
	rep := res.Telemetry
	// Shares of the whole call, on every rank: the denominator is the
	// outside-timed wall, so set-up, harvest and boundary snapshots land in
	// the unattributed remainder.
	total := float64(rep.Ranks) * float64(wall.Nanoseconds())
	mdShares(vals, rep, total)
	kmcShares(vals, rep, total)
	vals["tel.couple.md_stage_share"] = telTotal(rep, "couple/md-stage") / total
	vals["tel.couple.kmc_stage_share"] = telTotal(rep, "couple/kmc-stage") / total
	vals["tel.couple.checkpoint_share"] = telTotal(rep, "couple/checkpoint") / total
	vals["tel.unattributed_share"] = 1 - telSum(rep, "couple/md-stage", "couple/kmc-stage")/total

	// The checkpoint write path's share of the wall: the same campaign with
	// and without a checkpoint directory, telemetry off on both sides. The two
	// alternate, so a slow spell of the host lands on both; against the
	// reference units, which ran seconds earlier, the share swung from -15 %
	// to +18 % between two traced runs.
	var on, off time.Duration
	for i := 0; i < w.reps; i++ {
		_, with, dw, err := w.best(tr, root, "mdkmc.RunCampaign_ckpt", 1, nil, true, false)
		if err != nil {
			return nil, nil, err
		}
		_, without, do, err := w.best(tr, root, "mdkmc.RunCampaign_nockpt", 1, nil, false, false)
		if err != nil {
			return nil, nil, err
		}
		digests = append(append(digests, dw...), do...)
		if i == 0 || with < on {
			on = with
		}
		if i == 0 || without < off {
			off = without
		}
	}
	vals["couple.ckpt_overhead_share"] = (on - off).Seconds() / on.Seconds()

	// Clustering of the final population: the tail of every campaign call.
	l := w.lattice()
	d := tr.timed("cluster.vacancies", 0, root, func() { cluster.Vacancies(l, res.Population, 2) })
	vals["cluster.vacancies_ms"] = ms(d)
	return vals, digests, nil
}
