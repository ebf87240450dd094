package main

import (
	"fmt"
	"time"

	"mdkmc"
	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/okmc"
	"mdkmc/internal/telemetry"
)

// Layer probes: each times calls into one module's exported functions, from
// outside, inside a span. They are attached to one workload's traced run
// each (spec.go's On lists), so a traced run stays short.

// Probe loop lengths at the real sizes; the tiny sizes divide them by
// sizing.probeDiv.
const (
	eamEvals     = 1 << 20
	spanBrackets = 1 << 19
	mpiRounds    = 2000
	okmcEvents   = 2000
)

// probeNeighbor builds the lattice neighbor list for cfg's box.
func probeNeighbor(tr *tracer, parent int, vals map[string]float64, cfg mdkmc.MDConfig) {
	l := lattice.New(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.A)
	pot := eam.NewFe(cfg.Mode, cfg.TablePoints)
	tab := l.NeighborOffsets(pot.Cutoff + md.WideMargin)
	grid, err := lattice.NewGridCuts(l, 1, 1, 1, cfg.Cuts)
	if err != nil {
		return // the rank constructor reports the same error
	}
	box := grid.Box(0, tab.MaxCellReach())
	var s *neighbor.Store
	d := tr.timed("neighbor.store_build", 0, parent, func() { s = neighbor.NewStore(box, tab, cfg.Species) })
	vals["neighbor.store_build_ms"] = ms(d)
	vals["neighbor.store_bytes_per_site"] = float64(s.MemoryBytes()) / float64(len(s.ID))
}

// probeTelemetrySpan measures the cost of one telemetry span bracket, the
// unit every tel.* share is built from.
func probeTelemetrySpan(tr *tracer, parent int, vals map[string]float64, n int) {
	timer := telemetry.New(0).Timer("bench/span")
	d := tr.timed("telemetry.span", 0, parent, func() {
		for i := 0; i < n; i++ {
			timer.Begin().End()
		}
	})
	vals["telemetry.span_ns"] = float64(d.Nanoseconds()) / float64(n)
}

// sunwayCells and sunwaySteps size the CPE-kernel probe: large enough that
// every CPE owns sites, small enough to step in well under a second.
const (
	sunwayCells = 12
	sunwaySteps = 3
)

// probeSunway steps a small crystal through the simulated CPE kernel and
// reads its deterministic virtual clock and DMA counters — the quantities
// behind the paper's Figure 9.
func probeSunway(tr *tracer, parent int, vals map[string]float64) error {
	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{sunwayCells, sunwayCells, sunwayCells}
	cfg.Workers = 1
	return mpi.NewWorld(1).RunE(func(c *mpi.Comm) error {
		r, err := md.NewRank(cfg, c)
		if err != nil {
			return err
		}
		k := r.AttachCPEKernel(md.VariantFull)
		id := tr.begin("sunway.steps", 0, parent)
		for i := 0; i < sunwaySteps; i++ {
			r.Step()
		}
		tr.end(id)
		// TotalDMA covers the last kernel round; StepTime accumulates.
		_, bytes := k.CG.TotalDMA()
		vals["sunway.virtual_us_per_step"] = k.StepTime / sunwaySteps * 1e6
		vals["sunway.dma_bytes_per_step"] = float64(bytes)
		return nil
	})
}

// probeMPI measures the in-process message runtime between two ranks: a
// 64 KiB ping-pong (the size of an md-cascade ghost message) and a scalar
// Allreduce (the KMC time-window sync).
func probeMPI(tr *tracer, parent int, vals map[string]float64, rounds int) {
	const tag = 7
	payload := make([]byte, 64<<10)
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		me, peer := c.Rank(), 1-c.Rank()
		c.Barrier()
		id := tr.begin("mpi.pingpong", me, parent)
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if me == 0 {
				c.Send(peer, tag, payload)
				c.Recv(peer, tag)
			} else {
				c.Recv(peer, tag)
				c.Send(peer, tag, payload)
			}
		}
		d := time.Since(t0)
		tr.end(id)
		if me == 0 {
			vals["mpi.pingpong_64k_us"] = us(d) / float64(rounds)
		}
		c.Barrier()
		id = tr.begin("mpi.allreduce", me, parent)
		t0 = time.Now()
		for i := 0; i < rounds; i++ {
			c.Allreduce(mpi.Max, float64(i))
		}
		d = time.Since(t0)
		tr.end(id)
		if me == 0 {
			vals["mpi.allreduce_us"] = us(d) / float64(rounds)
		}
	})
}

// probeOKMC times object-KMC events on a random 500-monomer population:
// the anneal the serve-mix victim campaign runs between preemptions.
func probeOKMC(tr *tracer, parent int, vals map[string]float64, seed uint64, events int) error {
	cfg := okmc.DefaultConfig()
	cfg.Cells = [3]int{16, 8, 8}
	cfg.Seed = seed
	sim, err := okmc.NewRandom(cfg, 500)
	if err != nil {
		return err
	}
	done := 0
	d := tr.timed("okmc.steps", 0, parent, func() {
		for done < events && sim.Step() {
			done++
		}
	})
	if done == 0 {
		return fmt.Errorf("okmc: no event executed")
	}
	vals["okmc.step_us"] = us(d) / float64(done)
	return nil
}

// Telemetry report helpers: the tel.* metrics are the program's own span
// totals, summed over ranks, as a share of a summed parent span.

func telTotal(rep *telemetry.Report, name string) float64 {
	if m := rep.Metric(name); m != nil {
		return m.Sum
	}
	return 0
}

func telSum(rep *telemetry.Report, names ...string) float64 {
	total := 0.0
	for _, n := range names {
		total += telTotal(rep, n)
	}
	return total
}

// mdStepChildren are the spans that tile md/step: what they leave over is
// integration plus loop overhead, reported as unattributed.
var mdStepChildren = []string{
	"md/relink", "md/density", "md/force",
	"md/ghost/pos/pack", "md/ghost/pos/wait", "md/ghost/pos/unpack",
	"md/ghost/rho/pack", "md/ghost/rho/wait", "md/ghost/rho/unpack",
}

// mdShares fills the tel.md.* metrics as shares of total (ns summed over
// ranks).
func mdShares(vals map[string]float64, rep *telemetry.Report, total float64) {
	share := func(names ...string) float64 { return telSum(rep, names...) / total }
	vals["tel.md.density_share"] = share("md/density")
	vals["tel.md.force_share"] = share("md/force")
	vals["tel.md.relink_share"] = share("md/relink")
	vals["tel.md.ghost_pos_wait_share"] = share("md/ghost/pos/wait")
	vals["tel.md.ghost_rho_wait_share"] = share("md/ghost/rho/wait")
	vals["tel.md.ghost_pack_unpack_share"] = share("md/ghost/pos/pack", "md/ghost/pos/unpack", "md/ghost/rho/pack", "md/ghost/rho/unpack")
	vals["tel.md.migrate_share"] = share("md/ghost/migrate")
}

// kmcShares fills the tel.kmc.* metrics as shares of total.
func kmcShares(vals map[string]float64, rep *telemetry.Report, total float64) {
	vals["tel.kmc.sync_share"] = telTotal(rep, "kmc/sync") / total
	vals["tel.kmc.sector_share"] = telTotal(rep, "kmc/sector") / total
	vals["tel.kmc.flush_share"] = telTotal(rep, "kmc/ghost/flush") / total
}
