// Command figures regenerates every figure of the paper's evaluation
// (Figures 9-17). Each figure prints three blocks:
//
//   - "measured": a real laptop-scale run of the implemented system (goroutine
//     ranks, virtual-clock Sunway kernel, byte-exact communication counters);
//   - "model": the calibrated analytic model evaluated at the paper's machine
//     scale (internal/perf; see DESIGN.md §2 for the substitution rationale);
//   - "paper": the values the paper reports, for side-by-side comparison.
//
// Usage:
//
//	figures            # all figures
//	figures -fig 12    # only Figure 12
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"mdkmc"
	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/perf"
)

// telOpts configures telemetry for the coupled measured runs (fig16/fig17).
// Populated from the -metrics* flags in main.
var telOpts mdkmc.TelemetryOptions

func main() {
	figFlag := flag.Int("fig", 0, "figure number to regenerate (0 = all)")
	quick := flag.Bool("quick", false, "smaller measured runs")
	metrics := flag.Bool("metrics", false, "collect runtime telemetry on the coupled runs (fig 16/17) and print per-phase reports")
	metricsOut := flag.String("metrics-out", "", "write telemetry snapshots and reports as JSONL (implies -metrics; last coupled run wins)")
	metricsAddr := flag.String("metrics-addr", "", "serve a Prometheus-style text exposition on ADDR/metrics (implies -metrics)")
	metricsEvery := flag.Int("metrics-every", 0, "periodic JSONL flush cadence in MD steps / KMC cycles (0 = final only)")
	flag.Parse()
	telOpts = mdkmc.TelemetryOptions{
		Enabled:    *metrics || *metricsOut != "" || *metricsAddr != "",
		JSONLPath:  *metricsOut,
		FlushEvery: *metricsEvery,
		HTTPAddr:   *metricsAddr,
	}

	figs := map[int]func(bool){
		9: fig9, 10: fig10, 11: fig11, 12: fig12, 13: fig13,
		14: fig14, 15: fig15, 16: fig16, 17: fig17,
	}
	if *figFlag != 0 {
		fn, ok := figs[*figFlag]
		if !ok {
			log.Fatalf("no such figure: %d (have 9-17)", *figFlag)
		}
		fn(*quick)
		return
	}
	for f := 9; f <= 17; f++ {
		figs[f](*quick)
	}
}

func header(title string) {
	fmt.Printf("\n========== %s ==========\n", title)
}

// fig9 — MD optimization ablation on the Sunway kernel. The per-atom
// virtual kernel time of each variant is measured once on a box large
// enough that every CPE slab spans several LDM blocks (so the reuse and
// double-buffer effects are exercised), then scaled to the paper's
// strong-scaling workload with the inter-CG communication model added.
func fig9(quick bool) {
	header("Figure 9: MD optimizations (2e7 atoms, 65-1040 cores)")
	const paperAtoms = 2e7
	side := 24
	if quick {
		side = 20
	}
	variants := []md.KernelVariant{
		md.VariantTraditional, md.VariantCompacted,
		md.VariantCompactedReuse, md.VariantFull,
	}
	perAtom := make([]float64, len(variants))
	for vi, v := range variants {
		cfg := md.DefaultConfig()
		cfg.Cells = [3]int{side, side, side}
		cfg.Temperature = 600
		w := mpi.NewWorld(1)
		w.Run(func(c *mpi.Comm) {
			rank, err := md.NewRank(cfg, c)
			if err != nil {
				log.Fatalf("fig9: md rank setup (%v cells): %v", cfg.Cells, err)
			}
			rank.AttachCPEKernel(v)
			rank.Step() // one full step through the CPE kernel
			perAtom[vi] = rank.Kernel.StepTime / float64(cfg.NumAtoms())
		})
	}
	model := perf.DefaultMDModel()
	fmt.Printf("%8s %22s %22s %22s %22s\n", "cores",
		"TraditionalTable", "CompactedTable", "+DataReuse", "+DoubleBuffer")
	type row struct{ times [4]float64 }
	var rows []row
	for _, cgs := range []int{1, 2, 4, 8, 16} {
		atomsPerCG := paperAtoms / float64(cgs)
		var r row
		for vi := range variants {
			_, comm := model.StepTime(atomsPerCG, cgs)
			r.times[vi] = 100 * (perAtom[vi]*atomsPerCG + comm)
		}
		rows = append(rows, r)
		fmt.Printf("%8d %20.1fs %20.1fs %20.1fs %20.1fs\n",
			cgs*perf.CoresPerCG, r.times[0], r.times[1], r.times[2], r.times[3])
	}
	// Aggregate improvements (geometric mean over core counts).
	gm := func(idxA, idxB int) float64 {
		prod := 1.0
		for _, r := range rows {
			prod *= r.times[idxA] / r.times[idxB]
		}
		return math.Pow(prod, 1/float64(len(rows)))
	}
	fmt.Printf("geomean: compaction %.1f%% faster (paper 54.7%%), reuse +%.1f%%, double buffer +%.1f%%\n",
		100*(1-1/gm(0, 1)), 100*(1-1/gm(1, 2)), 100*(1-1/gm(2, 3)))
}

// fig10 — MD strong scaling. With GOMAXPROCS=1 wall-clock speedup is not
// observable (goroutine ranks share one CPU), so the measured block reports
// the scaling *structure*: total work conserved across decompositions and
// per-rank communication shrinking with the subdomain surface.
func fig10(quick bool) {
	header("Figure 10: MD strong scaling (3.2e10 atoms)")
	fmt.Printf("measured (fixed box split 1-8 ways; %d CPU(s) available):\n", runtime.NumCPU())
	cells := [3]int{16, 16, 16}
	if quick {
		cells = [3]int{12, 12, 12}
	}
	grids := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}}
	for _, g := range grids {
		ranks := g[0] * g[1] * g[2]
		t, bytes := measureMD(cells, g, 5)
		fmt.Printf("  ranks %2d: aggregate wall %7.3fs, ghost bytes/rank/step %8.0f\n",
			ranks, t, float64(bytes)/float64(ranks)/5)
	}
	fmt.Println("  (aggregate wall ~constant = compute conserved; bytes/rank shrink with the surface)")
	fmt.Println("\nmodel at paper scale:")
	fmt.Print(perf.FormatSeries("  (97,500 -> 6,240,000 master+slave cores)", perf.Fig10Strong()))
	fmt.Println("paper: 26.4x speedup, 41.3% parallel efficiency at 64x cores")
}

// fig11 — MD weak scaling.
func fig11(quick bool) {
	header("Figure 11: MD weak scaling (3.9e7 atoms per core group)")
	per := 10
	if quick {
		per = 8
	}
	fmt.Println("measured (fixed cells per rank; per-rank wall and comm should stay ~flat):")
	var base float64
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		cells := [3]int{per * g[0], per * g[1], per * g[2]}
		ranks := g[0] * g[1] * g[2]
		t, bytes := measureMD(cells, g, 5)
		perRank := t / float64(ranks) // one CPU: wall divides across ranks
		if ranks == 1 {
			base = perRank
		}
		fmt.Printf("  ranks %2d (%7d atoms): wall/rank %7.3fs (eff %5.1f%%), ghost bytes/rank/step %8.0f\n",
			ranks, 2*cells[0]*cells[1]*cells[2], perRank, 100*base/perRank,
			float64(bytes)/float64(ranks)/5)
	}
	fmt.Println("\nmodel at paper scale:")
	fmt.Print(perf.FormatSeries("  (104,000 -> 6,656,000 cores)", perf.Fig11Weak()))
	// Capacity contrast: from the neighbor structure alone, as the paper
	// states it, and from everything a rank of ours holds.
	structBytes, rankBytes, atoms := mdBytesPerAtom()
	latticeAtoms, verletAtoms := perf.MDMemoryCapacity(102400, 8<<30, structBytes, 480)
	rankAtoms, _ := perf.MDMemoryCapacity(102400, 8<<30, rankBytes, 480)
	fmt.Printf("capacity on 102,400 CGs x 8 GB: lattice list %.2g atoms (structure alone, %d B/site), Verlet list %.2g atoms (480 B/atom)\n",
		latticeAtoms, structBytes, verletAtoms)
	fmt.Printf("  whole rank (store + ghost shell + force field and pair stream + exchange buffers): %d B/atom measured on a %d-atom rank -> %.2g atoms\n",
		rankBytes, atoms, rankAtoms)
	fmt.Println("paper: 85% efficiency at 6,656,000 cores; 4e12 atoms vs 8e11 with traditional structures")
}

// mdBytesPerAtom builds the 20^3 single-rank box of the md-bulk benchmark
// and returns the lattice neighbor list's bytes per stored site, the whole
// rank's bytes per owned atom, and the atom count.
func mdBytesPerAtom() (structBytes, rankBytes, atoms int) {
	cfg := md.DefaultConfig()
	cfg.Cells = [3]int{20, 20, 20}
	cfg.TablePoints = 1000
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		rank, err := md.NewRank(cfg, c)
		if err != nil {
			log.Fatalf("md memory measurement setup: %v", err)
		}
		atoms = md.CountOwnedAtoms(rank.Store)
		structBytes = rank.Store.MemoryBytes() / rank.Box.NumLocalSites()
		rankBytes = rank.MemoryBytes() / atoms
	})
	return
}

// measureMD runs a short MD segment and returns the aggregate wall time and
// the total ghost-exchange bytes sent across all ranks during the steps.
func measureMD(cells, grid [3]int, steps int) (float64, int64) {
	cfg := md.DefaultConfig()
	cfg.Cells = cells
	cfg.Grid = grid
	cfg.TablePoints = 1000
	bytes := make([]int64, cfg.Ranks())
	start := time.Now()
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		rank, err := md.NewRank(cfg, c)
		if err != nil {
			log.Fatalf("md measurement setup (%v cells, %v grid): %v", cells, grid, err)
		}
		before := c.Stats().BytesSent
		for i := 0; i < steps; i++ {
			rank.Step()
		}
		bytes[c.Rank()] = c.Stats().BytesSent - before
	})
	var total int64
	for _, b := range bytes {
		total += b
	}
	return time.Since(start).Seconds(), total
}

// kmcVolume runs a KMC configuration and returns total bytes and messages
// sent across ranks during the cycles.
func kmcVolume(cfg kmc.Config, cycles int) (bytes, msgs int64) {
	w := mpi.NewWorld(cfg.Ranks())
	results := make([]mpi.Stats, cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			log.Fatalf("kmc volume measurement setup (%v grid): %v", cfg.Grid, err)
		}
		base := st.Stats()
		for i := 0; i < cycles; i++ {
			st.Cycle()
		}
		s := st.Stats()
		s.MsgsSent -= base.MsgsSent
		s.BytesSent -= base.BytesSent
		results[c.Rank()] = s
	})
	for _, s := range results {
		bytes += s.BytesSent
		msgs += s.MsgsSent
	}
	return
}

// fig12 — KMC communication volume.
func fig12(quick bool) {
	header("Figure 12: KMC communication volume (1.6e7 sites, Cv=4.5e-5)")
	fmt.Println("measured (byte-exact counters, goroutine ranks):")
	cycles := 5
	if quick {
		cycles = 3
	}
	for _, g := range [][3]int{{2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		cfg := kmc.DefaultConfig()
		cfg.Cells = [3]int{11 * g[0], 11 * g[1], 11 * g[2]}
		cfg.Grid = g
		cfg.VacancyConcentration = 5e-4
		cfg.Protocol = kmc.Traditional
		tb, _ := kmcVolume(cfg, cycles)
		cfg.Protocol = kmc.OnDemand
		ob, _ := kmcVolume(cfg, cycles)
		fmt.Printf("  ranks %2d: traditional %8d B, on-demand %7d B  (%.2f%%)\n",
			cfg.Ranks(), tb, ob, 100*float64(ob)/float64(tb))
	}
	fmt.Println("\nmodel at paper scale (MB over 1000 cycles):")
	cores, trad, od := perf.Fig12Volumes(1000)
	for i := range cores {
		fmt.Printf("  %5d cores: traditional %8.1f MB, on-demand %6.2f MB (%.2f%%)\n",
			cores[i], trad[i], od[i], 100*od[i]/trad[i])
	}
	fmt.Println("paper: on-demand volume = 2.6% of traditional on average")
}

// fig13 — KMC communication time.
func fig13(bool) {
	header("Figure 13: KMC communication time (1.6e7 sites, Cv=4.5e-5)")
	fmt.Println("model at paper scale (alpha-beta network, s over 1000 cycles):")
	cores, trad, od := perf.Fig13Times(1000)
	for i := range cores {
		fmt.Printf("  %5d cores: traditional %8.3fs, on-demand %7.4fs (%.1fx)\n",
			cores[i], trad[i], od[i], trad[i]/od[i])
	}
	fmt.Println("paper: 21x average communication-time speedup")
}

// fig14 — KMC strong scaling.
func fig14(quick bool) {
	header("Figure 14: KMC strong scaling (3.2e10 sites, Cv=4.5e-5)")
	fmt.Println("measured (fixed box split 1-4 ways; aggregate wall ~constant on 1 CPU):")
	cells := [3]int{22, 22, 22}
	if quick {
		cells = [3]int{22, 11, 11}
	}
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		cfg := kmc.DefaultConfig()
		cfg.Cells = cells
		cfg.Grid = g
		cfg.VacancyConcentration = 1e-3
		start := time.Now()
		w := mpi.NewWorld(cfg.Ranks())
		w.Run(func(c *mpi.Comm) {
			st, err := kmc.NewState(cfg, c)
			if err != nil {
				log.Fatalf("fig14: kmc state setup (%v grid): %v", cfg.Grid, err)
			}
			for i := 0; i < 10; i++ {
				st.Cycle()
			}
		})
		t := time.Since(start).Seconds()
		fmt.Printf("  ranks %2d: aggregate wall %7.3fs\n", cfg.Ranks(), t)
	}
	fmt.Println("\nmodel at paper scale:")
	fmt.Print(perf.FormatSeries("  (1,500 -> 48,000 master cores)", perf.Fig14Strong()))
	fmt.Println("paper: 18.5x / 58.2% at 48,000 cores; super-linear from 3,000 to 12,000 (L2 cache)")
}

// fig15 — KMC weak scaling.
func fig15(bool) {
	header("Figure 15: KMC weak scaling (1e7 sites per core, Cv=2e-6)")
	fmt.Println("measured (fixed sites per rank; wall/rank ~flat on 1 CPU = weak-scaled work):")
	var base float64
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		cfg := kmc.DefaultConfig()
		cfg.Cells = [3]int{12 * g[0], 12 * g[1], 12 * g[2]}
		cfg.Grid = g
		cfg.VacancyConcentration = 1e-3
		start := time.Now()
		w := mpi.NewWorld(cfg.Ranks())
		w.Run(func(c *mpi.Comm) {
			st, err := kmc.NewState(cfg, c)
			if err != nil {
				log.Fatalf("fig15: kmc state setup (%v grid): %v", cfg.Grid, err)
			}
			for i := 0; i < 10; i++ {
				st.Cycle()
			}
		})
		perRank := time.Since(start).Seconds() / float64(cfg.Ranks())
		if cfg.Ranks() == 1 {
			base = perRank
		}
		fmt.Printf("  ranks %2d: wall/rank %7.3fs (eff %5.1f%%)\n",
			cfg.Ranks(), perRank, 100*base/perRank)
	}
	fmt.Println("\nmodel at paper scale:")
	fmt.Print(perf.FormatSeries("  (1,600 -> 102,400 master cores)", perf.Fig15Weak()))
	fmt.Println("paper: 97.2% -> 74.0% efficiency; compute flat, comm growing")
}

// fig16 — coupled weak scaling.
func fig16(quick bool) {
	header("Figure 16: coupled MD-KMC weak scaling (3.3e5 atoms per core group)")
	fmt.Println("measured (coupled pipeline; wall/rank ~flat on 1 CPU = weak-scaled work):")
	steps := 60
	if quick {
		steps = 30
	}
	var base float64
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}} {
		cfg := mdkmc.CoupledConfig{
			MD: func() md.Config {
				m := md.DefaultConfig()
				m.Cells = [3]int{10 * g[0], 10 * g[1], 10 * g[2]}
				m.Grid = g
				m.Steps = steps
				m.Dt = 2e-4
				m.Temperature = 300
				m.TablePoints = 500
				m.PKA = &md.PKA{Energy: 200}
				return m
			}(),
			KMCCycles: 10,
			Protocol:  kmc.OnDemand,
			Telemetry: telOpts,
		}
		start := time.Now()
		res, err := mdkmc.RunCoupled(cfg)
		if err != nil {
			log.Fatalf("fig16: coupled run: %v", err)
		}
		ranks := g[0] * g[1] * g[2]
		perRank := time.Since(start).Seconds() / float64(ranks)
		if ranks == 1 {
			base = perRank
		}
		fmt.Printf("  ranks %2d: wall/rank %7.3fs (eff %5.1f%%)\n", ranks, perRank, 100*base/perRank)
		if res.Telemetry != nil {
			fmt.Print(res.Telemetry)
		}
	}
	fmt.Println("\nmodel at paper scale:")
	fmt.Print(perf.FormatSeries("  (97,500 -> 6,240,000 cores)", perf.Fig16CoupledWeak()))
	fmt.Println("paper: 98.9%, 77.4%, 75.7% efficiency")
}

// fig17 — the coupled simulation's physics result.
func fig17(quick bool) {
	header("Figure 17: vacancy clustering (coupled MD-KMC)")
	cells := 12
	mdSteps := 300
	kmcCycles := 120
	if quick {
		cells, mdSteps, kmcCycles = 10, 150, 40
	}
	mcfg := md.DefaultConfig()
	mcfg.Cells = [3]int{cells, cells, cells}
	mcfg.Steps = mdSteps
	mcfg.Dt = 2e-4
	mcfg.Temperature = 300
	mcfg.PKA = &md.PKA{Energy: 400}
	res, err := mdkmc.RunCoupled(mdkmc.CoupledConfig{
		MD:        mcfg,
		KMCCycles: kmcCycles,
		Protocol:  kmc.OnDemand,
		Telemetry: telOpts,
	})
	if err != nil {
		log.Fatalf("fig17: coupled run: %v", err)
	}
	fmt.Println(res)
	if res.Telemetry != nil {
		fmt.Println()
		fmt.Print(res.Telemetry)
	}
	fmt.Println("\n(a) after MD — dispersive:")
	fmt.Print(mdkmc.RenderVacancies(mcfg.Cells, mcfg.A, res.BeforeSites, 60, 20))
	fmt.Println("\n(b) after KMC — clustering:")
	fmt.Print(mdkmc.RenderVacancies(mcfg.Cells, mcfg.A, res.AfterSites, 60, 20))
	fmt.Printf("\ntemporal scale check: t_threshold=2e-4, C_MC=2e-6, T=600K -> %.1f days (paper: 19.2)\n",
		mdkmc.TemporalScaleDays(2e-4, 2e-6, 600))
	fmt.Println("paper: vacancies dispersive after MD, aggregative with clusters forming after KMC")
}
