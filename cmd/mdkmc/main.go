// Command mdkmc runs the full coupled pipeline of the paper: an MD cascade
// generates vacancies, KMC evolves them toward clusters, and the
// temporal-scale formula maps the Monte Carlo time to days of real time.
//
// Example:
//
//	mdkmc -cells 12 -md-steps 300 -pka 300 -kmc-cycles 80
package main

import (
	"flag"
	"fmt"
	"log"

	"mdkmc"
	"mdkmc/internal/cliutil"
)

func main() {
	var (
		cells   = flag.Int("cells", 11, "unit cells per dimension")
		gx      = flag.Int("gx", 1, "process grid x")
		gy      = flag.Int("gy", 1, "process grid y")
		gz      = flag.Int("gz", 1, "process grid z")
		mdSteps = flag.Int("md-steps", 250, "MD steps (cascade phase)")
		dt      = flag.Float64("dt", 2e-4, "MD time step in ps")
		pka     = flag.Float64("pka", 300, "primary knock-on atom energy in eV")
		cycles  = flag.Int("kmc-cycles", 60, "KMC cycles (evolution phase)")
		temp    = flag.Float64("temp", 300, "temperature in K")
		seed    = flag.Uint64("seed", 1, "random seed")

		campaignIters = flag.Int("campaign-iters", 0, "damage-accumulation campaign iterations (0 = single-cascade pipeline)")
		doseIncrement = flag.Float64("dose-increment", 1e-3, "NRT dose per campaign iteration in dpa")
		spectrumPath  = flag.String("spectrum", "", "PKA spectrum file (\"energy_eV [weight]\" lines); empty = fixed -pka energy")
		recoilSep     = flag.Float64("recoil-sep", 0, "minimum separation between one iteration's recoils in Å (0 = 2.5 lattice constants)")
		campaignOKMC  = flag.Bool("campaign-okmc", false, "anneal the campaign's defect population with object KMC instead of atomistic KMC")

		rebalEvery = flag.Int("rebalance-every", 0, "refit the KMC decomposition to the defect distribution at the MD→KMC handoff and every N cycles (0 = uniform slabs)")
	)
	run := cliutil.RegisterRunFlags("mdkmc", "MD steps / KMC cycles", 50, "md-step, kmc-cycle, checkpoint-commit")
	flag.Parse()

	ck, err := run.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}

	mcfg := mdkmc.DefaultMDConfig()
	mcfg.Cells = [3]int{*cells, *cells, *cells}
	mcfg.Grid = [3]int{*gx, *gy, *gz}
	mcfg.Steps = *mdSteps
	mcfg.Dt = *dt
	mcfg.Temperature = *temp
	mcfg.Seed = *seed
	mcfg.PKA = &mdkmc.PKA{Energy: *pka}

	cfg := mdkmc.CoupledConfig{
		MD:         mcfg,
		KMCCycles:  *cycles,
		Protocol:   mdkmc.ProtocolOnDemand,
		Checkpoint: ck,
		Rebalance:  mdkmc.Rebalance{Every: *rebalEvery},
		Telemetry:  run.Telemetry(),
	}

	if *campaignIters > 0 {
		// Campaign mode: the driver injects the recoils itself, drawing
		// energies from the spectrum (or the fixed -pka energy).
		cfg.MD.PKA = nil
		var spectrum *mdkmc.Spectrum
		if *spectrumPath != "" {
			if spectrum, err = mdkmc.LoadSpectrum(*spectrumPath); err != nil {
				log.Fatal(err)
			}
		}
		cfg.Campaign = mdkmc.CampaignSpec{
			Iters:         *campaignIters,
			DoseIncrement: *doseIncrement,
			Energy:        *pka,
			Spectrum:      spectrum,
			MinSeparation: *recoilSep,
			OKMC:          *campaignOKMC,
		}
	}
	// Under -restart-ranks the grid's slabs must hold the widest ghost halo
	// of the stages this run executes.
	if cfg.MD.Grid, err = run.Grid(cfg.MD.Grid, cfg.MD.Cells, cfg.GhostWidth()); err != nil {
		log.Fatal(err)
	}

	if *campaignIters > 0 {
		res, err := mdkmc.RunCampaign(cfg)
		if run.Interrupted(err) {
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
		fmt.Printf("\n%6s %8s %8s %12s %12s %8s %10s\n",
			"iter", "recoils", "skipped", "dose (dpa)", "new vacs", "pop", "events")
		for _, row := range res.Ledger {
			fmt.Printf("%6d %8d %8d %12.4g %12d %8d %10d\n",
				row.Iter, row.Recoils, row.Skipped, row.Dose, row.NewVacancies, row.Population, row.Events)
		}
		if res.Telemetry != nil {
			fmt.Println()
			fmt.Print(res.Telemetry)
		}
		if len(res.Population) > 0 {
			fmt.Println("\nfinal defect population:")
			fmt.Print(mdkmc.RenderVacancies(mcfg.Cells, mcfg.A, res.Population, 60, 22))
		}
		return
	}

	res, err := mdkmc.RunCoupled(cfg)
	if run.Interrupted(err) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if res.Telemetry != nil {
		fmt.Println()
		fmt.Print(res.Telemetry)
	}
	fmt.Println("\nvacancies after MD (dispersive):")
	fmt.Print(mdkmc.RenderVacancies(mcfg.Cells, mcfg.A, res.BeforeSites, 60, 22))
	fmt.Println("\nvacancies after KMC (clustering):")
	fmt.Print(mdkmc.RenderVacancies(mcfg.Cells, mcfg.A, res.AfterSites, 60, 22))
}
