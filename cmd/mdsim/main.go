// Command mdsim runs a standalone Molecular Dynamics simulation of cascade
// damage in BCC iron: the defect-generation stage of the paper's pipeline.
//
// Example:
//
//	mdsim -cells 12 -steps 400 -dt 0.0002 -pka 300 -temp 300
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mdkmc"
	"mdkmc/internal/cliutil"
	"mdkmc/internal/eam"
)

func main() {
	var (
		cells   = flag.Int("cells", 10, "unit cells per dimension")
		gx      = flag.Int("gx", 1, "process grid x")
		gy      = flag.Int("gy", 1, "process grid y")
		gz      = flag.Int("gz", 1, "process grid z")
		steps   = flag.Int("steps", 200, "MD steps")
		dt      = flag.Float64("dt", 0.001, "time step in ps (paper: 0.001 = 1 fs)")
		temp    = flag.Float64("temp", 600, "initial temperature in K")
		pka     = flag.Float64("pka", 0, "primary knock-on atom energy in eV (0 = no cascade)")
		seed    = flag.Uint64("seed", 1, "random seed")
		mode    = flag.String("tables", "compacted", "potential evaluation: analytic|compacted")
		workers = flag.Int("workers", 0, "force-pass worker goroutines per rank (0 = GOMAXPROCS, 1 = serial reference)")
	)
	run := cliutil.RegisterRunFlags("mdsim", "MD steps", 50, "md-step, checkpoint-commit")
	flag.Parse()

	ck, err := run.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}

	cfg := mdkmc.DefaultMDConfig()
	cfg.Cells = [3]int{*cells, *cells, *cells}
	cfg.Grid = [3]int{*gx, *gy, *gz}
	cfg.Steps = *steps
	cfg.Dt = *dt
	cfg.Temperature = *temp
	cfg.Seed = *seed
	cfg.Workers = *workers
	switch *mode {
	case "analytic":
		cfg.Mode = eam.Analytic
	case "compacted":
		cfg.Mode = eam.Compacted
	default:
		fmt.Fprintf(os.Stderr, "unknown table mode %q\n", *mode)
		os.Exit(2)
	}
	if *pka > 0 {
		cfg.PKA = &mdkmc.PKA{Energy: *pka}
	}
	if cfg.Grid, err = run.Grid(cfg.Grid, cfg.Cells, cfg.GhostWidth()); err != nil {
		log.Fatal(err)
	}

	res, err := mdkmc.RunMDCheckpointed(cfg, ck, mdkmc.WithTelemetry(run.Telemetry()))
	if run.Interrupted(err) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("atoms        %d\n", res.Atoms)
	fmt.Printf("steps        %d (%.3g ps simulated)\n", res.Steps, float64(res.Steps)*cfg.Dt)
	fmt.Printf("kinetic      %.4f eV\n", res.Kinetic)
	fmt.Printf("potential    %.4f eV\n", res.Potential)
	fmt.Printf("temperature  %.1f K\n", res.Temperature)
	fmt.Printf("vacancies    %d\n", res.Vacancies)
	fmt.Printf("comm         %d msgs, %d bytes sent (rank 0)\n",
		res.Comm.MsgsSent, res.Comm.BytesSent)
	if res.Vacancies > 0 {
		fmt.Printf("clusters     %v\n", res.Clusters)
		fmt.Println("\nvacancy map (XY projection):")
		fmt.Print(mdkmc.RenderVacancies(cfg.Cells, cfg.A, res.VacancySites, 60, 24))
	}
	if res.Telemetry != nil {
		fmt.Println()
		fmt.Print(res.Telemetry)
	}
}
