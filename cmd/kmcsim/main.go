// Command kmcsim runs a standalone Kinetic Monte Carlo simulation of
// vacancy evolution: the defect-clustering stage of the paper's pipeline,
// with a choice of the communication protocols compared in §2.2.1.
//
// Example:
//
//	kmcsim -cells 16 -cycles 100 -conc 0.001 -protocol on-demand
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mdkmc"
	"mdkmc/internal/cliutil"
)

func main() {
	var (
		cells  = flag.Int("cells", 14, "unit cells per dimension")
		gx     = flag.Int("gx", 1, "process grid x")
		gy     = flag.Int("gy", 1, "process grid y")
		gz     = flag.Int("gz", 1, "process grid z")
		cycles = flag.Int("cycles", 50, "synchronous sublattice cycles")
		conc   = flag.Float64("conc", 4.5e-5, "vacancy concentration (paper: 4.5e-5)")
		temp   = flag.Float64("temp", 600, "temperature in K")
		seed   = flag.Uint64("seed", 1, "random seed")
		proto  = flag.String("protocol", "on-demand", "traditional|on-demand")
	)
	run := cliutil.RegisterRunFlags("kmcsim", "KMC cycles", 10, "kmc-cycle, checkpoint-commit")
	flag.Parse()

	ck, err := run.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}

	cfg := mdkmc.DefaultKMCConfig()
	cfg.Cells = [3]int{*cells, *cells, *cells}
	cfg.Grid = [3]int{*gx, *gy, *gz}
	cfg.VacancyConcentration = *conc
	cfg.Temperature = *temp
	cfg.Seed = *seed
	switch *proto {
	case "traditional":
		cfg.Protocol = mdkmc.ProtocolTraditional
	case "on-demand":
		cfg.Protocol = mdkmc.ProtocolOnDemand
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
		os.Exit(2)
	}
	if cfg.Grid, err = run.Grid(cfg.Grid, cfg.Cells, cfg.GhostWidth()); err != nil {
		log.Fatal(err)
	}

	res, err := mdkmc.RunKMCCheckpointed(cfg, *cycles, 0, ck, mdkmc.WithTelemetry(run.Telemetry()))
	if run.Interrupted(err) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sites        %d\n", res.Sites)
	fmt.Printf("vacancies    %d\n", res.Vacancies)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("events       %d\n", res.Events)
	fmt.Printf("mc time      %.4g s\n", res.MCTime)
	fmt.Printf("real span    %.3g days (temporal-scale formula)\n", res.RealTimeDays)
	fmt.Printf("comm         %d msgs, %d bytes sent (rank 0, %s)\n",
		res.Comm.MsgsSent, res.Comm.BytesSent, cfg.Protocol)
	fmt.Printf("clusters     %v\n", res.Clusters)
	fmt.Println("\nvacancy map (XY projection):")
	fmt.Print(mdkmc.RenderVacancies(cfg.Cells, cfg.A, res.VacancySites, 60, 24))
	if res.Telemetry != nil {
		fmt.Println()
		fmt.Print(res.Telemetry)
	}
}
