package cliutil

import (
	"errors"
	"flag"
	"fmt"

	"mdkmc"
)

// RunFlags are the checkpoint, restart, fault-injection and telemetry flags
// that mdsim, kmcsim and mdkmc share, and what the three build from them.
type RunFlags struct {
	name string

	ckptDir      *string
	ckptEvery    *int
	ckptKeep     *int
	restart      *bool
	restartRanks *int
	faultSpec    *string

	metrics      *bool
	metricsOut   *string
	metricsAddr  *string
	metricsEvery *int
}

// RegisterRunFlags declares the shared run flags on the default flag set for
// the program called name. cadence is the unit the run counts boundaries in
// ("MD steps"), every the default -checkpoint-every, and faultPoints the
// fault points the program can reach. Call before flag.Parse; read the
// result after it.
func RegisterRunFlags(name, cadence string, every int, faultPoints string) *RunFlags {
	return &RunFlags{
		name: name,

		ckptDir:      flag.String("checkpoint-dir", "", "snapshot directory (empty = no checkpointing)"),
		ckptEvery:    flag.Int("checkpoint-every", every, "snapshot cadence in "+cadence),
		ckptKeep:     flag.Int("checkpoint-keep", 0, "committed snapshots to retain (0 = default)"),
		restart:      flag.Bool("restart", false, "resume from the newest valid snapshot in -checkpoint-dir"),
		restartRanks: flag.Int("restart-ranks", 0, "resume onto this many ranks: picks a near-cubic grid, re-shards the snapshot (overrides -gx/-gy/-gz; requires -restart)"),
		faultSpec:    flag.String("inject-fault", "", "fault plan \"point:rank:step,...\" (points: "+faultPoints+")"),

		metrics:      flag.Bool("metrics", false, "collect runtime telemetry and print the per-phase report"),
		metricsOut:   flag.String("metrics-out", "", "write telemetry snapshots and the final report as JSONL (implies -metrics)"),
		metricsAddr:  flag.String("metrics-addr", "", "serve a Prometheus-style text exposition on ADDR/metrics (implies -metrics)"),
		metricsEvery: flag.Int("metrics-every", 0, "periodic JSONL flush cadence in "+cadence+" (0 = final only)"),
	}
}

// Checkpoint returns the run's fault-tolerance settings: the snapshot
// policy, the parsed -inject-fault plan, and a preemptor armed by
// SIGINT/SIGTERM. A malformed plan, or one naming a point no run arms, is an
// error.
func (f *RunFlags) Checkpoint() (mdkmc.Checkpoint, error) {
	faults, err := mdkmc.ParseFaults(*f.faultSpec)
	if err != nil {
		return mdkmc.Checkpoint{}, err
	}
	return mdkmc.Checkpoint{
		Dir: *f.ckptDir, Every: *f.ckptEvery, Keep: *f.ckptKeep, Restart: *f.restart,
		Faults: faults, Preempt: preemptOnSignal(f.name),
	}, nil
}

// Telemetry returns the observability options; any of the output flags
// implies -metrics.
func (f *RunFlags) Telemetry() mdkmc.TelemetryOptions {
	return mdkmc.TelemetryOptions{
		Enabled:    *f.metrics || *f.metricsOut != "" || *f.metricsAddr != "",
		JSONLPath:  *f.metricsOut,
		FlushEvery: *f.metricsEvery,
		HTTPAddr:   *f.metricsAddr,
	}
}

// Grid returns the process grid to run on: grid itself, or under
// -restart-ranks N a near-cubic N-rank grid over cells whose slabs are at
// least minWidth cells wide (the run's ghost constraint).
func (f *RunFlags) Grid(grid, cells [3]int, minWidth int) ([3]int, error) {
	if *f.restartRanks <= 0 {
		return grid, nil
	}
	if !*f.restart {
		return grid, fmt.Errorf("%s: -restart-ranks requires -restart", f.name)
	}
	return mdkmc.ChooseGrid(cells, *f.restartRanks, minWidth)
}

// Interrupted reports whether err is the preemption a signal requested, and
// if so tells the user how to resume.
func (f *RunFlags) Interrupted(err error) bool {
	if !errors.Is(err, mdkmc.ErrPreempted) {
		return false
	}
	if *f.ckptDir != "" {
		fmt.Printf("%s: interrupted — checkpoint committed in %s; resume with -restart\n", f.name, *f.ckptDir)
	} else {
		fmt.Printf("%s: interrupted (no -checkpoint-dir, progress discarded)\n", f.name)
	}
	return true
}
