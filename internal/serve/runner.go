package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mdkmc"
	"mdkmc/internal/telemetry"
)

// RunContext is everything a Runner needs for one attempt of one job. The
// scheduler owns the slot arithmetic and the state machine; the runner just
// executes the simulation with these ingredients and returns.
type RunContext struct {
	JobID string
	Spec  JobSpec
	Dir   string // job directory: checkpoints under Dir/ckpt, artifacts beside
	Slots int    // rank slots granted to this attempt (may differ per attempt)
	// Attempt is 1-based; resumed attempts (>1) restart from the newest
	// checkpoint. The runner always opens the checkpoint directory in
	// restart mode — an empty directory is a fresh start — so a server
	// crash mid-attempt needs no special bookkeeping.
	Attempt int
	// Preempt is this attempt's eviction handle: when the scheduler calls
	// Request, the run must stop at its next checkpoint boundary and return
	// mdkmc.ErrPreempted.
	Preempt *mdkmc.Preemptor
	// Faults is the injected-failure plan from ?inject-fault= ("" when
	// none); the scheduler passes it on the first attempt only.
	Faults string
	// Progress, when non-nil, is called with a label at the telemetry flush
	// cadence — the job's SSE heartbeat.
	Progress func(label string)
	// OnTelemetry, when non-nil, receives the attempt's live telemetry set
	// for the merged /metrics exposition.
	OnTelemetry func(*telemetry.Set)
}

// RunResult is what a finished attempt hands back.
type RunResult struct {
	// Summary is the job-type-specific result document (also written to the
	// result.json artifact).
	Summary json.RawMessage
	// Dose is the final campaign ledger (campaign jobs only).
	Dose *DoseStatus
}

// Runner executes one attempt of a job. The scheduler interprets the error:
// nil completes the job, mdkmc.ErrPreempted re-queues it, anything else
// fails it. Tests substitute a scripted runner; the real one is SimRunner.
type Runner interface {
	Run(rc RunContext) (RunResult, error)
}

// SimRunner executes jobs as real in-process simulations through the mdkmc
// facade, with checkpointing (and therefore preemption) always armed.
type SimRunner struct{}

func (SimRunner) Run(rc RunContext) (RunResult, error) {
	faults, err := mdkmc.ParseFaults(rc.Faults)
	if err != nil {
		return RunResult{}, fmt.Errorf("serve: fault plan: %w", err)
	}
	ck := mdkmc.Checkpoint{
		Dir:     filepath.Join(rc.Dir, "ckpt"),
		Every:   rc.Spec.CheckpointEvery,
		Restart: true, // empty dir = fresh start; otherwise resume
		Preempt: rc.Preempt,
		Faults:  faults,
	}
	tel := mdkmc.TelemetryOptions{
		Enabled:    true,
		Job:        rc.JobID,
		FlushEvery: rc.Spec.MetricsEvery,
		JSONLPath:  filepath.Join(rc.Dir, fmt.Sprintf("metrics-%d.jsonl", rc.Attempt)),
		OnSet:      rc.OnTelemetry,
		OnFlush:    rc.Progress,
	}

	var (
		summary any
		dose    *DoseStatus
	)
	cfg, err := rc.Spec.config(rc.Slots)
	if err != nil {
		return RunResult{}, err
	}
	switch cfg := cfg.(type) {
	case *mdkmc.MDConfig:
		res, err := mdkmc.RunMDCheckpointed(*cfg, ck, mdkmc.WithTelemetry(tel))
		if err != nil {
			return RunResult{}, err
		}
		summary = res
	case *mdkmc.KMCConfig:
		res, err := mdkmc.RunKMCCheckpointed(*cfg, rc.Spec.kmcCycles(), rc.Spec.TThreshold, ck, mdkmc.WithTelemetry(tel))
		if err != nil {
			return RunResult{}, err
		}
		summary = res
	case *mdkmc.CoupledConfig:
		cfg.Checkpoint = ck
		cfg.Telemetry = tel
		if rc.Spec.Type == TypeCoupled {
			res, err := mdkmc.RunCoupled(*cfg)
			if err != nil {
				return RunResult{}, err
			}
			summary = res
		} else {
			res, err := mdkmc.RunCampaign(*cfg)
			if err != nil {
				return RunResult{}, err
			}
			summary = res
			dose = newDoseStatus("result", res.Iterations, res.Dose, res.Ledger)
		}
	}

	raw, err := json.Marshal(summary)
	if err != nil {
		return RunResult{}, fmt.Errorf("serve: encoding result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(rc.Dir, "result.json"), raw, 0o644); err != nil {
		return RunResult{}, fmt.Errorf("serve: writing result artifact: %w", err)
	}
	return RunResult{Summary: raw, Dose: dose}, nil
}
