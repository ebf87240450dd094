package couple

import (
	"errors"
	"testing"
)

// TestPreemptorNilSafety: the nil receiver contract (Request/Requested are
// no-ops) keeps call sites free of guards.
func TestPreemptorNilSafety(t *testing.T) {
	var p *Preemptor
	p.Request()
	if p.Requested() {
		t.Fatal("nil preemptor reports requested")
	}
	var z Preemptor
	if z.Requested() {
		t.Fatal("zero preemptor reports requested")
	}
	z.Request()
	z.Request() // idempotent
	if !z.Requested() {
		t.Fatal("requested preemptor reports idle")
	}

	// The signal channel closes on request, whichever call comes first.
	before := &Preemptor{}
	ch := before.C()
	select {
	case <-ch:
		t.Fatal("signal channel closed before any request")
	default:
	}
	before.Request()
	<-ch
	after := &Preemptor{}
	after.Request()
	<-after.C()
}

// TestPreemptCoupledRunResumesBitIdentical: a coupled run with a pre-armed
// preemptor evicts at the very first MD step boundary (deterministically —
// no goroutine races), commits a resumable snapshot, and the restarted run
// reproduces the uninterrupted trajectory bit-exactly. This is the core
// contract the job server's scheduler leans on.
func TestPreemptCoupledRunResumesBitIdentical(t *testing.T) {
	cfg := coupledConfig()
	straight, err := Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	evict := cfg
	evict.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 1000}
	evict.Checkpoint.Preempt = &Preemptor{}
	evict.Checkpoint.Preempt.Request()
	if _, err := Run(evict); !errors.Is(err, ErrPreempted) {
		t.Fatalf("pre-armed preemption returned %v, want ErrPreempted", err)
	}

	man, err := Latest(evict.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no snapshot after preemption: %v", err)
	}
	if man.Stage != StageMD || man.Step != 1 {
		t.Fatalf("evicted at stage=%q step=%d, want md step 1", man.Stage, man.Step)
	}

	resume := evict
	resume.Checkpoint.Preempt = nil
	resume.Checkpoint.Restart = true
	resumed, err := Run(resume)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	sameTrajectory(t, straight, resumed)
}

// TestPreemptWithoutCheckpointStillStops: with no checkpoint directory the
// run still honors the request and returns ErrPreempted — it just has no
// snapshot to leave behind. The server never configures this shape, but the
// CLI signal path may (checkpointing disabled): the run must stop, not hang.
func TestPreemptWithoutCheckpointStillStops(t *testing.T) {
	cfg := coupledConfig()
	cfg.Checkpoint.Preempt = &Preemptor{}
	cfg.Checkpoint.Preempt.Request()
	if _, err := Run(cfg); !errors.Is(err, ErrPreempted) {
		t.Fatalf("got %v, want ErrPreempted", err)
	}
}

// TestPreemptCampaignMidIteration: a pre-armed preemptor stops a campaign at
// global step 1 — a mid-iteration snapshot that must carry the pending
// injection (the restart-double-injection invariant) — and the resumed
// campaign reproduces the uninterrupted one bit-exactly, ledger and all.
func TestPreemptCampaignMidIteration(t *testing.T) {
	cfg := campaignConfig()
	straight, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}

	evict := cfg
	evict.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 1000}
	evict.Checkpoint.Preempt = &Preemptor{}
	evict.Checkpoint.Preempt.Request()
	if _, err := RunCampaign(evict); !errors.Is(err, ErrPreempted) {
		t.Fatalf("pre-armed campaign preemption returned %v, want ErrPreempted", err)
	}

	man, err := Latest(evict.Checkpoint.Dir, cfg.Hash())
	if err != nil || man == nil {
		t.Fatalf("no snapshot after campaign preemption: %v", err)
	}
	if man.Stage != StageCampaign || man.Step != 1 {
		t.Fatalf("evicted at stage=%q step=%d, want campaign step 1", man.Stage, man.Step)
	}
	if man.Campaign == nil || man.Campaign.Iter != 0 || man.Campaign.Pending == nil {
		t.Fatalf("mid-iteration preempt snapshot must carry iter 0 + pending injection, got %+v", man.Campaign)
	}

	resume := evict
	resume.Checkpoint.Preempt = nil
	resume.Checkpoint.Restart = true
	resumed, err := RunCampaign(resume)
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	sameCampaign(t, "preempt resume", straight, resumed)
}
