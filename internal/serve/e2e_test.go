package serve

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"mdkmc"
)

// physicsOnly strips the observability blocks — wall-clock timers and
// message counts, which legitimately differ across runs and topologies —
// leaving the deterministic physics of a campaign result for comparison.
func physicsOnly(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "Telemetry")
	delete(m, "CommStats")
	return m
}

// campaignSpec is the laptop-scale damage-accumulation job the e2e tests
// submit: two spectrum iterations on a 16x8x8 box, sized to finish in
// seconds while still crossing the MD/KMC handoff and the dose ledger.
func campaignSpec(okmc bool) JobSpec {
	return JobSpec{
		Type:            TypeCampaign,
		Slots:           2,
		Cells:           [3]int{16, 8, 8},
		Steps:           100,
		KMCCycles:       10,
		TablePoints:     500,
		CheckpointEvery: 25,
		Campaign:        &CampaignJobSpec{Iters: 2, DoseIncrement: 2e-3, Energy: 300, OKMC: okmc},
	}
}

// TestSimRunnerOKMCCampaignPreemptElasticBitIdentical drives the real
// runner directly: attempt 1 on two slots is preempted at its first MD
// boundary, attempt 2 resumes the same job directory on ONE slot and runs
// to completion. Because the OKMC anneal is decomposition-blind, the
// stitched-together result must be bit-identical to an uninterrupted run.
func TestSimRunnerOKMCCampaignPreemptElasticBitIdentical(t *testing.T) {
	spec := campaignSpec(true)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	armed := &mdkmc.Preemptor{}
	armed.Request() // stop at the very first preemption boundary
	_, err := SimRunner{}.Run(RunContext{
		JobID: "job-000001", Spec: spec, Dir: dir, Slots: 2, Attempt: 1, Preempt: armed,
	})
	if !errors.Is(err, mdkmc.ErrPreempted) {
		t.Fatalf("armed attempt returned %v, want ErrPreempted", err)
	}
	resumed, err := SimRunner{}.Run(RunContext{
		JobID: "job-000001", Spec: spec, Dir: dir, Slots: 1, Attempt: 2, Preempt: &mdkmc.Preemptor{},
	})
	if err != nil {
		t.Fatalf("resumed attempt: %v", err)
	}

	straight, err := SimRunner{}.Run(RunContext{
		JobID: "job-000002", Spec: spec, Dir: t.TempDir(), Slots: 2, Attempt: 1, Preempt: &mdkmc.Preemptor{},
	})
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	if a, b := physicsOnly(t, resumed.Summary), physicsOnly(t, straight.Summary); !reflect.DeepEqual(a, b) {
		t.Errorf("preempted+resumed campaign diverged from the straight run:\n%v\nvs\n%v", a, b)
	}
	if resumed.Dose == nil || straight.Dose == nil || resumed.Dose.Population != straight.Dose.Population {
		t.Errorf("dose blocks differ: %+v vs %+v", resumed.Dose, straight.Dose)
	}
}

// awaitProgress blocks until the job emits a progress event — proof it is
// mid-run, past at least one telemetry flush.
func awaitProgress(t *testing.T, s *Server, id string) {
	t.Helper()
	ch, cancel, err := s.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatalf("job %s: stream closed before any progress event", id)
			}
			if e.Type == "progress" {
				return
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("job %s: no progress event", id)
		}
	}
}

// TestServeCampaignPreemptedByHighPriorityMD is the issue's acceptance
// scenario end to end with real simulations: a low-priority atomistic
// campaign holds the whole 2-slot pool; a high-priority MD job arrives,
// evicts it at a checkpoint boundary, and runs while the campaign resumes
// elastically on the single remaining slot. Both finish, and the campaign's
// dose ledger balances exactly: Population = Σ NewVacancies − Σ Merged.
func TestServeCampaignPreemptedByHighPriorityMD(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Slots: 2, Clock: fixedClock(t0)})
	if err != nil {
		t.Fatal(err)
	}

	camp := campaignSpec(false)
	camp.MetricsEvery = 10 // early progress events: the preemption trigger below
	low, err := s.Submit(camp, "")
	if err != nil {
		t.Fatal(err)
	}
	awaitProgress(t, s, low.ID) // campaign is mid-run, holding both slots

	hi, err := s.Submit(JobSpec{
		Type: TypeMD, Priority: 10, Slots: 1,
		Steps: 30, TablePoints: 500,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s, low.ID, StatePreempted)
	awaitState(t, s, hi.ID, StateDone)
	awaitState(t, s, low.ID, StateDone)

	// The victim ran twice: first on both slots, resumed on fewer.
	st, err := s.Status(low.ID)
	if err != nil {
		t.Fatal(err)
	}
	var grants []int
	for _, tr := range st.History {
		if tr.State == StateRunning {
			grants = append(grants, tr.Slots)
		}
	}
	if len(grants) < 2 || grants[0] != 2 || grants[len(grants)-1] >= grants[0] {
		t.Fatalf("victim slot grants %v, want a resume on fewer than 2 slots", grants)
	}
	if st.Attempts < 2 {
		t.Fatalf("victim finished in %d attempts, want a resume", st.Attempts)
	}

	// Exact dose-ledger conservation across the preemption.
	if st.Dose == nil || st.Dose.Source != "result" {
		t.Fatalf("campaign finished without a result-sourced dose block: %+v", st.Dose)
	}
	if len(st.Dose.Ledger) != 2 {
		t.Fatalf("ledger has %d rows, want 2", len(st.Dose.Ledger))
	}
	sum := 0
	for _, row := range st.Dose.Ledger {
		sum += row.NewVacancies - row.Merged
	}
	if st.Dose.Population != sum {
		t.Errorf("population %d != ΣNew−ΣMerged = %d: ledger not conserved across preemption",
			st.Dose.Population, sum)
	}
	final := st.Dose.Ledger[len(st.Dose.Ledger)-1]
	if final.Population != sum {
		t.Errorf("final ledger row population %d != %d", final.Population, sum)
	}
	// Each iteration applies whole recoils until its dose increment is
	// covered, so the cumulative dose meets-or-exceeds Iters x increment and
	// matches the last ledger row exactly.
	if st.Dose.Dose < 4e-3 {
		t.Errorf("cumulative dose %v, want >= 4e-3", st.Dose.Dose)
	}
	if math.Abs(st.Dose.Dose-final.Dose) > 0 {
		t.Errorf("dose block %v != final ledger row %v", st.Dose.Dose, final.Dose)
	}
}

// TestServeOKMCCampaignDosePopulation: in OKMC mode the manifest keeps cluster
// objects, not a site population, so dose.population must come from the dose
// ledger — live (newest checkpoint) and final (result) alike — and equal the
// ledger's own last row, a vacancy count.
func TestServeOKMCCampaignDosePopulation(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Slots: 2, Clock: fixedClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	spec := campaignSpec(true)
	// The first progress event is the flush after iteration 0's last MD step,
	// so the drain below evicts the job with at least one ledger row
	// committed; the third iteration keeps a slow drain from finding the job
	// already done.
	spec.MetricsEvery = spec.Steps
	spec.Campaign.Iters = 3
	job, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	awaitProgress(t, s, job.ID)
	s.Drain()

	live, err := s.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if live.State != StatePreempted || live.Dose == nil || live.Dose.Source != "checkpoint" {
		t.Fatalf("drained campaign: state %q dose %+v, want preempted with a checkpoint-sourced dose block", live.State, live.Dose)
	}
	if n := len(live.Dose.Ledger); n < 1 || n > 2 {
		t.Fatalf("live ledger has %d rows, want 1 or 2", n)
	}
	if row := live.Dose.Ledger[len(live.Dose.Ledger)-1]; row.Population == 0 || live.Dose.Population != row.Population {
		t.Errorf("live population %d, ledger row says %d (want equal and non-zero)", live.Dose.Population, row.Population)
	}

	// A fresh server on the same directory recovers the job and finishes it.
	s2, err := New(Config{Dir: dir, Slots: 2, Clock: fixedClock(t0)})
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s2, job.ID, StateDone)
	final, err := s2.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Dose == nil || final.Dose.Source != "result" || len(final.Dose.Ledger) != 3 {
		t.Fatalf("finished campaign dose block %+v, want result-sourced with 3 rows", final.Dose)
	}
	if row := final.Dose.Ledger[2]; final.Dose.Population != row.Population {
		t.Errorf("final population %d, last ledger row says %d", final.Dose.Population, row.Population)
	}
}
