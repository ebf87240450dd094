package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mdkmc/internal/couple"
)

// t0 is the fixed test epoch — the clock never has to advance, the state
// machine is event-driven.
var t0 = time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)

// fixedClock is a Clock stopped at one instant.
type fixedClock time.Time

func (c fixedClock) Now() time.Time { return time.Time(c) }

// stubExit scripts one attempt's outcome.
type stubExit struct {
	res RunResult
	err error
}

// stubRunner is a scripted Runner: every attempt announces its RunContext
// on started, then blocks until the test finishes it — or until the
// scheduler requests preemption, which it honors immediately (the "next
// checkpoint boundary" of a job that does no work). A test must not both
// preempt and finish the same attempt; the select would race.
type stubRunner struct {
	mu      sync.Mutex
	ctrl    map[string]chan stubExit
	started chan RunContext
}

func newStubRunner() *stubRunner {
	return &stubRunner{ctrl: make(map[string]chan stubExit), started: make(chan RunContext, 64)}
}

func (r *stubRunner) channel(id string) chan stubExit {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch, ok := r.ctrl[id]
	if !ok {
		ch = make(chan stubExit, 4)
		r.ctrl[id] = ch
	}
	return ch
}

func (r *stubRunner) Run(rc RunContext) (RunResult, error) {
	r.started <- rc
	select {
	case <-rc.Preempt.C():
		return RunResult{}, couple.ErrPreempted
	case ex := <-r.channel(rc.JobID):
		return ex.res, ex.err
	}
}

func (r *stubRunner) finish(id string, res RunResult, err error) {
	r.channel(id) <- stubExit{res: res, err: err}
}

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *stubRunner) {
	t.Helper()
	r := newStubRunner()
	cfg := Config{Dir: t.TempDir(), Slots: 2, Clock: fixedClock(t0), Runner: r}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	return s, r
}

// quiesce drains s when the test ends. A test is over once it has seen the
// event it waited for, but the runner goroutine that published the event
// persists the ledger afterwards — into a TempDir the testing package is
// already removing ("directory not empty"). Drain returns only after every
// runner goroutine has exited; the stub runner honors its preemption at once.
func quiesce(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(s.Drain)
}

// nextStarted pops one attempt announcement.
func nextStarted(t *testing.T, r *stubRunner) RunContext {
	t.Helper()
	select {
	case rc := <-r.started:
		return rc
	case <-time.After(30 * time.Second):
		t.Fatal("no attempt started")
		return RunContext{}
	}
}

// awaitState blocks until the job's event stream shows the wanted state
// (the backlog replays, so transitions already past still match).
func awaitState(t *testing.T, s *Server, id string, want State) Event {
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
				t.Fatalf("job %s: stream closed before state %q", id, want)
			}
			if e.Type == "state" && e.State == want {
				return e
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s: no %q transition", id, want)
		}
	}
}

// stateSequence returns the job's recorded state/reason/slots path.
func stateSequence(t *testing.T, s *Server, id string) []string {
	t.Helper()
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	for _, tr := range st.History {
		seq = append(seq, fmt.Sprintf("%s/%s/%d", tr.State, tr.Reason, tr.Slots))
	}
	return seq
}

func mdSpec(prio, slots int) JobSpec {
	return JobSpec{Type: TypeMD, Priority: prio, Slots: slots, Cells: [3]int{16, 16, 16}}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, r := newTestServer(t, nil)
	st, err := s.Submit(mdSpec(0, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-000001" {
		t.Fatalf("first job ID %q", st.ID)
	}
	rc := nextStarted(t, r)
	if rc.JobID != st.ID || rc.Slots != 1 || rc.Attempt != 1 || rc.Faults != "" {
		t.Fatalf("unexpected run context %+v", rc)
	}
	r.finish(st.ID, RunResult{Summary: []byte(`{"ok":true}`)}, nil)
	awaitState(t, s, st.ID, StateDone)
	got, err := s.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Attempts != 1 || string(got.Result) != `{"ok":true}` {
		t.Fatalf("final status %+v", got)
	}
	want := []string{"queued/submitted/0", "running/scheduled/1", "done/completed/0"}
	if seq := stateSequence(t, s, st.ID); !reflect.DeepEqual(seq, want) {
		t.Fatalf("history %v, want %v", seq, want)
	}
	if s.FreeSlots() != 2 {
		t.Fatalf("slots leaked: %d free of 2", s.FreeSlots())
	}
}

func TestElasticGrantBelowRequest(t *testing.T) {
	// 2-slot pool, job wants 8: work-conserving scheduling grants what is
	// free (and feasible) instead of waiting for a fuller allocation.
	s, r := newTestServer(t, nil)
	st, err := s.Submit(mdSpec(0, 8), "")
	if err != nil {
		t.Fatal(err)
	}
	rc := nextStarted(t, r)
	if rc.Slots != 2 {
		t.Fatalf("granted %d slots, want the whole 2-slot pool", rc.Slots)
	}
	r.finish(st.ID, RunResult{}, nil)
	awaitState(t, s, st.ID, StateDone)
}

// TestMaxFeasibleSlots pins the slot count the scheduler may grant: the
// largest count no greater than the request and the pool that the job's box
// (explicit or the type's default) decomposes onto with every slab at least
// its engines' ghost width.
func TestMaxFeasibleSlots(t *testing.T) {
	camp := &CampaignJobSpec{Iters: 1, DoseIncrement: 1e-3, Energy: 300}
	cases := []struct {
		name string
		spec JobSpec
		pool int
		want int
	}{
		{"md default cells", JobSpec{Type: TypeMD, Slots: 64}, 64, 64},
		{"md default cells, small pool", JobSpec{Type: TypeMD, Slots: 64}, 6, 6},
		{"md explicit cells", JobSpec{Type: TypeMD, Slots: 64, Cells: [3]int{6, 6, 6}}, 64, 27},
		{"md box thinner than two slabs", JobSpec{Type: TypeMD, Slots: 8, Cells: [3]int{3, 3, 3}}, 8, 1},
		{"kmc default cells", JobSpec{Type: TypeKMC, Slots: 64}, 64, 64},
		{"kmc explicit cells", JobSpec{Type: TypeKMC, Slots: 64, Cells: [3]int{20, 10, 10}}, 64, 54},
		{"kmc explicit cells, small pool", JobSpec{Type: TypeKMC, Slots: 64, Cells: [3]int{6, 6, 6}}, 6, 4},
		{"kmc request below feasible", JobSpec{Type: TypeKMC, Slots: 3, Cells: [3]int{12, 12, 12}}, 64, 3},
		// Coupled and campaign jobs default to the MD box but need the wider
		// KMC halo.
		{"coupled default cells", JobSpec{Type: TypeCoupled, Slots: 64}, 64, 8},
		{"coupled explicit cells", JobSpec{Type: TypeCoupled, Slots: 64, Cells: [3]int{20, 10, 10}}, 64, 54},
		{"campaign default cells", JobSpec{Type: TypeCampaign, Slots: 64, Campaign: camp}, 6, 4},
		{"campaign explicit cells", JobSpec{Type: TypeCampaign, Slots: 64, Cells: [3]int{12, 12, 12}, Campaign: camp}, 64, 64},
		{"one slot", JobSpec{Type: TypeMD, Slots: 1}, 8, 1},
	}
	for _, tc := range cases {
		if got := tc.spec.maxFeasibleSlots(tc.pool); got != tc.want {
			t.Errorf("%s: maxFeasibleSlots(%d) = %d, want %d", tc.name, tc.pool, got, tc.want)
		}
	}
}

// TestKMCConfigHashIsTheRunDigest: the digest the status endpoint looks a
// standalone-KMC job's manifests up by is the one RunKMC writes them under,
// in the format manifests on disk already carry.
func TestKMCConfigHashIsTheRunDigest(t *testing.T) {
	for _, tc := range []struct {
		spec   JobSpec
		suffix string
	}{
		{JobSpec{Type: TypeKMC}, "|cycles=30|tthr=+Inf"},
		{JobSpec{Type: TypeKMC, KMCCycles: 12, TThreshold: 0.5}, "|cycles=12|tthr=0.5"},
	} {
		cfg, err := tc.spec.kmcConfig(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.spec.configHash()
		if err != nil {
			t.Fatal(err)
		}
		if want := cfg.Hash() + tc.suffix; got != want {
			t.Errorf("configHash = %q, want %q", got, want)
		}
	}
}

func TestAdmissionQueueDepth(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Slots = 1; c.QueueDepth = 1 })
	a, err := s.Submit(mdSpec(0, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, r) // a holds the only slot
	if _, err := s.Submit(mdSpec(0, 1), ""); err != nil {
		t.Fatalf("first waiter rejected: %v", err)
	}
	if _, err := s.Submit(mdSpec(0, 1), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue accepted: %v", err)
	}
	r.finish(a.ID, RunResult{}, nil)
	awaitState(t, s, a.ID, StateDone)
	// A slot freed and the waiter started: depth backpressure clears.
	rc := nextStarted(t, r)
	if _, err := s.Submit(mdSpec(0, 1), ""); err != nil {
		t.Fatalf("queue did not clear: %v", err)
	}
	r.finish(rc.JobID, RunResult{}, nil)
	r.finish("job-000003", RunResult{}, nil)
	awaitState(t, s, "job-000003", StateDone)
}

func TestAdmissionTenantQuota(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Slots = 1; c.TenantMaxActive = 2 })
	spec := mdSpec(0, 1)
	spec.Tenant = "alice"
	if _, err := s.Submit(spec, ""); err != nil {
		t.Fatal(err)
	}
	nextStarted(t, r)
	if _, err := s.Submit(spec, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec, ""); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third active alice job accepted: %v", err)
	}
	bob := spec
	bob.Tenant = "bob"
	if _, err := s.Submit(bob, ""); err != nil {
		t.Fatalf("quota leaked across tenants: %v", err)
	}
	// Terminal jobs do not count against the quota.
	r.finish("job-000001", RunResult{}, nil)
	awaitState(t, s, "job-000001", StateDone)
	if _, err := s.Submit(spec, ""); err != nil {
		t.Fatalf("done job still counted against quota: %v", err)
	}
	for _, id := range []string{"job-000002", "job-000003", "job-000004"} {
		r.finish(id, RunResult{}, nil)
	}
	for _, id := range []string{"job-000002", "job-000003", "job-000004"} {
		awaitState(t, s, id, StateDone)
	}
}

func TestBadSpecsRejected(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for name, spec := range map[string]JobSpec{
		"no type":           {},
		"unknown type":      {Type: "dft"},
		"campaign w/o plan": {Type: TypeCampaign},
		"campaign bad dose": {Type: TypeCampaign, Campaign: &CampaignJobSpec{Iters: 2, Energy: 300}},
		"bad cells":         {Type: TypeMD, Cells: [3]int{-1, 8, 8}},
	} {
		if _, err := s.Submit(spec, ""); err == nil {
			t.Errorf("%s admitted", name)
		}
	}
	if _, err := s.Submit(mdSpec(0, 1), "garbage"); err == nil {
		t.Error("bad fault plan admitted")
	}
	if len(s.Jobs()) != 0 {
		t.Fatalf("rejected specs left %d job records", len(s.Jobs()))
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Slots = 1 })
	a, _ := s.Submit(mdSpec(10, 1), "") // high priority, runs immediately
	nextStarted(t, r)
	lo, _ := s.Submit(mdSpec(1, 1), "")
	hi, _ := s.Submit(mdSpec(5, 1), "") // submitted later, but outranks lo
	r.finish(a.ID, RunResult{}, nil)
	if rc := nextStarted(t, r); rc.JobID != hi.ID {
		t.Fatalf("next scheduled %s, want the higher-priority %s", rc.JobID, hi.ID)
	}
	r.finish(hi.ID, RunResult{}, nil)
	if rc := nextStarted(t, r); rc.JobID != lo.ID {
		t.Fatalf("next scheduled %s, want %s", rc.JobID, lo.ID)
	}
	r.finish(lo.ID, RunResult{}, nil)
	awaitState(t, s, lo.ID, StateDone)
}

// TestPreemptionElasticResume is the scheduler half of the issue's
// acceptance scenario: a high-priority arrival evicts the low-priority
// holder of the full pool, and the victim resumes — while the winner still
// runs — on the slots that remain, i.e. a different count than it started
// with.
func TestPreemptionElasticResume(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Slots = 4 })
	low, err := s.Submit(mdSpec(0, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	first := nextStarted(t, r)
	if first.Slots != 4 {
		t.Fatalf("low-priority job granted %d slots, want all 4", first.Slots)
	}
	hi, err := s.Submit(mdSpec(10, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	// The stub honors the eviction instantly; the winner and the victim's
	// resumed attempt both start (order between the two goroutines is not
	// defined — match by ID).
	awaitState(t, s, low.ID, StatePreempted)
	got := map[string]RunContext{}
	for i := 0; i < 2; i++ {
		rc := nextStarted(t, r)
		got[rc.JobID] = rc
	}
	if rc := got[hi.ID]; rc.Slots != 2 || rc.Attempt != 1 {
		t.Fatalf("winner context %+v", rc)
	}
	if rc := got[low.ID]; rc.Slots != 2 || rc.Attempt != 2 {
		t.Fatalf("resumed victim context %+v, want attempt 2 on the 2 remaining slots", rc)
	}
	r.finish(hi.ID, RunResult{}, nil)
	r.finish(low.ID, RunResult{}, nil)
	awaitState(t, s, hi.ID, StateDone)
	awaitState(t, s, low.ID, StateDone)

	want := []string{
		"queued/submitted/0",
		"running/scheduled/4",
		"preempting/evicted for " + hi.ID + "/4",
		"preempted/checkpointed/0",
		"running/resumed/2",
		"done/completed/0",
	}
	if seq := stateSequence(t, s, low.ID); !reflect.DeepEqual(seq, want) {
		t.Fatalf("victim history %v, want %v", seq, want)
	}
	if s.FreeSlots() != 4 {
		t.Fatalf("slots leaked: %d free of 4", s.FreeSlots())
	}
}

func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Slots = 1 })
	a, _ := s.Submit(mdSpec(5, 1), "")
	nextStarted(t, r)
	b, _ := s.Submit(mdSpec(5, 1), "")
	st, err := s.Status(a.ID)
	if err != nil || st.State != StateRunning {
		t.Fatalf("equal-priority arrival disturbed the incumbent: %+v, %v", st, err)
	}
	r.finish(a.ID, RunResult{}, nil)
	nextStarted(t, r)
	r.finish(b.ID, RunResult{}, nil)
	awaitState(t, s, b.ID, StateDone)
}

func TestFailedJobIsTerminal(t *testing.T) {
	s, r := newTestServer(t, nil)
	st, _ := s.Submit(mdSpec(0, 1), "")
	rc := nextStarted(t, r)
	r.finish(rc.JobID, RunResult{}, errors.New("rank 0 exploded"))
	awaitState(t, s, st.ID, StateFailed)
	got, _ := s.Status(st.ID)
	if got.Error != "rank 0 exploded" {
		t.Fatalf("error not recorded: %+v", got)
	}
	select {
	case rc := <-r.started:
		t.Fatalf("failed job restarted: %+v", rc)
	default:
	}
}

func TestFaultPlanPassedOnFirstAttemptOnly(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Slots = 1 })
	st, err := s.Submit(mdSpec(0, 1), "md-step:0:10")
	if err != nil {
		t.Fatal(err)
	}
	if rc := nextStarted(t, r); rc.Faults != "md-step:0:10" {
		t.Fatalf("first attempt fault plan %q", rc.Faults)
	}
	// Preempt it via a high-priority arrival; the resumed attempt must not
	// re-arm the fault (it would re-kill the job forever).
	hi, _ := s.Submit(mdSpec(9, 1), "")
	if rc := nextStarted(t, r); rc.JobID != hi.ID {
		t.Fatalf("winner of the only slot is %s, want %s", rc.JobID, hi.ID)
	}
	r.finish(hi.ID, RunResult{}, nil)
	if rc := nextStarted(t, r); rc.JobID != st.ID || rc.Attempt != 2 || rc.Faults != "" {
		t.Fatalf("resumed attempt %+v, want attempt 2 with no fault plan", rc)
	}
	r.finish(st.ID, RunResult{}, nil)
	awaitState(t, s, st.ID, StateDone)
}

// TestDeterministicStateMachine runs the same scripted submission/exit
// sequence twice and demands identical histories — transitions, reasons,
// slot counts, and (fake-clock) timestamps.
func TestDeterministicStateMachine(t *testing.T) {
	script := func() []JobStatus {
		s, r := newTestServer(t, func(c *Config) { c.Slots = 1 })
		a, _ := s.Submit(mdSpec(0, 1), "")
		nextStarted(t, r)
		b, _ := s.Submit(mdSpec(2, 1), "") // preempts a
		awaitState(t, s, a.ID, StatePreempted)
		nextStarted(t, r) // b
		r.finish(b.ID, RunResult{}, nil)
		awaitState(t, s, b.ID, StateDone)
		nextStarted(t, r) // a resumes
		r.finish(a.ID, RunResult{}, nil)
		awaitState(t, s, a.ID, StateDone)
		return s.Jobs()
	}
	first, second := script(), script()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replayed script diverged:\n%+v\nvs\n%+v", first, second)
	}
}

func TestDrainPreemptsPersistsAndRefuses(t *testing.T) {
	dir := t.TempDir()
	r := newStubRunner()
	s, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	a, _ := s.Submit(mdSpec(0, 1), "")
	nextStarted(t, r)
	b, _ := s.Submit(mdSpec(0, 1), "") // waits in queue
	s.Drain()                          // blocks until a has checkpointed out
	if st, _ := s.Status(a.ID); st.State != StatePreempted {
		t.Fatalf("running job drained to %q, want preempted", st.State)
	}
	if st, _ := s.Status(b.ID); st.State != StateQueued {
		t.Fatalf("queued job drained to %q", st.State)
	}
	if _, err := s.Submit(mdSpec(0, 1), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("drained server accepted a job: %v", err)
	}

	// "Restart the server": a fresh instance on the same directory resumes
	// the preempted job first (earlier sequence) and then the queued one.
	r2 := newStubRunner()
	s2, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r2})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s2)
	rc := nextStarted(t, r2)
	if rc.JobID != a.ID || rc.Attempt != 2 {
		t.Fatalf("recovered server started %+v, want %s attempt 2", rc, a.ID)
	}
	r2.finish(a.ID, RunResult{}, nil)
	awaitState(t, s2, a.ID, StateDone)
	rc = nextStarted(t, r2)
	if rc.JobID != b.ID || rc.Attempt != 1 {
		t.Fatalf("recovered server then started %+v, want %s attempt 1", rc, b.ID)
	}
	r2.finish(b.ID, RunResult{}, nil)
	awaitState(t, s2, b.ID, StateDone)
}

// TestRecoverFromCrashMidRun abandons a server whose job is mid-flight (no
// drain — the SIGKILL case) and verifies a fresh instance on the same
// directory re-queues it as preempted and resumes it.
func TestRecoverFromCrashMidRun(t *testing.T) {
	dir := t.TempDir()
	r := newStubRunner()
	s, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	a, _ := s.Submit(mdSpec(0, 1), "")
	nextStarted(t, r) // running; ledger persisted with state=running

	r2 := newStubRunner()
	s2, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r2})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s2)
	st, err := s2.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	recovered := false
	for _, tr := range st.History {
		if tr.State == StatePreempted && tr.Reason == "recovered" {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no preempted/recovered transition in history: %+v", st.History)
	}
	rc := nextStarted(t, r2)
	if rc.JobID != a.ID || rc.Attempt != 2 {
		t.Fatalf("crash recovery started %+v, want %s attempt 2", rc, a.ID)
	}
	r2.finish(a.ID, RunResult{}, nil)
	awaitState(t, s2, a.ID, StateDone)

	// Unblock the abandoned instance's goroutine so the test leaks nothing.
	r.finish(a.ID, RunResult{}, nil)
	awaitState(t, s, a.ID, StateDone)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Slots: 1, Clock: fixedClock(t0)}); err == nil {
		t.Error("missing Dir accepted")
	}
	if _, err := New(Config{Dir: t.TempDir(), Slots: 1}); err == nil {
		t.Error("missing Clock accepted")
	}
}
