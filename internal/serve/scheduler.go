package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mdkmc"
	"mdkmc/internal/couple"
	"mdkmc/internal/telemetry"
)

// Admission errors, mapped to HTTP status codes by the handlers.
var (
	// ErrDraining rejects submissions once a drain has begun (503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrQueueFull is the queue-depth backpressure signal (429).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrTenantQuota is the per-tenant active-job cap (429).
	ErrTenantQuota = errors.New("serve: tenant active-job quota exceeded")
	// ErrUnknownJob is returned for requests naming no known job ID (404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Config configures a Server.
type Config struct {
	// Dir is the state root: the job ledger (ledger.json and its journal)
	// plus one jobs/<id>/ directory per job (checkpoints, artifacts). Restarting a server on the same Dir
	// recovers its queue.
	Dir string
	// Slots is the shared pool of mpi.World rank slots (default 2). Every
	// running job holds between 1 and its requested slot count.
	Slots int
	// QueueDepth caps the jobs waiting to run — queued plus preempted —
	// before submissions get backpressure (default 64).
	QueueDepth int
	// TenantMaxActive caps one tenant's non-terminal jobs (default 8).
	TenantMaxActive int
	// Clock stamps job history; the scheduler never acts on it. Required
	// (the wall clock lives in cmd/mdserve, keeping this package
	// deterministic).
	Clock Clock
	// Runner executes job attempts; nil selects the real SimRunner.
	Runner Runner

	// fs is the filesystem the ledger writes through; nil selects the real
	// one (tests inject failures here).
	fs *fileSystem
}

// Server is the multi-tenant job scheduler: an admission-controlled
// priority queue over a shared pool of rank slots, with checkpoint-backed
// preemption, graceful drain, and ledger-based crash recovery. All state
// transitions happen under one mutex, driven only by submissions and job
// exits, so the machine is deterministic given those orders.
//
// Scheduling policy (DESIGN.md §16): the queue orders by priority (higher
// first), then submission sequence (earlier first; a preempted job keeps
// its sequence). While slots are free, the head job starts with
// min(requested, free, feasible) slots — work-conserving and elastic, it
// never idles a slot waiting for a fuller grant. When no slot is free and
// the head outranks running work, the scheduler requests eviction of the
// lowest-priority victims (youngest first) until the slots being vacated
// cover the head's request; each victim checkpoints at its next boundary
// and re-queues, and the head starts as the slots actually free.
type Server struct {
	cfg    Config
	clock  Clock
	runner Runner

	mu   sync.Mutex
	cond *sync.Cond
	ledgerState
	queue    []*Job // waiting jobs, sorted by (priority desc, seq asc)
	free     int
	draining bool
	led      ledger

	sets map[string]*telemetry.Set // live telemetry of running attempts
	wg   sync.WaitGroup
}

// New builds a Server rooted at cfg.Dir, recovering any persisted ledger:
// queued and preempted jobs re-enter the queue, and jobs that were running
// when the previous process died are re-queued as preempted — their next
// attempt resumes from whatever checkpoint survived (or starts fresh when
// none did). Scheduling begins immediately. On a directory that holds no
// ledger, New writes no ledger file.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("serve: Config.Clock is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.TenantMaxActive <= 0 {
		cfg.TenantMaxActive = 8
	}
	if cfg.Runner == nil {
		cfg.Runner = SimRunner{}
	}
	if cfg.fs == nil {
		cfg.fs = &osFS
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		clock:  cfg.Clock,
		runner: cfg.Runner,
		free:   cfg.Slots,
		led:    ledger{fs: cfg.fs, dir: cfg.Dir},
		sets:   make(map[string]*telemetry.Set),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mu.Lock()
	read, err := s.recover()
	if err == nil {
		s.scheduleLocked()
		if read {
			s.compactLocked()
		} else {
			s.commitLocked()
		}
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Submit admits one job: validate, enforce quotas, enqueue, schedule.
// The returned status is the post-scheduling snapshot (the job may already
// be running).
func (s *Server) Submit(spec JobSpec, fault string) (*JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if fault != "" {
		if _, err := mdkmc.ParseFaults(fault); err != nil {
			return nil, fmt.Errorf("serve: inject-fault: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return nil, ErrQueueFull
	}
	active := 0
	for _, j := range s.bySeq {
		if j.Spec.Tenant == spec.Tenant && !j.State.Terminal() {
			active++
		}
	}
	if active >= s.cfg.TenantMaxActive {
		return nil, ErrTenantQuota
	}
	id := jobID(s.seq + 1)
	dir := filepath.Join(s.cfg.Dir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	j := s.logLocked(record{Kind: recAdmit, Job: id, Admit: &admission{
		Seq: s.seq + 1, Spec: spec, Fault: fault, SubmittedAt: s.clock.Now(),
	}})
	j.hub, j.dir = newHub(), dir
	s.transitionLocked(j, StateQueued, "submitted")
	s.enqueueLocked(j)
	s.scheduleLocked()
	s.commitLocked()
	st := s.statusLocked(j)
	return &st, nil
}

// enqueueLocked inserts j into the waiting queue at its policy position:
// priority descending, submission sequence ascending. A job entering it for
// the first time gets its slot ceiling.
func (s *Server) enqueueLocked(j *Job) {
	if j.maxSlots == 0 {
		j.maxSlots = j.Spec.maxFeasibleSlots(s.cfg.Slots)
	}
	at := len(s.queue)
	for i, q := range s.queue {
		if j.Spec.Priority > q.Spec.Priority ||
			(j.Spec.Priority == q.Spec.Priority && j.Seq < q.Seq) {
			at = i
			break
		}
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[at+1:], s.queue[at:])
	s.queue[at] = j
}

// scheduleLocked is the scheduling pass, run after every state change.
func (s *Server) scheduleLocked() {
	if s.draining {
		return
	}
	for len(s.queue) > 0 {
		head := s.queue[0]
		want := head.maxSlots
		if s.free > 0 {
			grant := min(want, s.free)
			s.startLocked(head, grant)
			continue
		}
		// No free slots: vacate strictly lower-priority running work.
		inflight := 0
		for _, j := range s.bySeq {
			if j.State == StatePreempting {
				inflight += j.Granted
			}
		}
		if inflight >= want {
			return // enough slots already on their way back
		}
		var victims []*Job
		for _, j := range s.bySeq {
			if j.State == StateRunning && j.Spec.Priority < head.Spec.Priority {
				victims = append(victims, j)
			}
		}
		// Cheapest evictions first: lowest priority, then youngest.
		sort.SliceStable(victims, func(a, b int) bool {
			if victims[a].Spec.Priority != victims[b].Spec.Priority {
				return victims[a].Spec.Priority < victims[b].Spec.Priority
			}
			return victims[a].Seq > victims[b].Seq
		})
		for _, v := range victims {
			if inflight >= want {
				break
			}
			s.preemptLocked(v, "evicted for "+head.ID)
			inflight += v.Granted
		}
		return // head starts when the slots actually free
	}
}

// startLocked grants slots to j and launches its attempt.
func (s *Server) startLocked(j *Job, slots int) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	j.Attempts++
	j.Granted = slots
	j.preempt = &mdkmc.Preemptor{}
	s.free -= slots
	reason := "scheduled"
	if j.Attempts > 1 {
		reason = "resumed"
	}
	s.transitionLocked(j, StateRunning, reason)
	rc := RunContext{
		JobID:   j.ID,
		Spec:    j.Spec,
		Dir:     j.dir,
		Slots:   slots,
		Attempt: j.Attempts,
		Preempt: j.preempt,
	}
	if j.Attempts == 1 {
		rc.Faults = j.Fault
	}
	hub := j.hub
	id := j.ID
	att := j.Attempts
	rc.Progress = func(label string) {
		hub.publish(Event{Job: id, Type: "progress", Label: label, Attempt: att})
	}
	rc.OnTelemetry = func(set *telemetry.Set) {
		s.mu.Lock()
		s.sets[id] = set
		s.mu.Unlock()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		res, err := s.runner.Run(rc)
		s.onExit(j, res, err)
	}()
}

// preemptLocked asks a running job to checkpoint and stop.
func (s *Server) preemptLocked(j *Job, reason string) {
	s.transitionLocked(j, StatePreempting, reason)
	j.preempt.Request()
}

// onExit is the single landing point of every runner goroutine.
func (s *Server) onExit(j *Job, res RunResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sets, j.ID)
	s.free += j.Granted
	j.Granted = 0
	switch {
	case err == nil:
		s.logLocked(record{Kind: recResult, Job: j.ID, Result: res.Summary, Dose: res.Dose})
		s.transitionLocked(j, StateDone, "completed")
		j.hub.close()
	case errors.Is(err, couple.ErrPreempted):
		s.transitionLocked(j, StatePreempted, "checkpointed")
		s.enqueueLocked(j)
	default:
		s.failLocked(j, err.Error())
	}
	s.scheduleLocked()
	s.commitLocked()
	s.cond.Broadcast()
}

// failLocked ends j's lifecycle with an error.
func (s *Server) failLocked(j *Job, msg string) {
	s.logLocked(record{Kind: recError, Job: j.ID, Error: msg})
	s.transitionLocked(j, StateFailed, msg)
	j.hub.close()
}

// transitionLocked records and publishes one state change.
func (s *Server) transitionLocked(j *Job, st State, reason string) {
	tr := Transition{State: st, Reason: reason, Attempt: j.Attempts, Slots: j.Granted, At: s.clock.Now()}
	s.logLocked(record{Kind: recTransition, Job: j.ID, Transition: &tr})
	j.hub.publish(stateEvent(j.ID, tr))
}

// Drain stops the intake, asks every running job to checkpoint and stop,
// commits the queue, and blocks until no job holds slots; then it compacts
// the ledger into a fresh snapshot (unless nothing was journaled since the
// last one). After Drain the server schedules nothing; a new Server on the
// same Dir resumes the work.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, j := range s.bySeq {
			if j.State == StateRunning {
				s.preemptLocked(j, "drain")
			}
		}
		s.commitLocked()
	}
	for s.activeLocked() {
		s.cond.Wait()
	}
	if s.led.size > 0 || s.led.stale {
		s.compactLocked()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) activeLocked() bool {
	for _, j := range s.bySeq {
		if j.State == StateRunning || j.State == StatePreempting {
			return true
		}
	}
	return false
}

// Status returns one job's snapshot.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	// The live campaign ledger comes from the newest checkpoint manifest —
	// read outside the lock, it touches the filesystem.
	if st.Dose == nil && j.Spec.Type == TypeCampaign && !st.State.Terminal() {
		if hash, err := j.Spec.configHash(); err == nil {
			if man, err := mdkmc.LatestCheckpoint(filepath.Join(j.dir, "ckpt"), hash); err == nil && man != nil && man.Campaign != nil {
				camp := man.Campaign
				st.Dose = newDoseStatus("checkpoint", camp.Iter, camp.Dose, camp.Trajectory)
			}
		}
	}
	return &st, nil
}

// statusLocked snapshots a job into its wire form.
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:          j.ID,
		Type:        j.Spec.Type,
		Tenant:      j.Spec.Tenant,
		Priority:    j.Spec.Priority,
		State:       j.State,
		Attempts:    j.Attempts,
		Slots:       j.Granted,
		WantSlots:   j.Spec.Slots,
		Error:       j.Err,
		SubmittedAt: j.SubmittedAt,
		History:     append([]Transition(nil), j.History...),
		Result:      j.Result,
		Dose:        j.Dose,
	}
	return st
}

// Jobs lists every job's snapshot in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.bySeq))
	for _, j := range s.bySeq {
		out = append(out, s.statusLocked(j))
	}
	return out
}

// Events subscribes to a job's event stream (backlog replay + live).
func (s *Server) Events(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	ch, cancel := j.hub.subscribe()
	return ch, cancel, nil
}

// JobDir returns a job's artifact directory.
func (s *Server) JobDir(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", ErrUnknownJob
	}
	return j.dir, nil
}

// WriteMetrics renders the merged Prometheus exposition of every running
// job's telemetry, each sample labeled job/rank.
func (s *Server) WriteMetrics(w io.Writer) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sets))
	for id := range s.sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sets := make([]*telemetry.Set, 0, len(ids))
	for _, id := range ids {
		sets = append(sets, s.sets[id])
	}
	s.mu.Unlock()
	telemetry.WritePromSets(w, sets...)
}

// FreeSlots reports the currently unheld slots (test hook).
func (s *Server) FreeSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free
}
