package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// The job ledger is the server's durable state: one JSON document, written
// atomically (temp file + rename) after every externally visible state
// change. On restart, New replays it — terminal jobs keep their records,
// waiting jobs re-enter the queue, and jobs that were mid-run when the
// process died are re-queued as preempted so their next attempt resumes
// from whatever checkpoint their directory holds.

const ledgerName = "ledger.json"

// persistedJob is a Job's durable form.
type persistedJob struct {
	ID          string          `json:"id"`
	Seq         int             `json:"seq"`
	Spec        JobSpec         `json:"spec"`
	Fault       string          `json:"fault,omitempty"`
	State       State           `json:"state"`
	Attempts    int             `json:"attempts"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Dose        *DoseStatus     `json:"dose,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	History     []Transition    `json:"history,omitempty"`
}

// ledgerFile is the on-disk document.
type ledgerFile struct {
	Seq      int            `json:"seq"`
	Draining bool           `json:"draining,omitempty"`
	Jobs     []persistedJob `json:"jobs"`
}

// persistLocked writes the ledger atomically. A failure does not stop the
// server (the in-memory machine is still consistent), but a restart would
// replay a stale ledger, so the error is kept and GET /healthz reports the
// server "degraded" until the next write succeeds.
func (s *Server) persistLocked() {
	s.persistErr = s.writeLedgerLocked()
}

// writeLedgerLocked writes the ledger to a temp file and renames it into
// place, removing the temp file when the rename fails.
func (s *Server) writeLedgerLocked() error {
	lf := ledgerFile{Seq: s.seq, Draining: s.draining}
	for _, j := range s.bySeq {
		lf.Jobs = append(lf.Jobs, persistedJob{
			ID: j.ID, Seq: j.Seq, Spec: j.Spec, Fault: j.Fault,
			State: j.State, Attempts: j.Attempts, Error: j.Err,
			Result: j.Result, Dose: j.Dose,
			SubmittedAt: j.SubmittedAt, History: j.History,
		})
	}
	data, err := json.MarshalIndent(&lf, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding ledger: %w", err)
	}
	path := filepath.Join(s.cfg.Dir, ledgerName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: writing ledger: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck — the rename error is the one to report
		return fmt.Errorf("serve: committing ledger: %w", err)
	}
	return nil
}

// ledgerErr returns the last ledger persistence failure, or nil once a
// later write succeeded.
func (s *Server) ledgerErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErr
}

// recover replays a persisted ledger into a fresh server.
func (s *Server) recover() error {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, ledgerName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: reading ledger: %w", err)
	}
	var lf ledgerFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return fmt.Errorf("serve: decoding ledger: %w", err)
	}
	s.seq = lf.Seq
	for i := range lf.Jobs {
		pj := &lf.Jobs[i]
		pj.Spec.normalize()
		j := &Job{
			ID: pj.ID, Seq: pj.Seq, Spec: pj.Spec, Fault: pj.Fault,
			SubmittedAt: pj.SubmittedAt, State: pj.State,
			Attempts: pj.Attempts, Err: pj.Error, Result: pj.Result,
			Dose: pj.Dose, History: pj.History,
			hub: newHub(),
			dir: filepath.Join(s.cfg.Dir, "jobs", pj.ID),
		}
		if err := os.MkdirAll(j.dir, 0o755); err != nil {
			return fmt.Errorf("serve: job dir: %w", err)
		}
		switch pj.State {
		case StateRunning, StatePreempting:
			// The previous process died holding this job's slots. Its next
			// attempt opens the checkpoint directory in restart mode, so it
			// resumes from the newest committed snapshot — or starts fresh
			// when none was committed yet.
			s.transitionLocked(j, StatePreempted, "recovered")
			s.jobs[j.ID] = j
			s.bySeq = append(s.bySeq, j)
			s.enqueueLocked(j)
		case StateQueued, StatePreempted:
			s.jobs[j.ID] = j
			s.bySeq = append(s.bySeq, j)
			s.enqueueLocked(j)
		case StateDone, StateFailed:
			j.hub.close()
			s.jobs[j.ID] = j
			s.bySeq = append(s.bySeq, j)
		default:
			return fmt.Errorf("serve: ledger job %s has unknown state %q", pj.ID, pj.State)
		}
	}
	return nil
}
