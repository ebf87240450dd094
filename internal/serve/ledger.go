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

// The job ledger is the server's durable state, a snapshot plus a journal
// (DESIGN.md §16). ledger.json is the snapshot of generation gen: every job
// as it stood at the last compaction. ledger-<gen>.journal holds the state
// changes since, one record each (journal.go); every commit point appends
// the records of the changes since the last commit and fsyncs them, so a
// commit costs O(changed jobs), not O(jobs).
//
// Compaction writes the whole state as the snapshot of generation gen+1
// through commitFile and deletes the old journal. It runs when the journal
// outgrows max(compactFloor, 2× the snapshot), at Drain, after a recovery
// that read anything, and at the first commit after any failure. A new
// generation always starts a new journal, so no record is written behind a
// torn tail and no record is replayed twice: a recovered snapshot names the
// one journal whose records follow it.
//
// On restart, New loads the snapshot and replays the journal's longest
// valid prefix — terminal jobs keep their records, waiting jobs re-enter
// the queue, and jobs that were mid-run when the process died are
// re-queued as preempted so their next attempt resumes from whatever
// checkpoint their directory holds.

const ledgerName = "ledger.json"

// compactFloor is the journal size below which growth alone never compacts.
const compactFloor = 64 << 10

// journalName is the journal of snapshot generation gen.
func journalName(gen uint64) string { return fmt.Sprintf("ledger-%d.journal", gen) }

// persistedJob is a Job's snapshot form.
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

// ledgerFile is the snapshot document.
type ledgerFile struct {
	Gen  uint64         `json:"gen"`
	Seq  int            `json:"seq"`
	Jobs []persistedJob `json:"jobs"`
}

// ledger is the write side: the open journal and what the next commit
// owes it. Guarded by the server mutex.
type ledger struct {
	fs      *fileSystem
	dir     string
	gen     uint64   // generation of the snapshot on disk, naming the journal
	f       file     // the journal, nil until this generation's first append
	size    int      // bytes in the journal
	snap    int      // bytes in the last snapshot written
	pending []record // state changes since the last commit
	buf     []byte   // frame buffer, reused across commits
	// stale is set by a failed append or compaction: the journal may end
	// in a torn record, so nothing more is appended to it and the next
	// commit compacts instead.
	stale bool
	// err is the last failure, nil after a successful commit. A failure
	// does not stop the server (the in-memory machine is still consistent),
	// but a restart would recover a stale ledger, so GET /healthz reports
	// the server "degraded" until a later commit succeeds.
	err error
}

// logLocked makes one state change and queues its record for the next
// commit. It returns the job the record names.
func (s *Server) logLocked(rec record) *Job {
	j := s.apply(&rec)
	s.led.pending = append(s.led.pending, rec)
	return j
}

// commitLocked is a commit point: it appends the pending records to the
// journal and fsyncs it, compacting instead when the journal is stale and
// afterwards when it has outgrown the snapshot.
func (s *Server) commitLocked() {
	l := &s.led
	if l.stale {
		s.compactLocked()
		return
	}
	if len(l.pending) == 0 {
		return
	}
	if l.err = l.append(); l.err != nil {
		l.stale = true
		return
	}
	if l.size > max(compactFloor, 2*l.snap) {
		s.compactLocked()
	}
}

// append writes the pending records to the journal and fsyncs it. The
// first append of a generation creates the journal (truncating any file a
// crashed generation left under that name) and fsyncs the directory.
func (l *ledger) append() error {
	buf := l.buf[:0]
	for i := range l.pending {
		var err error
		if buf, err = appendRecord(buf, &l.pending[i]); err != nil {
			return err
		}
	}
	l.buf = buf
	l.pending = l.pending[:0]
	if l.f == nil {
		f, err := l.fs.openFile(filepath.Join(l.dir, journalName(l.gen)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: opening journal: %w", err)
		}
		l.f = f
		if err := syncDir(l.fs, l.dir); err != nil {
			return fmt.Errorf("serve: opening journal: %w", err)
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("serve: appending journal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing journal: %w", err)
	}
	l.size += len(buf)
	return nil
}

// compactLocked writes the whole state as the snapshot of the next
// generation, whose journal starts empty. Until a compaction succeeds the
// ledger stays stale, so no record is appended to any journal meanwhile.
func (s *Server) compactLocked() {
	l := &s.led
	l.pending = l.pending[:0]
	if l.f != nil {
		l.f.Close() //nolint:errcheck — every record in it was fsynced or is superseded
		l.f = nil
	}
	l.size = 0
	lf := ledgerFile{Gen: l.gen + 1, Seq: s.seq, Jobs: make([]persistedJob, 0, len(s.bySeq))}
	for _, j := range s.bySeq {
		lf.Jobs = append(lf.Jobs, persistedJob{
			ID: j.ID, Seq: j.Seq, Spec: j.Spec, Fault: j.Fault,
			State: j.State, Attempts: j.Attempts, Error: j.Err,
			Result: j.Result, Dose: j.Dose,
			SubmittedAt: j.SubmittedAt, History: j.History,
		})
	}
	data, err := json.Marshal(&lf)
	if err == nil {
		err = commitFile(l.fs, filepath.Join(l.dir, ledgerName), data)
	} else {
		err = fmt.Errorf("serve: encoding ledger: %w", err)
	}
	l.err, l.stale = err, err != nil
	if err != nil {
		return
	}
	l.gen, l.snap = lf.Gen, len(data)
	// Journals of earlier generations are dead now; one left behind by a
	// failed removal is never read (no snapshot names it again).
	old, _ := filepath.Glob(filepath.Join(l.dir, "ledger-*.journal"))
	for _, p := range old {
		l.fs.remove(p) //nolint:errcheck — see above
	}
}

// ledgerErr returns the last ledger commit failure, or nil once a later
// commit succeeded.
func (s *Server) ledgerErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.err
}

// recover reads the ledger and installs every job. It reports whether it
// read anything, i.e. whether New must compact.
func (s *Server) recover() (bool, error) {
	gen, read, err := s.read(s.cfg.Dir)
	if err != nil {
		return false, err
	}
	s.led.gen = gen
	for _, j := range s.bySeq {
		if err := s.installLocked(j); err != nil {
			return false, err
		}
	}
	return read, nil
}

// read fills an empty state from the ledger in dir: the snapshot, then the
// longest valid prefix of its journal. It returns the snapshot's
// generation and whether either file held anything.
func (st *ledgerState) read(dir string) (gen uint64, read bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ledgerName))
	switch {
	case err == nil:
		var lf ledgerFile
		if err := json.Unmarshal(data, &lf); err != nil {
			return 0, false, fmt.Errorf("serve: decoding ledger: %w", err)
		}
		if err := st.load(&lf); err != nil {
			return 0, false, err
		}
		gen, read = lf.Gen, true
	case !errors.Is(err, fs.ErrNotExist):
		return 0, false, fmt.Errorf("serve: reading ledger: %w", err)
	}
	data, err = os.ReadFile(filepath.Join(dir, journalName(gen)))
	switch {
	case err == nil:
		st.replay(data)
		read = read || len(data) > 0
	case !errors.Is(err, fs.ErrNotExist):
		return 0, false, fmt.Errorf("serve: reading journal: %w", err)
	}
	return gen, read, nil
}

// load fills an empty state from a snapshot.
func (st *ledgerState) load(lf *ledgerFile) error {
	for i := range lf.Jobs {
		pj := &lf.Jobs[i]
		if err := st.checkNew(pj.ID, pj.Seq); err != nil {
			return fmt.Errorf("serve: ledger: %w", err)
		}
		if !pj.State.valid() {
			return fmt.Errorf("serve: ledger job %s has unknown state %q", pj.ID, pj.State)
		}
		st.add(&Job{
			ID: pj.ID, Seq: pj.Seq, Spec: pj.Spec, Fault: pj.Fault,
			SubmittedAt: pj.SubmittedAt, State: pj.State,
			Attempts: pj.Attempts, Err: pj.Error, Result: pj.Result,
			Dose: pj.Dose, History: pj.History,
		})
	}
	st.seq = max(st.seq, lf.Seq)
	return nil
}

// installLocked gives a recovered job its directory and event hub — whose
// backlog replays the recorded history — and its place in the machine.
func (s *Server) installLocked(j *Job) error {
	j.dir = filepath.Join(s.cfg.Dir, "jobs", j.ID)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	j.hub = newHub()
	for _, tr := range j.History {
		j.hub.publish(stateEvent(j.ID, tr))
	}
	if j.State.Terminal() {
		j.hub.close()
		return nil
	}
	// A job that runs again must pass admission again: a damaged ledger
	// must not queue a spec Submit would refuse. (Validate also fills the
	// scheduling defaults in.)
	if err := j.Spec.Validate(); err != nil {
		s.failLocked(j, "invalid spec in ledger: "+err.Error())
		return nil
	}
	if j.State == StateRunning || j.State == StatePreempting {
		// The previous process died holding this job's slots. Its next
		// attempt opens the checkpoint directory in restart mode, so it
		// resumes from the newest committed snapshot — or starts fresh
		// when none was committed yet.
		s.transitionLocked(j, StatePreempted, "recovered")
	}
	s.enqueueLocked(j)
	return nil
}
