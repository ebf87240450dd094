package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// fault is one failure faultFS can inject.
type fault int

const (
	faultENOSPC     fault = iota + 1 // the next write fails with ENOSPC, writing nothing
	faultShortWrite                  // the next write writes half its bytes, then fails
	faultSync                        // the next fsync (of a file or a directory) fails
	faultTornRename                  // the next rename lands but reports a failure
)

// faultFS is the real filesystem with failures on demand: each armed fault
// fires once, on the next operation of its kind.
type faultFS struct {
	mu    sync.Mutex
	armed map[fault]bool
}

func (f *faultFS) arm(k fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.armed == nil {
		f.armed = make(map[fault]bool)
	}
	f.armed[k] = true
}

// fire reports whether fault k was armed, disarming it.
func (f *faultFS) fire(k fault) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	armed := f.armed[k]
	delete(f.armed, k)
	return armed
}

// fs is the ledger's view of f.
func (f *faultFS) fs() *fileSystem {
	return &fileSystem{
		openFile: func(name string, flag int, perm fs.FileMode) (file, error) {
			osf, err := os.OpenFile(name, flag, perm)
			if err != nil {
				return nil, err
			}
			return &faultFile{File: osf, fs: f}, nil
		},
		rename: func(oldpath, newpath string) error {
			if err := os.Rename(oldpath, newpath); err != nil {
				return err
			}
			if f.fire(faultTornRename) {
				return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: errors.New("injected torn rename")}
			}
			return nil
		},
		remove: os.Remove,
	}
}

type faultFile struct {
	*os.File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.fire(faultENOSPC) {
		return 0, &fs.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
	}
	if f.fs.fire(faultShortWrite) {
		n, err := f.File.Write(p[:len(p)/2])
		if err == nil {
			err = io.ErrShortWrite
		}
		return n, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.fire(faultSync) {
		return &fs.PathError{Op: "sync", Path: f.Name(), Err: errors.New("injected fsync failure")}
	}
	return f.File.Sync()
}

// discardFS swallows every ledger write, for tests of what recovery reads
// rather than of what the ledger writes.
var discardFS = &fileSystem{
	openFile: func(string, int, fs.FileMode) (file, error) { return discardFile{}, nil },
	rename:   func(string, string) error { return nil },
	remove:   func(string) error { return nil },
}

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// readLedger recovers the ledger in dir the way New does, without a server.
func readLedger(t *testing.T, dir string) *ledgerState {
	t.Helper()
	var st ledgerState
	if _, _, err := st.read(dir); err != nil {
		t.Fatal(err)
	}
	return &st
}

// historyString renders a history for comparison.
func historyString(h []Transition) string {
	var b strings.Builder
	for _, tr := range h {
		fmt.Fprintf(&b, "%s/%s/%d/%d/%s;", tr.State, tr.Reason, tr.Attempt, tr.Slots, tr.At.UTC().Format(time.RFC3339Nano))
	}
	return b.String()
}

// waitFor polls until job id reaches state want.
func waitFor(tb testing.TB, s *Server, id string, want State) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			tb.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s: state %q, want %q", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// startedTB pops one attempt announcement.
func startedTB(tb testing.TB, r *stubRunner) RunContext {
	tb.Helper()
	select {
	case rc := <-r.started:
		return rc
	case <-time.After(30 * time.Second):
		tb.Fatal("no attempt started")
		return RunContext{}
	}
}

// recordJournal drives a stub-runner server through every kind of record
// — admissions, preemption and resumption, a result with a dose block, a
// failure, a job left running and one left queued — and returns the
// journal it wrote and the server's view of its jobs at that moment.
func recordJournal(tb testing.TB) ([]byte, []JobStatus) {
	tb.Helper()
	r := newStubRunner()
	s, err := New(Config{Dir: tb.TempDir(), Slots: 1, Clock: fixedClock(t0), Runner: r})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Drain)
	submit := func(spec JobSpec, fault string) string {
		st, err := s.Submit(spec, fault)
		if err != nil {
			tb.Fatal(err)
		}
		return st.ID
	}
	a := submit(mdSpec(0, 1), "md-step:0:10")
	startedTB(tb, r)
	b := submit(mdSpec(5, 1), "") // evicts a
	waitFor(tb, s, a, StatePreempted)
	startedTB(tb, r)
	r.finish(b, RunResult{
		Summary: json.RawMessage(`{"ok":true}`),
		Dose:    &DoseStatus{Source: "result", Iter: 1, Dose: 2e-3, Population: 3},
	}, nil)
	waitFor(tb, s, b, StateDone)
	startedTB(tb, r) // a resumes
	r.finish(a, RunResult{}, errors.New("rank 0 exploded"))
	waitFor(tb, s, a, StateFailed)
	submit(campaignSpec(true), "")
	startedTB(tb, r)
	submit(mdSpec(0, 1), "") // queued behind the campaign
	jobs := s.Jobs()         // the mutex orders this after the last commit
	if s.led.gen != 0 {
		tb.Fatalf("the recording compacted (generation %d)", s.led.gen)
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, journalName(0)))
	if err != nil {
		tb.Fatal(err)
	}
	return data, jobs
}

// frames splits a valid journal at its record boundaries.
func frames(t testing.TB, data []byte) (bounds []int, recs []record) {
	t.Helper()
	bounds = []int{0}
	for off := 0; off < len(data); {
		payload, ok := nextFrame(data[off:])
		if !ok {
			t.Fatalf("recorded journal torn at byte %d", off)
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		off += frameHeader + len(payload)
		bounds = append(bounds, off)
	}
	return bounds, recs
}

// modelJob is what the first k records of a journal say about one job.
type modelJob struct {
	id      string
	history []Transition
	result  string
	err     string
}

// model derives, from the recorded run's final job views, the jobs and
// histories the first k records hold: a job exists once its admission is
// in, and its history is the prefix its transition records cover.
func model(recs []record, final []JobStatus, k int) []modelJob {
	byID := map[string]JobStatus{}
	for _, st := range final {
		byID[st.ID] = st
	}
	var out []modelJob
	at := map[string]int{}
	for _, rec := range recs[:k] {
		switch rec.Kind {
		case recAdmit:
			at[rec.Job] = len(out)
			out = append(out, modelJob{id: rec.Job})
		case recTransition:
			m := &out[at[rec.Job]]
			m.history = byID[rec.Job].History[:len(m.history)+1]
		case recResult:
			out[at[rec.Job]].result = string(byID[rec.Job].Result)
		case recError:
			out[at[rec.Job]].err = byID[rec.Job].Error
		}
	}
	return out
}

// recoveryReasons are the transitions a recovering server itself makes:
// re-queueing an interrupted job, then starting the queue's head.
var recoveryReasons = map[string]bool{"preempted/recovered": true, "running/scheduled": true, "running/resumed": true}

// checkModel compares a recovered state with the model of k records. extra
// allows, after the model's history, the transitions a recovering server
// makes itself.
func checkModel(t *testing.T, where string, got []*Job, want []modelJob, extra bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs recovered, want %d", where, len(got), len(want))
	}
	for i, m := range want {
		j := got[i]
		h := j.History
		if extra && len(h) > len(m.history) {
			for _, tr := range h[len(m.history):] {
				if !recoveryReasons[string(tr.State)+"/"+tr.Reason] {
					t.Fatalf("%s: job %s history %s goes on with %s/%s", where, j.ID, historyString(m.history), tr.State, tr.Reason)
				}
			}
			h = h[:len(m.history)]
		}
		if j.ID != m.id || historyString(h) != historyString(m.history) ||
			string(j.Result) != m.result || j.Err != m.err {
			t.Fatalf("%s: job %s history %s result %q err %q;\nwant %s %s result %q err %q",
				where, j.ID, historyString(j.History), j.Result, j.Err, m.id, historyString(m.history), m.result, m.err)
		}
	}
}

// TestRecoveryAtEveryJournalByte crashes a recorded journal at every byte:
// each record boundary and every offset inside a record. Replay must hold
// exactly the jobs and histories of the complete records before the cut,
// and a server recovered from the cut must start with them. The whole
// journal must recover every field the live server showed.
func TestRecoveryAtEveryJournalByte(t *testing.T) {
	data, final := recordJournal(t)
	bounds, recs := frames(t, data)
	kinds := map[string]bool{}
	for _, rec := range recs {
		kinds[rec.Kind] = true
	}
	if len(kinds) != 4 {
		t.Fatalf("recorded journal holds record kinds %v, want all four", kinds)
	}
	dir := t.TempDir()
	k := 0
	for cut := 0; cut <= len(data); cut++ {
		for k+1 < len(bounds) && bounds[k+1] <= cut {
			k++
		}
		want := model(recs, final, k)
		var st ledgerState
		if n := st.replay(data[:cut]); n != bounds[k] {
			t.Fatalf("cut at %d: replayed %d bytes, want %d (%d records)", cut, n, bounds[k], k)
		}
		checkModel(t, fmt.Sprintf("replay cut at %d", cut), st.bySeq, want, false)

		// The state directory is reused: the recovering servers' own ledger
		// writes are discarded, so the cut journal is all it holds.
		if err := os.WriteFile(filepath.Join(dir, journalName(0)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: newStubRunner(), fs: discardFS})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		s.mu.Lock()
		var recovered []*Job // as New left them, before the drain below
		for _, j := range s.bySeq {
			c := *j
			c.History = append([]Transition(nil), j.History...)
			recovered = append(recovered, &c)
		}
		compacted := s.led.gen == 1 || cut == 0
		s.mu.Unlock()
		s.Drain()
		checkModel(t, fmt.Sprintf("server recovered at cut %d", cut), recovered, want, true)
		if !compacted {
			t.Fatalf("cut at %d: recovery did not compact", cut)
		}
	}

	// Uncut, the journal recovers the live server's view field by field.
	var st ledgerState
	st.replay(data)
	for i, j := range st.bySeq {
		f := final[i]
		if j.ID != f.ID || j.State != f.State || j.Attempts != f.Attempts || j.Err != f.Error ||
			string(j.Result) != string(f.Result) || !j.SubmittedAt.Equal(f.SubmittedAt) ||
			historyString(j.History) != historyString(f.History) || !reflect.DeepEqual(j.Dose, f.Dose) {
			t.Errorf("job %d replayed as %+v, live %+v", i, j, f)
		}
	}
	if st.bySeq[0].Fault != "md-step:0:10" {
		t.Errorf("fault plan %q not journaled", st.bySeq[0].Fault)
	}
}

// flipped returns b with one bit of byte i flipped.
func flipped(b []byte, i int) []byte {
	b[i] ^= 1
	return b
}

// TestReplayStopsAtFirstBadRecord: replay takes the records before the
// first one that is damaged or does not apply, and nothing after it.
func TestReplayStopsAtFirstBadRecord(t *testing.T) {
	admit := func(seq int) string {
		return fmt.Sprintf(`{"kind":"admit","job":%q,"admit":{"seq":%d,"spec":{"type":"md"}}}`, jobID(seq), seq)
	}
	first := appendFrame(nil, []byte(admit(1)))
	for name, bad := range map[string][]byte{
		"unknown kind":    appendFrame(nil, []byte(`{"kind":"rename","job":"job-000001"}`)),
		"unknown job":     appendFrame(nil, []byte(`{"kind":"error","job":"job-000009","error":"x"}`)),
		"repeated seq":    appendFrame(nil, []byte(admit(1))),
		"id off its seq":  appendFrame(nil, []byte(`{"kind":"admit","job":"job-000007","admit":{"seq":2}}`)),
		"unknown state":   appendFrame(nil, []byte(`{"kind":"transition","job":"job-000001","transition":{"state":"paused"}}`)),
		"not json":        appendFrame(nil, []byte(`{"kind":`)),
		"flipped bit":     flipped(appendFrame(nil, []byte(admit(2))), frameHeader+5),
		"length past end": append([]byte{0xff, 0xff, 0, 0, 0, 0, 0, 0}, admit(2)...),
	} {
		data := append(append(bytes.Clone(first), bad...), appendFrame(nil, []byte(admit(3)))...)
		var st ledgerState
		if n := st.replay(data); n != len(first) || len(st.bySeq) != 1 {
			t.Errorf("%s: replayed %d bytes, %d jobs; want %d bytes, 1 job", name, n, len(st.bySeq), len(first))
		}
	}
}

// TestFreshServerWritesNoLedger: New on an empty directory writes nothing;
// the first commit creates the journal, and a drain compacts it away.
func TestFreshServerWritesNoLedger(t *testing.T) {
	s, r := newTestServer(t, nil)
	names := func() []string {
		t.Helper()
		ents, err := os.ReadDir(s.cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	if got := fmt.Sprint(names()); got != "[jobs]" {
		t.Fatalf("fresh server wrote %s", got)
	}
	st, err := s.Submit(mdSpec(0, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	nextStarted(t, r)
	if got := fmt.Sprint(names()); got != "[jobs ledger-0.journal]" {
		t.Fatalf("after a submit: %s", got)
	}
	r.finish(st.ID, RunResult{}, nil)
	awaitState(t, s, st.ID, StateDone)
	s.Drain()
	if got := fmt.Sprint(names()); got != "[jobs ledger.json]" {
		t.Fatalf("after a drain: %s", got)
	}
	if st := readLedger(t, s.cfg.Dir); len(st.bySeq) != 1 || st.bySeq[0].State != StateDone {
		t.Fatalf("drained ledger holds %+v", st.bySeq)
	}
}

// TestJournalCompactsWhenItOutgrowsTheSnapshot: the journal never grows
// past max(compactFloor, 2× snapshot) by more than one commit, each
// compaction starts a new generation, and the ledger on disk always
// recovers the live state.
func TestJournalCompactsWhenItOutgrowsTheSnapshot(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Runner, c.QueueDepth, c.TenantMaxActive = instantRunner{}, 1000, 1000
	})
	var gens []uint64
	for i := 0; i < 400; i++ {
		if _, err := s.Submit(mdSpec(0, 1), ""); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		gen, size, lim := s.led.gen, s.led.size, max(compactFloor, 2*s.led.snap)+4<<10
		s.mu.Unlock()
		if n := len(gens); n == 0 || gens[n-1] != gen {
			gens = append(gens, gen)
		}
		if size > lim {
			t.Fatalf("journal at %d bytes, limit %d", size, lim)
		}
	}
	if len(gens) < 3 {
		t.Fatalf("generations %v: want at least two compactions in 400 jobs", gens)
	}
	s.Drain()
	st := readLedger(t, s.cfg.Dir)
	want := s.Jobs()
	if len(st.bySeq) != len(want) {
		t.Fatalf("ledger holds %d jobs, server %d", len(st.bySeq), len(want))
	}
	for i, j := range st.bySeq {
		if j.State != want[i].State || historyString(j.History) != historyString(want[i].History) {
			t.Fatalf("job %s on disk %s, live %s", j.ID, historyString(j.History), historyString(want[i].History))
		}
	}
	if old, _ := filepath.Glob(filepath.Join(s.cfg.Dir, "ledger-*.journal")); len(old) != 0 {
		t.Fatalf("journals left after the drain compaction: %v", old)
	}
}

// instantRunner finishes every attempt at once.
type instantRunner struct{}

func (instantRunner) Run(RunContext) (RunResult, error) {
	return RunResult{Summary: json.RawMessage(`{"ok":true}`)}, nil
}

// TestSubmitCostDoesNotGrowWithHistory: a commit costs O(changed jobs).
// Each job runs to completion, and its exit commit lands, before the next
// is submitted, so a Submit's latency and bytes are its own commit's. Two
// measures, each the median over a 100-job window so that one GC or fsync
// stall, or an (amortized) compaction, does not decide it: the wall time of
// Submit, and the bytes it writes through the ledger's filesystem, which
// do not depend on the host. With a whole-ledger rewrite per commit, the
// mean Submit over jobs 1,501–2,000 was about 7× the mean over jobs 1–500.
func TestSubmitCostDoesNotGrowWithHistory(t *testing.T) {
	var written countingFS
	release := make(gatedRunner)
	s, _ := newTestServer(t, func(c *Config) { c.Runner, c.fs = release, written.fs() })
	const n, window = 2000, 100
	lat := make([]time.Duration, n)
	wrote := make([]int64, n)
	for i := range lat {
		before := written.bytes()
		start := time.Now()
		st, err := s.Submit(mdSpec(0, 1), "")
		lat[i] = time.Since(start)
		// The job waits in Run for its release: nothing else has committed.
		wrote[i] = written.bytes() - before
		if err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		awaitState(t, s, st.ID, StateDone)
		s.mu.Lock() // the exit commit holds the lock from the Done event to its fsync
		s.mu.Unlock()
	}
	first, last := median(lat[:window]), median(lat[n-window:])
	firstB, lastB := median(wrote[:window]), median(wrote[n-window:])
	t.Logf("median Submit: jobs 1-%d %v and %d B, jobs %d-%d %v and %d B",
		window, first, firstB, n-window+1, n, last, lastB)
	// The slack is the width of the decimal sequence number in the admit
	// record (2 digits in the first window, 4 in the last).
	if firstB == 0 || lastB > firstB+8 {
		t.Errorf("median bytes a Submit writes grew from %d (jobs 1-%d) to %d (jobs %d-%d)", firstB, window, lastB, n-window+1, n)
	}
	if last > 2*first {
		t.Errorf("median Submit grew from %v (jobs 1-%d) to %v (jobs %d-%d)", first, window, last, n-window+1, n)
	}
}

// median returns the median of xs, which it sorts.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// gatedRunner finishes an attempt when it receives a release.
type gatedRunner chan struct{}

func (g gatedRunner) Run(RunContext) (RunResult, error) {
	<-g
	return RunResult{Summary: json.RawMessage(`{"ok":true}`)}, nil
}

// countingFS is the real filesystem, counting the bytes the ledger writes
// through it (journal appends and snapshot commits).
type countingFS struct{ n atomic.Int64 }

func (c *countingFS) bytes() int64 { return c.n.Load() }

func (c *countingFS) fs() *fileSystem {
	return &fileSystem{
		openFile: func(name string, flag int, perm fs.FileMode) (file, error) {
			f, err := os.OpenFile(name, flag, perm)
			if err != nil {
				return nil, err
			}
			return countingFile{File: f, n: &c.n}, nil
		},
		rename: os.Rename,
		remove: os.Remove,
	}
}

type countingFile struct {
	*os.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// TestRecoveredJobsReplayHistory: after a restart, a job's event stream
// replays its recorded history as state events — a finished job's stream
// then closes — and the numbering continues after it.
func TestRecoveredJobsReplayHistory(t *testing.T) {
	dir := t.TempDir()
	r := newStubRunner()
	s, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	a, _ := s.Submit(mdSpec(0, 1), "")
	nextStarted(t, r)
	r.finish(a.ID, RunResult{}, nil)
	awaitState(t, s, a.ID, StateDone)
	b, _ := s.Submit(mdSpec(0, 1), "")
	nextStarted(t, r)
	c, _ := s.Submit(mdSpec(0, 1), "")
	s.Drain() // b preempted, c still queued

	r2 := newStubRunner()
	s2, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r2})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s2)
	nextStarted(t, r2) // b resumes; c waits
	events := func(id string, n int) []string {
		t.Helper()
		ch, cancel, err := s2.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		var out []string
		for len(out) < n {
			select {
			case e, ok := <-ch:
				if !ok {
					return out
				}
				out = append(out, fmt.Sprintf("%d:%s/%s", e.Seq, e.State, e.Reason))
			case <-time.After(5 * time.Second):
				t.Fatalf("job %s: %d events %v, want %d", id, len(out), out, n)
			}
		}
		return out
	}
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{a.ID, []string{"1:queued/submitted", "2:running/scheduled", "3:done/completed"}},
		{b.ID, []string{"1:queued/submitted", "2:running/scheduled", "3:preempting/drain", "4:preempted/checkpointed", "5:running/resumed"}},
		{c.ID, []string{"1:queued/submitted"}},
	} {
		// One more than the history for the finished job: its stream must
		// close instead of delivering it.
		n := len(tc.want)
		if tc.id == a.ID {
			n++
		}
		if got := events(tc.id, n); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("job %s replays %v, want %v", tc.id, got, tc.want)
		}
	}
}

// invalidSpec is a spec Submit refuses with 400.
var invalidSpec = JobSpec{Type: TypeMD, Cells: [3]int{-1, 8, 8}}

// checkInvalidSpecFails: the recovered server failed the job with the
// invalid spec instead of queueing it, and still runs the valid one.
func checkInvalidSpecFails(t *testing.T, dir string) {
	t.Helper()
	r := newStubRunner()
	s, err := New(Config{Dir: dir, Slots: 1, Clock: fixedClock(t0), Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, s)
	st, err := s.Status(jobID(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.HasPrefix(st.Error, "invalid spec in ledger: ") {
		t.Fatalf("job with an invalid spec recovered as %q (%q), want failed", st.State, st.Error)
	}
	if rc := nextStarted(t, r); rc.JobID != jobID(2) {
		t.Fatalf("recovered server started %s, want %s", rc.JobID, jobID(2))
	}
	r.finish(jobID(2), RunResult{}, nil)
	awaitState(t, s, jobID(2), StateDone)
}

func TestRecoveryFailsInvalidSpecFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	lf := ledgerFile{Gen: 3, Seq: 2, Jobs: []persistedJob{
		{ID: jobID(1), Seq: 1, Spec: invalidSpec, State: StateQueued, SubmittedAt: t0},
		{ID: jobID(2), Seq: 2, Spec: mdSpec(0, 1), State: StateQueued, SubmittedAt: t0},
	}}
	data, err := json.Marshal(&lf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ledgerName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	checkInvalidSpecFails(t, dir)
}

func TestRecoveryFailsInvalidSpecFromJournal(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	for seq, spec := range []JobSpec{invalidSpec, mdSpec(0, 1)} {
		id := jobID(seq + 1)
		for _, rec := range []record{
			{Kind: recAdmit, Job: id, Admit: &admission{Seq: seq + 1, Spec: spec, SubmittedAt: t0}},
			{Kind: recTransition, Job: id, Transition: &Transition{State: StateQueued, Reason: "submitted", At: t0}},
		} {
			var err error
			if data, err = appendRecord(data, &rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, journalName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	checkInvalidSpecFails(t, dir)
}

// sealed frames each line of data as one journal record with a valid
// checksum, so the fuzzer reaches the checks behind the framing.
func sealed(data []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		out = appendFrame(out, line)
	}
	return out
}

// FuzzJournal holds journal replay to its contract on any input: it never
// panics, and what it recovers is a prefix — the bytes it accepted replay
// whole, to the same jobs. With reseal set, each line of the input is
// framed as one record with a valid checksum, so the checks behind the
// framing (unknown kind, unknown job, non-increasing seq, and the spec
// validation recovery runs before queueing a job) are reached too. The
// seeds are a journal a stub-runner run recorded, raw and as lines.
func FuzzJournal(f *testing.F) {
	data, _ := recordJournal(f)
	f.Add(data, false)
	_, recs := frames(f, data)
	var lines [][]byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, line)
	}
	f.Add(bytes.Join(lines, []byte("\n")), true)
	for _, bad := range []string{
		`{"kind":"rename","job":"job-000001"}`,
		`{"kind":"transition","job":"job-000009","transition":{"state":"done"}}`,
		`{"kind":"admit","job":"job-000001","admit":{"seq":1,"spec":{"type":"md","cells":[-1,8,8]}}}`,
		`{"kind":"admit","job":"job-000000","admit":{"seq":0,"spec":{"type":"md"}}}`,
	} {
		f.Add(append(append(bytes.Clone(lines[0]), '\n'), bad...), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = sealed(data)
		}
		var st ledgerState
		n := st.replay(data)
		if n < 0 || n > len(data) {
			t.Fatalf("replayed %d of %d bytes", n, len(data))
		}
		var again ledgerState
		if m := again.replay(data[:n]); m != n || len(again.bySeq) != len(st.bySeq) {
			t.Fatalf("the accepted prefix of %d bytes replays %d bytes, %d jobs (want %d)", n, m, len(again.bySeq), len(st.bySeq))
		}
		for i, j := range st.bySeq {
			if k := again.bySeq[i]; k.ID != j.ID || k.State != j.State || historyString(k.History) != historyString(j.History) {
				t.Fatalf("prefix replay diverged at job %s", j.ID)
			}
			if st.jobs[j.ID] != j || (i > 0 && j.Seq <= st.bySeq[i-1].Seq) || !j.State.valid() {
				t.Fatalf("replayed state inconsistent at job %s", j.ID)
			}
			if !j.State.Terminal() {
				j.Spec.Validate() //nolint:errcheck — recovery fails the job; here it only must not panic
			}
		}
	})
}
