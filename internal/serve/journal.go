package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// The journal holds the state changes since the last snapshot, one record
// per change, each framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of the payload | payload
//
// where the payload is one JSON record. Replay applies the longest valid
// prefix: it stops at the first record that is torn, fails its checksum,
// or does not apply to the state before it.

// frameHeader is the length and checksum before each payload.
const frameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record kinds, one per kind of state change.
const (
	recAdmit      = "admit"      // a job was admitted, with its spec
	recTransition = "transition" // a job changed state
	recResult     = "result"     // a job's result (and final dose block)
	recError      = "error"      // a job's failure message
)

// record is one journaled state change of job Job. Which of the optional
// fields is set follows from Kind.
type record struct {
	Kind       string          `json:"kind"`
	Job        string          `json:"job"`
	Admit      *admission      `json:"admit,omitempty"`
	Transition *Transition     `json:"transition,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Dose       *DoseStatus     `json:"dose,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// admission is what an admit record knows of a new job.
type admission struct {
	Seq         int       `json:"seq"`
	Spec        JobSpec   `json:"spec"`
	Fault       string    `json:"fault,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
}

// jobID names the job of submission sequence seq.
func jobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

// appendRecord appends rec, framed, to buf.
func appendRecord(buf []byte, rec *record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("serve: encoding journal record: %w", err)
	}
	return appendFrame(buf, payload), nil
}

// appendFrame appends payload to buf behind its length and checksum.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// nextFrame returns the payload of the frame at the start of data, or false
// when the frame is torn or fails its checksum.
func nextFrame(data []byte) ([]byte, bool) {
	if len(data) < frameHeader {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-frameHeader) {
		return nil, false
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, false
	}
	return payload, true
}

// ledgerState is the ledger's content: every job, in submission order, and
// the last sequence number handed out. A snapshot loads it whole; a
// journal record changes it through check and apply.
type ledgerState struct {
	jobs  map[string]*Job
	bySeq []*Job // submission order: the deterministic iteration order
	seq   int
}

// replay applies the longest valid prefix of a journal and returns its
// length in bytes.
func (st *ledgerState) replay(data []byte) int {
	off := 0
	for {
		payload, ok := nextFrame(data[off:])
		if !ok {
			return off
		}
		var rec record
		if json.Unmarshal(payload, &rec) != nil || st.check(&rec) != nil {
			return off
		}
		st.apply(&rec)
		off += frameHeader + len(payload)
	}
}

// check reports why rec cannot follow the current state: an unknown kind,
// an unknown (or, for an admission, an existing) job, a sequence number
// that does not increase, or an unknown state. A spec that fails Validate
// is not refused here; recovery fails that job.
func (st *ledgerState) check(rec *record) error {
	if rec.Kind == recAdmit {
		if rec.Admit == nil {
			return errors.New("serve: admit record without an admission")
		}
		return st.checkNew(rec.Job, rec.Admit.Seq)
	}
	if st.jobs[rec.Job] == nil {
		return fmt.Errorf("serve: %s record for unknown job %q", rec.Kind, rec.Job)
	}
	switch rec.Kind {
	case recTransition:
		if rec.Transition == nil || !rec.Transition.State.valid() {
			return fmt.Errorf("serve: job %s: transition without a known state", rec.Job)
		}
	case recResult, recError:
	default:
		return fmt.Errorf("serve: unknown record kind %q", rec.Kind)
	}
	return nil
}

// checkNew reports why job id of sequence seq cannot be added: its ID is not
// the one seq names, or seq does not follow the last one.
func (st *ledgerState) checkNew(id string, seq int) error {
	if seq <= st.seq {
		return fmt.Errorf("serve: job seq %d does not follow %d", seq, st.seq)
	}
	if id != jobID(seq) {
		return fmt.Errorf("serve: job %q has seq %d", id, seq)
	}
	return nil
}

// apply makes one state change: the live server's and the replay's only
// path. It returns the job rec names (the new one, for an admission).
func (st *ledgerState) apply(rec *record) *Job {
	if rec.Kind == recAdmit {
		a := rec.Admit
		j := &Job{
			ID: rec.Job, Seq: a.Seq, Spec: a.Spec, Fault: a.Fault,
			SubmittedAt: a.SubmittedAt, State: StateQueued,
		}
		st.add(j)
		return j
	}
	j := st.jobs[rec.Job]
	switch rec.Kind {
	case recTransition:
		tr := *rec.Transition
		j.State, j.Attempts = tr.State, tr.Attempt
		j.History = append(j.History, tr)
	case recResult:
		j.Result = rec.Result
		if rec.Dose != nil {
			j.Dose = rec.Dose
		}
	case recError:
		j.Err = rec.Error
	}
	return j
}

// add appends a new job in submission order.
func (st *ledgerState) add(j *Job) {
	if st.jobs == nil {
		st.jobs = make(map[string]*Job)
	}
	st.jobs[j.ID] = j
	st.bySeq = append(st.bySeq, j)
	st.seq = j.Seq
}

// valid reports whether s is one of the job states.
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StatePreempting, StatePreempted, StateDone, StateFailed:
		return true
	}
	return false
}
