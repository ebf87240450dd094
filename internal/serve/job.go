package serve

import (
	"encoding/json"
	"time"

	"mdkmc"
	"mdkmc/internal/couple"
)

// State is a job's position in the lifecycle state machine (DESIGN.md §16):
//
//	queued ──> running ──> done
//	  ^           │  \──> failed
//	  │           v
//	  │       preempting ──> preempted ──> running ("resumed") ...
//	  └────────────────────────┘ (server-crash recovery)
//
// Transitions happen only on submissions, scheduler decisions, and job
// exits — never on timers — so the machine is deterministic given the
// submission order and the runner's completion order.
type State string

// The job states.
const (
	StateQueued     State = "queued"     // admitted, waiting for slots
	StateRunning    State = "running"    // holds slots, world stepping
	StatePreempting State = "preempting" // eviction requested, awaiting the checkpoint boundary
	StatePreempted  State = "preempted"  // snapshot committed, back in the queue
	StateDone       State = "done"       // finished, result recorded
	StateFailed     State = "failed"     // exited with an error
)

// Terminal reports whether the state ends the lifecycle.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Transition is one recorded state change.
type Transition struct {
	State   State     `json:"state"`
	Reason  string    `json:"reason,omitempty"`
	Attempt int       `json:"attempt"`
	Slots   int       `json:"slots,omitempty"`
	At      time.Time `json:"at"`
}

// Job is the server's record of one submitted simulation. All mutable
// fields are guarded by the server mutex; handlers read consistent copies
// via snapshot.
type Job struct {
	ID          string
	Seq         int
	Spec        JobSpec
	Fault       string // injected-fault plan, applied on the first attempt only
	SubmittedAt time.Time

	State    State
	Attempts int // times started (>1 means resumed)
	Granted  int // slots currently held
	Err      string
	Result   json.RawMessage
	Dose     *DoseStatus // final campaign ledger (campaign jobs, once done)
	History  []Transition

	preempt *mdkmc.Preemptor // current attempt's eviction handle
	hub     *hub
	dir     string // job directory: checkpoints and artifacts
}

// JobStatus is the wire form of GET /jobs/{id}.
type JobStatus struct {
	ID          string          `json:"id"`
	Type        string          `json:"type"`
	Tenant      string          `json:"tenant"`
	Priority    int             `json:"priority"`
	State       State           `json:"state"`
	Attempts    int             `json:"attempts"`
	Slots       int             `json:"slots"`      // currently granted
	WantSlots   int             `json:"want_slots"` // spec maximum
	Error       string          `json:"error,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	History     []Transition    `json:"history"`
	Result      json.RawMessage `json:"result,omitempty"`
	// Dose is the campaign dose ledger — live from the newest checkpoint
	// manifest while the job runs, so /jobs/{id} tracks accumulation
	// between iterations.
	Dose *DoseStatus `json:"dose,omitempty"`
}

// DoseStatus is the campaign-ledger block of a job status: the cumulative
// dose and the per-iteration trajectory, read live from the newest
// checkpoint manifest while the campaign runs ("checkpoint") or from the
// final result once it is done ("result").
type DoseStatus struct {
	Source     string                    `json:"source"`
	Iter       int                       `json:"iter"`
	Dose       float64                   `json:"dose_dpa"`
	Population int                       `json:"population"`
	Ledger     []couple.IterationSummary `json:"ledger,omitempty"`
}

// newDoseStatus builds the dose block from a campaign ledger. Population is
// the last ledger row's — the vacancy count after the latest anneal, in the
// atomistic and the OKMC mode alike — so the live and the final view agree
// with the ledger they carry.
func newDoseStatus(source string, iter int, dose float64, ledger []couple.IterationSummary) *DoseStatus {
	d := &DoseStatus{Source: source, Iter: iter, Dose: dose, Ledger: ledger}
	if n := len(ledger); n > 0 {
		d.Population = ledger[n-1].Population
	}
	return d
}
