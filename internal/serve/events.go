package serve

import "sync"

// Event is one entry of a job's event stream: a state transition or a
// progress heartbeat (one per telemetry flush of the running world).
type Event struct {
	Job     string `json:"job"`
	Seq     int    `json:"seq"`
	Type    string `json:"type"` // "state" or "progress"
	State   State  `json:"state,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Slots   int    `json:"slots,omitempty"`
	Label   string `json:"label,omitempty"` // progress flush label
}

// hub is one job's event fan-out. Every subscriber first replays the full
// backlog, then receives live events, so a test (or a reconnecting SSE
// client) never races a transition: subscribe whenever, read everything.
// Subscribers are a slice, not a map, so delivery order is deterministic.
type hub struct {
	mu      sync.Mutex
	seq     int
	backlog []Event
	subs    []chan Event
	closed  bool
}

func newHub() *hub { return &hub{} }

// stateEvent is the event that publishes transition tr of job id.
func stateEvent(id string, tr Transition) Event {
	return Event{
		Job: id, Type: "state", State: tr.State, Reason: tr.Reason,
		Attempt: tr.Attempt, Slots: tr.Slots,
	}
}

// publish stamps e with the next sequence number, records it, and fans it
// out. A full (slow) subscriber drops the event rather than stalling the
// rank goroutine that flushed it; the backlog-replaying subscribe path is
// the lossless one. This is the per-step-boundary fan-out of every running
// world, so it stays defer- and closure-free.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	e.Seq = h.seq
	h.backlog = append(h.backlog, e)
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default:
		}
	}
	h.mu.Unlock()
}

// subscribe returns a channel that replays the backlog and then streams
// live events, plus a cancel func. The channel is closed on cancel or when
// the hub closes (job reached a terminal state).
func (h *hub) subscribe() (<-chan Event, func()) {
	h.mu.Lock()
	ch := make(chan Event, len(h.backlog)+256)
	for _, e := range h.backlog {
		ch <- e
	}
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs = append(h.subs, ch)
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			for i, c := range h.subs {
				if c == ch {
					h.subs = append(h.subs[:i], h.subs[i+1:]...)
					close(ch)
					break
				}
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// close ends the stream: all subscribers' channels close after the events
// already delivered.
func (h *hub) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for _, ch := range h.subs {
			close(ch)
		}
		h.subs = nil
	}
	h.mu.Unlock()
}
