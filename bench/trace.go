package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented here). Parent is the index of
// the enclosing span in the tracer's slice, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rank     int    `json:"rank"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Failed   bool   `json:"failed,omitempty"`
}

// tracer keeps spans in memory for the whole traced run; they are written
// out once at exit. A nil tracer records nothing, so the untraced path pays
// one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its index; pass it to end. parent is the
// index of the enclosing span or -1.
func (t *tracer) begin(name string, rank, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Rank: rank, StartNS: now, EndNS: now, Parent: parent})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	d := now - t.spans[id].StartNS
	t.mu.Unlock()
	return time.Duration(d)
}

// fail marks the span's operation as failed.
func (t *tracer) fail(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Failed = true
	t.mu.Unlock()
}

// timed runs fn inside a span and returns fn's duration. It times fn even
// with a nil tracer, so probes share one code path.
func (t *tracer) timed(name string, rank, parent int, fn func()) time.Duration {
	id := t.begin(name, rank, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	BusyMS   float64 `json:"busy_ms"`
	SelfMS   float64 `json:"self_ms"`
	Failures int     `json:"failures"`
}

// layerOf is the module name a span belongs to: the part before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerTable folds spans by name: count, busy time, and self time (span
// minus the time its direct children cover).
func layerTable(spans []span) []layerRow {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		self := d - child[i]
		if self < 0 {
			self = 0 // children on other ranks may overlap the parent's end
		}
		r.Count++
		r.BusyMS += float64(d) / 1e6
		r.SelfMS += float64(self) / 1e6
		if s.Failed {
			r.Failures++
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "per-layer spans, %s\n  %-26s %8s %12s %12s %5s\n", workload, "span", "count", "busy_ms", "self_ms", "fail")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %8d %12.3f %12.3f %5d\n", r.Name, r.Count, r.BusyMS, r.SelfMS, r.Failures)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans of one or more workloads as a Chrome
// trace-event document; each workload becomes one process, each rank one
// thread.
func writeChromeTrace(w io.Writer, spans []span) error {
	pids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: pid, TID: s.Rank,
			Args: map[string]any{"workload": s.Workload, "id": i, "parent": s.Parent, "failed": s.Failed},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
