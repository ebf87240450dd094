// Package telemetry is the runtime observability layer of the simulation:
// a zero-allocation-on-hot-path metrics registry (counters, gauges, and
// histogram-bucketed timing spans) with hierarchical per-rank phase names,
// rank aggregation over the mpi collectives, periodic JSONL flush, and an
// optional Prometheus-style text exposition.
//
// The paper's core evidence is measured — per-phase runtimes and
// communication volumes behind Figures 10-16 — and this package is how live
// runs produce the same artifact: every major stage (MD force/density
// passes, ghost pack/exchange/unpack, KMC sector sweeps and event
// selection, on-demand vs traditional ghost traffic, checkpoint
// save/commit) records into a per-rank Registry, and an end-of-run
// Aggregate builds the min/mean/max-across-ranks Report.
//
// Zero-perturbation contract (DESIGN.md §11): instrumentation only reads
// the wall clock and bumps atomic counters. It never draws random numbers,
// never communicates during the timed phases, and never branches the
// simulation — a run with telemetry attached is bit-identical to one
// without, which the couple-level determinism test asserts.
//
// Every metric type is safe to use through a nil receiver (all operations
// become no-ops), so call sites instrument unconditionally and pay only a
// nil check when telemetry is disabled.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of log2(ns) histogram buckets a Timer keeps:
// bucket k counts observations with 2^(k-1) < ns <= 2^k (bucket 0 counts
// zero-duration observations), so the range spans 1 ns to ~18 minutes.
const NumBuckets = 41

// Counter is a monotonically increasing atomic count (events, bytes, ops).
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins atomic level (queue depths, worker counts).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates a duration distribution: count, sum, min, max, and a
// log2-bucketed histogram, all atomically so observations from worker
// goroutines and scrapes from the HTTP/flush goroutines never race.
type Timer struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64 // ns
	min     atomic.Int64 // ns; MaxInt64 until first observation
	max     atomic.Int64 // ns
	buckets [NumBuckets]atomic.Int64
}

const unsetMin = int64(1<<63 - 1)

// Observe records one duration. Safe on a nil receiver (no-op).
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.sum.Add(ns)
	for {
		cur := t.min.Load()
		if ns >= cur || t.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := t.max.Load()
		if ns <= cur || t.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	t.buckets[b].Add(1)
}

// Span is an in-flight timing measurement: Begin captures the start time,
// End observes the elapsed duration. It is a value type — beginning and
// ending a span allocates nothing.
type Span struct {
	t     *Timer
	start time.Time
}

// Begin starts a span on the timer. On a nil receiver the returned span is
// inert and End is a no-op.
func (t *Timer) Begin() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// End observes the span's elapsed time.
func (s Span) End() {
	if s.t != nil {
		s.t.Observe(time.Since(s.start))
	}
}

// Registry holds one rank's metrics. Registration (Counter/Gauge/Timer/
// CounterFunc) locks and may allocate — it belongs in setup code; the
// returned handles are then free of locks and allocations on the hot path.
type Registry struct {
	rank int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	funcs    map[string]func() int64
}

// New creates an empty registry for the given rank.
func New(rank int) *Registry {
	return &Registry{
		rank:     rank,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op counter) on a nil receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer registered under name, creating it on first use.
// Phase names are hierarchical paths ("md/step", "md/step/force",
// "kmc/sector"); the report renders the taxonomy sorted, so children group
// under their parents.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{name: name}
		t.min.Store(unsetMin)
		r.timers[name] = t
	}
	return t
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — the bridge for counters that already live elsewhere (the mpi
// communication counters), so they are not double-counted on the hot path.
// fn must be safe to call from any goroutine. The first registration of a
// name wins.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; !ok {
		r.funcs[name] = fn
	}
}

// Metric is one metric's state in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter", "gauge", or "timer"
	Value   int64    `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	SumNS   int64    `json:"sum_ns,omitempty"`
	MinNS   int64    `json:"min_ns,omitempty"`
	MaxNS   int64    `json:"max_ns,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one non-empty histogram bucket: Count observations took at most
// LeNS nanoseconds (and more than the previous bucket's bound).
type Bucket struct {
	LeNS  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// Snapshot is a consistent-enough point-in-time copy of one rank's metrics
// (each value is read atomically; the set is not globally fenced, which is
// fine for monotone counters).
type Snapshot struct {
	Rank    int      `json:"rank"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered metric, sorted by name. Safe on a nil
// receiver (empty snapshot, rank -1).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Rank: -1}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{Rank: r.rank}
	for name, c := range r.counters {
		out.Metrics = append(out.Metrics, Metric{Name: name, Kind: "counter", Value: c.v.Load()})
	}
	for name, fn := range r.funcs {
		out.Metrics = append(out.Metrics, Metric{Name: name, Kind: "counter", Value: fn()})
	}
	for name, g := range r.gauges {
		out.Metrics = append(out.Metrics, Metric{Name: name, Kind: "gauge", Value: g.v.Load()})
	}
	for name, t := range r.timers {
		m := Metric{
			Name:  name,
			Kind:  "timer",
			Count: t.count.Load(),
			SumNS: t.sum.Load(),
			MaxNS: t.max.Load(),
		}
		if mn := t.min.Load(); mn != unsetMin {
			m.MinNS = mn
		}
		for b := 0; b < NumBuckets; b++ {
			if n := t.buckets[b].Load(); n > 0 {
				// Bucket b holds observations with bits.Len64(ns) == b,
				// i.e. ns <= 2^b - 1.
				m.Buckets = append(m.Buckets, Bucket{LeNS: int64(1)<<b - 1, Count: n})
			}
		}
		out.Metrics = append(out.Metrics, m)
	}
	sort.Slice(out.Metrics, func(i, j int) bool { return out.Metrics[i].Name < out.Metrics[j].Name })
	return out
}

// fmtDuration renders nanoseconds compactly for report tables.
func fmtDuration(ns float64) string {
	return time.Duration(int64(ns)).Round(time.Microsecond).String()
}

// fmtCount renders large counts with unit suffixes.
func fmtCount(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
