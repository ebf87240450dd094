// Package mpi is an in-process message-passing runtime with the subset of
// MPI semantics the simulation needs: ranks with two-sided tagged
// send/receive, and the collectives used for time synchronization. (The
// process grid is lattice.Grid, which every halo plan is computed from; the
// runtime itself knows only flat ranks.)
//
// Ranks are goroutines inside one OS process, and each rank has one
// mailbox. Send copies the payload into the destination mailbox and never
// blocks; Recv blocks until a message with the exact source and tag
// arrives. Every rank keeps exact byte and message counters, which is how
// the communication-volume experiments (paper Figures 12-13) measure both
// protocols.
//
// The substitution of real inter-node MPI by an in-process runtime is
// documented in DESIGN.md §2: the experiments that matter compare
// communication *volume* (exact here) and communication *time* (modeled
// from the counters with an alpha-beta cost model in internal/perf).
package mpi

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mdkmc/internal/telemetry"
)

type message struct {
	src  int
	tag  int
	data []byte
}

// mailbox is one rank's incoming message queue.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Stats is a snapshot of a rank's communication activity.
type Stats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.MsgsSent += other.MsgsSent
	s.BytesSent += other.BytesSent
	s.MsgsRecv += other.MsgsRecv
	s.BytesRecv += other.BytesRecv
}

// pathStats is the live atomic counter set for one communication path
// (point-to-point or collective). Atomics let the telemetry flush/HTTP
// goroutines read counters while ranks are communicating.
type pathStats struct {
	msgsSent  atomic.Int64
	bytesSent atomic.Int64
	msgsRecv  atomic.Int64
	bytesRecv atomic.Int64
}

func (p *pathStats) sent(msgs, bytes int64) {
	p.msgsSent.Add(msgs)
	p.bytesSent.Add(bytes)
}

func (p *pathStats) recv(msgs, bytes int64) {
	p.msgsRecv.Add(msgs)
	p.bytesRecv.Add(bytes)
}

func (p *pathStats) snapshot() Stats {
	return Stats{
		MsgsSent:  p.msgsSent.Load(),
		BytesSent: p.bytesSent.Load(),
		MsgsRecv:  p.msgsRecv.Load(),
		BytesRecv: p.bytesRecv.Load(),
	}
}

// World owns the mailboxes and collective state for a fixed set of ranks.
type World struct {
	n     int
	boxes []*mailbox

	collMu    sync.Mutex
	collCond  *sync.Cond
	collGen   uint64
	collCnt   int
	collAcc   []float64
	collOut   []float64
	gatherIn  [][]byte
	gatherOut [][]byte

	// aborted is set when any rank panics; every blocking primitive checks
	// it in its wait loop so survivors unwind instead of waiting forever on
	// a rank that no longer exists.
	aborted atomic.Bool

	// faults is the injected-failure plan. It is written only before Run
	// starts (InjectFault) and read concurrently by every rank's FaultPoint
	// checks, so no lock is needed.
	faults []Fault
}

// errAborted is the panic value used to unwind ranks blocked in Recv or a
// collective when a peer rank panicked. Run's per-rank recover swallows
// it: only the original panic is re-raised on the caller.
var errAborted = fmt.Errorf("mpi: world aborted by a peer rank panic")

// RankPanic is the value World.Run re-raises on the caller when a rank
// panicked. It implements error and carries the originating rank and panic
// value, so callers can unwrap the underlying error with errors.As/Unwrap.
type RankPanic struct {
	Rank  int
	Value interface{}
}

func (p RankPanic) Error() string { return fmt.Sprintf("rank %d: %v", p.Rank, p.Value) }

// Unwrap returns the underlying error when the rank panicked with one.
func (p RankPanic) Unwrap() error {
	if e, ok := p.Value.(error); ok {
		return e
	}
	return nil
}

// abort marks the world dead and wakes every rank blocked in a mailbox wait
// (Recv) or a collective (Barrier/Allreduce/Allgather). The flag
// is set before the broadcasts and every wait loop rechecks it under its
// lock, so no wakeup can be missed.
func (w *World) abort() {
	w.aborted.Store(true)
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	w.collMu.Lock()
	w.collCond.Broadcast()
	w.collMu.Unlock()
}

// NewWorld creates a world with n ranks.
func NewWorld(n int) *World {
	if n <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{n: n, boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.collCond = sync.NewCond(&w.collMu)
	return w
}

// Run executes fn on every rank concurrently and waits for all to return.
// A panic on any rank aborts the world: survivors blocked in Recv or any
// collective are woken and unwound, and the original panic is re-raised
// on the caller as a RankPanic once every rank has finished.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan RankPanic, w.n)
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if p == errAborted {
						return // secondary victim of another rank's panic
					}
					panics <- RankPanic{Rank: rank, Value: p}
					w.abort()
				}
			}()
			fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// RunE executes fn on every rank concurrently and converts rank failures
// into an ordinary error: a rank that returns a non-nil error aborts the
// world (survivors blocked in Recv or a collective are woken and
// unwound) and the first recorded error — from whichever rank — is
// returned. A rank that panics instead of returning yields the RankPanic
// itself as the error, so injected faults and internal invariant failures
// surface through the same path.
func (w *World) RunE(fn func(c *Comm) error) (err error) {
	var mu sync.Mutex
	var first error
	record := func(e error) {
		mu.Lock()
		if first == nil {
			first = e
		}
		mu.Unlock()
	}
	defer func() {
		if p := recover(); p != nil {
			mu.Lock()
			e := first
			mu.Unlock()
			if e != nil {
				err = e
				return
			}
			if rp, ok := p.(RankPanic); ok {
				err = rp
				return
			}
			panic(p) // not a rank failure; do not swallow
		}
	}()
	w.Run(func(c *Comm) {
		if e := fn(c); e != nil {
			record(e)
			panic(e)
		}
	})
	mu.Lock()
	defer mu.Unlock()
	return first
}

// Fault names one injected failure for testing recovery paths: rank Rank
// panics with an InjectedFault when it reaches fault point Point with
// counter value Step. Register faults with World.InjectFault before Run.
type Fault struct {
	Rank  int
	Point string
	Step  int
}

func (f Fault) String() string { return fmt.Sprintf("%s:%d:%d", f.Point, f.Rank, f.Step) }

// Fault-point names checked by the simulation drivers. FaultPoint accepts
// any string; ParseFault accepts only these, the points the couple run
// loops arm.
const (
	// PointMDStep fires after completing the given 1-based MD step.
	PointMDStep = "md-step"
	// PointKMCCycle fires after completing the given KMC cycle (st.Cycles).
	PointKMCCycle = "kmc-cycle"
	// PointCheckpointCommit fires on rank 0 after the per-rank snapshot
	// files are written but before the manifest rename commits them — the
	// window the atomic-commit guarantee protects.
	PointCheckpointCommit = "checkpoint-commit"
)

// InjectedFault is the panic value of a triggered fault. World.Run re-wraps
// it in a RankPanic, so callers can errors.As through both layers.
type InjectedFault struct {
	Rank  int
	Point string
	Step  int
}

func (f InjectedFault) Error() string {
	return fmt.Sprintf("mpi: injected fault on rank %d at %s %d", f.Rank, f.Point, f.Step)
}

// ParseFault parses "point:rank:step". The point must be one the run
// drivers arm, so a misspelt plan is an error rather than a crash that never
// fires.
func ParseFault(s string) (Fault, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Fault{}, fmt.Errorf("mpi: fault %q not in point:rank:step form", s)
	}
	rank, err := strconv.Atoi(parts[1])
	if err != nil || rank < 0 {
		return Fault{}, fmt.Errorf("mpi: fault %q has invalid rank", s)
	}
	step, err := strconv.Atoi(parts[2])
	if err != nil || step < 0 {
		return Fault{}, fmt.Errorf("mpi: fault %q has invalid step", s)
	}
	switch parts[0] {
	case PointMDStep, PointKMCCycle, PointCheckpointCommit:
	default:
		return Fault{}, fmt.Errorf("mpi: fault %q names no armed point (want %s, %s or %s)",
			s, PointMDStep, PointKMCCycle, PointCheckpointCommit)
	}
	return Fault{Rank: rank, Point: parts[0], Step: step}, nil
}

// ParseFaults parses a comma-separated fault list; empty input is an empty
// plan.
func ParseFaults(s string) ([]Fault, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Fault
	for _, item := range strings.Split(s, ",") {
		f, err := ParseFault(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// InjectFault registers faults on the world. It must be called before Run:
// the plan is immutable once ranks are executing.
func (w *World) InjectFault(faults ...Fault) {
	w.faults = append(w.faults, faults...)
}

// Comm is one rank's endpoint. Communication counters are kept per path
// (point-to-point, collective) in atomics; Stats() snapshots the total and
// AttachTelemetry folds the per-path counters into a registry.
type Comm struct {
	world *World
	rank  int
	p2p   pathStats
	coll  pathStats
}

// Stats returns a snapshot of this rank's total communication counters,
// summed over the point-to-point and collective paths. Safe to call from
// any goroutine while the rank is communicating.
func (c *Comm) Stats() Stats {
	s := c.p2p.snapshot()
	s.Add(c.coll.snapshot())
	return s
}

// AttachTelemetry registers this endpoint's communication counters in reg as
// read-at-snapshot-time counter funcs, one per path and direction plus
// rank totals — no hot-path double counting. A nil registry is a no-op.
func (c *Comm) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	paths := []struct {
		name string
		p    *pathStats
	}{
		{"mpi/p2p", &c.p2p},
		{"mpi/coll", &c.coll},
	}
	for _, pp := range paths {
		p := pp.p
		reg.CounterFunc(pp.name+"/msgs-sent", p.msgsSent.Load)
		reg.CounterFunc(pp.name+"/bytes-sent", p.bytesSent.Load)
		reg.CounterFunc(pp.name+"/msgs-recv", p.msgsRecv.Load)
		reg.CounterFunc(pp.name+"/bytes-recv", p.bytesRecv.Load)
	}
	reg.CounterFunc("mpi/msgs-sent", func() int64 { return c.Stats().MsgsSent })
	reg.CounterFunc("mpi/bytes-sent", func() int64 { return c.Stats().BytesSent })
	reg.CounterFunc("mpi/msgs-recv", func() int64 { return c.Stats().MsgsRecv })
	reg.CounterFunc("mpi/bytes-recv", func() int64 { return c.Stats().BytesRecv })
}

// FaultPoint panics with an InjectedFault if the world's fault plan arms
// (point, step) on this rank; otherwise it is a no-op. Drivers call it at
// step/cycle boundaries so tests can kill a chosen rank at a chosen point
// and exercise recovery in-process.
func (c *Comm) FaultPoint(point string, step int) {
	for _, f := range c.world.faults {
		if f.Rank == c.rank && f.Point == point && f.Step == step {
			panic(InjectedFault{Rank: c.rank, Point: point, Step: step})
		}
	}
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.n }

// Send delivers data to rank `to` with the given tag. The payload is copied;
// the call never blocks (buffered semantics).
func (c *Comm) Send(to, tag int, data []byte) {
	if to < 0 || to >= c.world.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", to))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	box := c.world.boxes[to]
	box.mu.Lock()
	box.pending = append(box.pending, message{src: c.rank, tag: tag, data: cp})
	box.mu.Unlock()
	box.cond.Broadcast()
	c.p2p.sent(1, int64(len(data)))
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages of one (src, tag) pair arrive in send
// order.
func (c *Comm) Recv(src, tag int) []byte {
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		for i, m := range box.pending {
			if m.src == src && m.tag == tag {
				box.pending = append(box.pending[:i], box.pending[i+1:]...)
				c.p2p.recv(1, int64(len(m.data)))
				return m.data
			}
		}
		if c.world.aborted.Load() {
			panic(errAborted)
		}
		box.cond.Wait()
	}
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	w := c.world
	w.collMu.Lock()
	// Unlock via defer so that ANY panic raised while the lock is held —
	// the abort unwind, a mismatch check, or a runtime panic from misuse —
	// releases collMu before the rank's deferred abort() tries to take it.
	defer w.collMu.Unlock()
	gen := w.collGen
	w.collCnt++
	if w.collCnt == w.n {
		w.collCnt = 0
		w.collGen++
		w.collCond.Broadcast()
	} else {
		for w.collGen == gen {
			if w.aborted.Load() {
				panic(errAborted)
			}
			w.collCond.Wait()
		}
	}
}

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case Max:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Allreduce combines each rank's vals element-wise with op and returns the
// result, identical on every rank. All ranks must pass the same length.
func (c *Comm) Allreduce(op Op, vals ...float64) []float64 {
	w := c.world
	w.collMu.Lock()
	defer w.collMu.Unlock() // released on any panic; see Barrier
	gen := w.collGen
	if w.collCnt == 0 {
		w.collAcc = append(w.collAcc[:0], vals...)
	} else {
		if len(vals) != len(w.collAcc) {
			panic("mpi: allreduce length mismatch across ranks")
		}
		for i, v := range vals {
			w.collAcc[i] = op.apply(w.collAcc[i], v)
		}
	}
	w.collCnt++
	if w.collCnt == w.n {
		w.collOut = append(w.collOut[:0], w.collAcc...)
		w.collCnt = 0
		w.collGen++
		w.collCond.Broadcast()
	} else {
		for w.collGen == gen {
			if w.aborted.Load() {
				panic(errAborted)
			}
			w.collCond.Wait()
		}
	}
	out := make([]float64, len(w.collOut))
	copy(out, w.collOut)
	// Model the collective as one message contributed and one reduced vector
	// received per rank, so global sent equals global recv.
	c.coll.sent(1, int64(8*len(vals)))
	c.coll.recv(1, int64(8*len(out)))
	return out
}

// Allgather collects each rank's payload and returns all payloads indexed by
// rank, identical on every rank.
func (c *Comm) Allgather(data []byte) [][]byte {
	w := c.world
	w.collMu.Lock()
	defer w.collMu.Unlock() // released on any panic; see Barrier
	gen := w.collGen
	if w.collCnt == 0 {
		w.gatherIn = make([][]byte, w.n)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	w.gatherIn[c.rank] = cp
	w.collCnt++
	if w.collCnt == w.n {
		// Publish the completed gather through its own field: a slow waiter
		// reads the result only after waking, by which time a fast peer may
		// already have entered the *next* Allgather and replaced gatherIn.
		// gatherOut is overwritten only by the completer of a later gather,
		// which cannot happen until every rank (including this waiter) has
		// read this generation's result and moved on.
		w.gatherOut = w.gatherIn
		w.collCnt = 0
		w.collGen++
		w.collCond.Broadcast()
	} else {
		for w.collGen == gen {
			if w.aborted.Load() {
				panic(errAborted)
			}
			w.collCond.Wait()
		}
	}
	out := w.gatherOut
	// Each rank ships its payload to the n-1 peers and receives each peer's
	// payload once, keeping send and recv accounting globally symmetric.
	c.coll.sent(int64(w.n-1), int64(len(data)*(w.n-1)))
	var recvBytes int64
	for i, buf := range out {
		if i != c.rank {
			recvBytes += int64(len(buf))
		}
	}
	c.coll.recv(int64(w.n-1), recvBytes)
	return out
}
