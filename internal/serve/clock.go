// Package serve implements the simulation-as-a-service layer (DESIGN.md
// §16): an HTTP job server that admits MD/KMC/coupled/campaign job specs,
// schedules them from a multi-tenant priority queue onto a shared pool of
// in-process mpi.World rank slots, preempts low-priority work at checkpoint
// boundaries when high-priority work arrives, drains gracefully, and
// recovers its queue from a persisted ledger after a crash.
//
// The package never reads the wall clock or a global RNG directly (`make
// determinism` rejects both under internal/). Timestamps come from the
// injected Clock (the real one lives in cmd/mdserve), so the whole state
// machine is deterministic under test — transitions are driven by
// submissions and job exits, never by timers.
package serve

import (
	"sync"
	"time"
)

// Clock supplies timestamps for job records and events. The scheduler never
// acts on time — no timeouts, no timers — so the clock only labels history.
type Clock interface {
	Now() time.Time
}

// FakeClock is a manually advanced Clock for deterministic tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(at time.Time) *FakeClock { return &FakeClock{t: at} }

// Now returns the current fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake clock forward.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
