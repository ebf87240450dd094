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

import "time"

// Clock supplies timestamps for job records and events. The scheduler never
// acts on time — no timeouts, no timers — so the clock only labels history.
type Clock interface {
	Now() time.Time
}
