package perf

import "time"

// Stopwatch is the sanctioned wall-clock primitive for the deterministic
// simulation packages (DESIGN.md §7, enforced by mdvet's rngtime
// analyzer): internal/md, internal/kmc, internal/couple, and
// internal/lattice may not call time.Now/Since directly, because a stray
// wall-clock read is one refactor away from feeding simulation state and
// silently breaking bit-identical replay. Measurement code in those
// packages starts a Stopwatch instead and stores only the resulting
// durations (WorkerTiming, telemetry timers), which never flow back into
// trajectories.
//
// A Stopwatch is a value type wrapping one monotonic-clock read; copying
// one is fine.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch reads the monotonic clock once and returns a running
// stopwatch.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the monotonic time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
