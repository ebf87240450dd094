package md

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdkmc/internal/neighbor"
	"mdkmc/internal/perf"
	"mdkmc/internal/sunway"
	"mdkmc/internal/telemetry"
)

// ForceChunks is the fixed sharding granularity of the shared-memory force
// driver: the work of every round is always partitioned into this many
// contiguous ranges — the same 64-way slab split as the simulated CPE
// cluster — regardless of how many OS workers execute them. Fixing the
// granularity (instead of cutting one range per worker) is what makes the
// reduction deterministic: every chunk's partial energy and operation
// counts are a pure function of the store state, and the merge always walks
// chunks in index order, so the result is bit-identical for every Workers
// value and to the CPE kernel's per-lane reduction (DESIGN.md §9).
const ForceChunks = sunway.CPEsPerGroup

// ForcePool runs the force-field passes over a worker pool. Safety rests on
// the rounds having disjoint writes by construction (see the concurrency
// contract in neighbor.Store): a chunk writes only the state anchored in
// its own range, and anything it reads of other ranges is not written by
// any concurrent chunk of the same round.
//
// Workers == 1 executes the chunks inline on the calling goroutine and is
// the serial reference mode; Workers == 0 resolves to runtime.GOMAXPROCS.
type ForcePool struct {
	FF      *ForceField
	Workers int

	// Per-pass host timing of the most recent Densities/Forces call —
	// real wall-clock, not the CPE cost model (see perf.WorkerTiming).
	// Multi-round passes accumulate each worker's busy time and chunk
	// count across rounds.
	DensityTiming perf.WorkerTiming
	ForceTiming   perf.WorkerTiming

	// Telemetry absorption of the per-pass WorkerTiming: each pass feeds
	// every worker's busy time into the matching timer, so the registry's
	// min/max/histogram expose the scheduler imbalance that WorkerTiming
	// only keeps for the latest pass.
	densityBusy *telemetry.Timer   // md/pool/density-busy
	forceBusy   *telemetry.Timer   // md/pool/force-busy
	chunksRun   *telemetry.Counter // md/pool/chunks

	// Reused per-run scratch (the force passes are the innermost hot loop
	// of every MD step; per-call slice allocations would show up in the
	// allocs/op benchmark gate).
	busyAcc  []time.Duration
	chunkAcc []int
}

// AttachTelemetry registers the pool's worker-busy timers and chunk counter
// in reg (nil registry = no-op handles).
func (p *ForcePool) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.densityBusy = reg.Timer("md/pool/density-busy")
	p.forceBusy = reg.Timer("md/pool/force-busy")
	p.chunksRun = reg.Counter("md/pool/chunks")
}

// NewForcePool builds a pool over the force field with the given worker
// count (0 = GOMAXPROCS).
func NewForcePool(ff *ForceField, workers int) *ForcePool {
	return &ForcePool{FF: ff, Workers: workers}
}

// ResolveWorkers maps the Workers knob to the effective worker count.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Densities runs the density pass (pair gather, then reduce) sharded over
// the pool; bit-identical to the serial kernels over the same chunks in any
// worker order.
func (p *ForcePool) Densities(s *neighbor.Store) OpStats {
	st, _ := p.run(s, p.FF.rounds.density, &p.DensityTiming, p.densityBusy)
	return st
}

// Forces runs the force pass (embedding fill over all local sites, then the
// cached-pair force reduce) sharded over the pool and returns the owned
// potential-energy share, reduced in chunk order.
func (p *ForcePool) Forces(s *neighbor.Store) (OpStats, float64) {
	return p.run(s, p.FF.rounds.force, &p.ForceTiming, p.forceBusy)
}

// run executes one pass as a sequence of barrier-separated rounds, each of
// ForceChunks independent chunks dispatched to the workers by a shared
// counter (dynamic load balancing — cascade cores make chunks unequal).
// Partial results are stored per (round, chunk) and merged in that order;
// worker busy time and chunk counts accumulate across rounds.
func (p *ForcePool) run(s *neighbor.Store, rounds []round,
	timing *perf.WorkerTiming, busyTimer *telemetry.Timer) (OpStats, float64) {

	workers := ResolveWorkers(p.Workers)
	timing.Reset(workers)
	if cap(p.busyAcc) < workers {
		p.busyAcc = make([]time.Duration, workers)
		p.chunkAcc = make([]int, workers)
	}
	busyAcc := p.busyAcc[:workers]
	chunkAcc := p.chunkAcc[:workers]
	for w := range busyAcc {
		busyAcc[w] = 0
		chunkAcc[w] = 0
	}
	wall := perf.StartStopwatch()

	var st OpStats
	var energy float64
	var perStats [ForceChunks]OpStats
	var perEnergy [ForceChunks]float64
	for ri := range rounds {
		rd := &rounds[ri]
		if workers == 1 {
			busy := perf.StartStopwatch()
			for i := 0; i < ForceChunks; i++ {
				perStats[i], perEnergy[i], _ = rd.chunk(p.FF, s, i)
			}
			busyAcc[0] += busy.Elapsed()
			chunkAcc[0] += ForceChunks
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					busy := perf.StartStopwatch()
					chunks := 0
					for {
						i := int(next.Add(1)) - 1
						if i >= ForceChunks {
							break
						}
						perStats[i], perEnergy[i], _ = rd.chunk(p.FF, s, i)
						chunks++
					}
					busyAcc[w] += busy.Elapsed()
					chunkAcc[w] += chunks
				}(w)
			}
			wg.Wait() // barrier: next round reads what this round wrote
		}
		for i := 0; i < ForceChunks; i++ {
			st.Add(perStats[i])
			energy += perEnergy[i]
		}
	}
	for w := 0; w < workers; w++ {
		timing.Record(w, busyAcc[w], chunkAcc[w])
	}
	timing.Wall = wall.Elapsed()

	if busyTimer != nil {
		for _, b := range timing.Busy {
			busyTimer.Observe(b)
		}
	}
	p.chunksRun.Add(int64(ForceChunks * len(rounds)))

	return st, energy
}
