package md

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mdkmc/internal/neighbor"
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
// value, and chunk i is exactly the slab of virtual CPE i (DESIGN.md §9).
const ForceChunks = sunway.CPEsPerGroup

// ForcePool is the one executor of the force kernel: every round of either
// pass is ForceChunks chunks handed to the workers here, with or without a
// CPE cost model attached. Safety rests on the rounds having disjoint writes
// by construction (see the concurrency contract in neighbor.Store): a chunk
// writes only the state anchored in its own range, and anything it reads of
// other ranges is not written by any concurrent chunk of the same round.
//
// Workers == 1 executes the chunks inline on the calling goroutine and is
// the serial reference mode; Workers == 0 resolves to runtime.GOMAXPROCS.
type ForcePool struct {
	FF      *ForceField
	Workers int

	// cost, when non-nil, is charged chunk by chunk as virtual CPE work
	// (cpekernel.go); Rank.computeForces sets it from Rank.Kernel.
	cost *CPEKernel

	// Host-side scheduling telemetry: one busy record per worker and round,
	// so the timers' max/mean expose the imbalance of the dynamic chunk
	// dispatch; chunks counts what the workers actually executed. Nil
	// handles (telemetry off) read no clock.
	densityBusy *telemetry.Timer   // md/pool/density-busy
	forceBusy   *telemetry.Timer   // md/pool/force-busy
	chunksRun   *telemetry.Counter // md/pool/chunks
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

// resolveWorkers maps the Workers knob to the effective worker count: 0
// means GOMAXPROCS, and more workers than chunks would only idle.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ForceChunks {
		workers = ForceChunks
	}
	return workers
}

// Densities runs the density pass (pair gather, then reduce) sharded over
// the pool; bit-identical to the serial kernels over the same chunks in any
// worker order.
func (p *ForcePool) Densities(s *neighbor.Store) OpStats {
	st, _ := p.run(s, p.FF.rounds.density, p.densityBusy)
	return st
}

// Forces runs the force pass (embedding fill over all local sites, then the
// streamed-pair force reduce) sharded over the pool and returns the owned
// potential-energy share, reduced in chunk order.
func (p *ForcePool) Forces(s *neighbor.Store) (OpStats, float64) {
	return p.run(s, p.FF.rounds.force, p.forceBusy)
}

// run executes one pass as a sequence of barrier-separated rounds, each of
// ForceChunks independent chunks dispatched to the workers by a shared
// counter (dynamic load balancing — cascade cores make chunks unequal).
// Partial results are stored per chunk and merged in chunk order, round by
// round. An attached cost model sees each round as one kernel launch on the
// 64 CPEs: chunk i charges CPE i, the barrier charges the slowest lane.
func (p *ForcePool) run(s *neighbor.Store, rounds []round, busy *telemetry.Timer) (OpStats, float64) {
	workers := resolveWorkers(p.Workers)
	var st OpStats
	var energy float64
	var perStats [ForceChunks]OpStats
	var perEnergy [ForceChunks]float64
	for ri := range rounds {
		rd := &rounds[ri]
		p.cost.beginRound()
		if workers == 1 {
			sp := busy.Begin()
			for i := 0; i < ForceChunks; i++ {
				perStats[i], perEnergy[i] = rd.chunk(p.FF, s, i, p.cost)
			}
			sp.End()
			p.chunksRun.Add(ForceChunks)
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sp := busy.Begin()
					var chunks int64
					for {
						i := int(next.Add(1)) - 1
						if i >= ForceChunks {
							break
						}
						perStats[i], perEnergy[i] = rd.chunk(p.FF, s, i, p.cost)
						chunks++
					}
					sp.End()
					p.chunksRun.Add(chunks)
				}()
			}
			wg.Wait() // barrier: next round reads what this round wrote
		}
		p.cost.endRound()
		for i := 0; i < ForceChunks; i++ {
			st.Add(perStats[i])
			energy += perEnergy[i]
		}
	}
	return st, energy
}
