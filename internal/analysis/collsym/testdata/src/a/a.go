// Package a exercises the collsym analyzer: collectives under
// rank-dependent guards — mpi primitives, the collectives known by name
// across packages, //mdvet:collective functions and methods, and helpers
// that reach any of them through same-package calls — rank-dependent early
// exits, and the sanctioned idioms that must stay clean.
package a

import (
	"mdkmc/internal/couple"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

func guardedBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want "collective Comm.Barrier is guarded by a rank-dependent condition"
	}
}

func guardedAllreduce(c *mpi.Comm, rank int) {
	if rank == 0 {
		c.Allreduce(nil, mpi.OpSum) // want "collective Comm.Allreduce is guarded by a rank-dependent condition"
	}
}

func guardedElseBranch(c *mpi.Comm) {
	if c.Rank() == 0 {
		_ = 1
	} else {
		c.Allgather(nil) // want "collective Comm.Allgather is guarded by a rank-dependent condition"
	}
}

func guardedFence(w *mpi.Win, rank int) {
	if rank > 0 {
		w.Fence() // want "collective Win.Fence is guarded by a rank-dependent condition"
	}
}

func guardedAggregate(c *mpi.Comm) {
	if c.Rank() == 0 {
		telemetry.Aggregate(nil) // want "collective telemetry.Aggregate is guarded by a rank-dependent condition"
	}
}

func guardedSwitch(c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Barrier() // want "collective Comm.Barrier is guarded by a rank-dependent condition"
	}
}

// symmetric is the sanctioned shape: every rank reaches every collective,
// rank-dependent work stays collective-free.
func symmetric(c *mpi.Comm) {
	c.Barrier()
	if c.Rank() == 0 {
		println("root does extra local work")
	}
	c.Allreduce(nil, mpi.OpSum)
}

func earlyReturnSkips(c *mpi.Comm) {
	if c.Rank() == 0 {
		return // want "rank-dependent early return skips collective Comm.Barrier"
	}
	c.Barrier()
}

func earlyNilReturn(c *mpi.Comm) error {
	if c.Rank() == 0 {
		return nil // want "rank-dependent early return skips collective Comm.Barrier"
	}
	c.Barrier()
	return nil
}

// errorPropagation is exempt: mpi.RunE turns a rank-local non-nil error
// return into a world abort that wakes every blocked peer.
func errorPropagation(c *mpi.Comm, err error) error {
	if c.Rank() == 0 && err != nil {
		return err
	}
	c.Barrier()
	return nil
}

// syncAll wraps the barrier; the annotation makes callers treat it as a
// collective.
//
//mdvet:collective
func syncAll(c *mpi.Comm) {
	c.Barrier()
}

func guardedWrapped(c *mpi.Comm) {
	if c.Rank() == 0 {
		syncAll(c) // want "collective syncAll is guarded by a rank-dependent condition"
	}
}

func breakOutOfCollectiveLoop(c *mpi.Comm, rank int) {
	for i := 0; i < 4; i++ {
		if rank == i {
			break // want "rank-dependent break in a loop containing collective Comm.Barrier"
		}
		c.Barrier()
	}
}

// breakBeforeLaterCollective is fine: the loop the break leaves contains no
// collective, and every rank still reaches the barrier after it.
func breakBeforeLaterCollective(c *mpi.Comm, rank int) {
	n := 0
	for i := 0; i < 4; i++ {
		if rank == i {
			break
		}
		n++
	}
	_ = n
	c.Barrier()
}

func suppressed(c *mpi.Comm) {
	if c.Rank() == 0 {
		//mdvet:ignore collsym single-rank sub-communicator, peers checked by caller
		c.Barrier()
	}
}

func badGuardedCrossPackagePoll(c *mpi.Comm, p *couple.Preemptor) {
	if c.Rank() == 0 {
		p.Poll(c) // want "collective Poll is called under a rank-dependent condition"
	}
}

// aggregateAll reaches the known collective telemetry.Aggregate.
func aggregateAll() {
	telemetry.Aggregate(nil)
}

func badGuardedAggregateWrapper(c *mpi.Comm) {
	if c.Rank() == 0 {
		aggregateAll() // want "rank-guarded call to aggregateAll transitively enters collective Aggregate"
	}
}

// ring's rotate is collective by declaration only: its body is opaque to
// the analyzer (a function value), the directive on the *method* is what
// makes callers treat it as a collective.
type ring struct{ step func() }

//mdvet:collective
func (r *ring) rotate() { r.step() }

func guardedCollectiveMethod(c *mpi.Comm, r *ring) {
	if c.Rank() == 0 {
		r.rotate() // want "collective rotate is called under a rank-dependent condition"
	}
}

// sumEnergy enters Allreduce two calls down.
func sumEnergy(c *mpi.Comm) { reduceAll(c) }

func reduceAll(c *mpi.Comm) { c.Allreduce(nil, mpi.OpSum) }

func earlyNilBeforeHelper(c *mpi.Comm) error {
	if c.Rank() == 0 {
		return nil // want "rank-dependent early return skips collective sumEnergy"
	}
	sumEnergy(c)
	return nil
}

func continuePastHelper(c *mpi.Comm, rank int) {
	for i := 0; i < 4; i++ {
		if rank == i {
			continue // want "rank-dependent continue in a loop containing collective sumEnergy"
		}
		sumEnergy(c)
	}
}

func switchReturnSkips(c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		return // want "rank-dependent early return skips collective Comm.Barrier"
	}
	c.Barrier()
}

// closureReturn is clean: the return leaves the literal, which holds no
// collective, not the function whose barrier follows.
func closureReturn(c *mpi.Comm, rank int) {
	skip := func() {
		if rank == 0 {
			return
		}
		println("non-root local work")
	}
	skip()
	c.Barrier()
}
