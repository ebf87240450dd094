// Package couple is the preemptpoll fixture: the analyzer matches this
// import path as a coupling package, where advancing loops must reach a
// preemption boundary.
package couple

import (
	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
)

// Preemptor mirrors the real preemptor: Poll is one of the two boundary
// leaves (that it stays rank-symmetric is collsym's contract).
type Preemptor struct{}

// Poll is the collective boundary check stub.
//
//mdvet:collective
func (p *Preemptor) Poll(c *mpi.Comm) bool {
	return c.Allreduce(0)[0] > 0.5
}

// faultEveryStep is a same-package helper reaching a boundary: loops
// calling it are covered transitively.
func faultEveryStep(c *mpi.Comm, step int) {
	c.FaultPoint("md-step", step)
}

func goodDirectFault(c *mpi.Comm, r *md.Rank, n int) {
	for i := 0; i < n; i++ {
		r.Step()
		c.FaultPoint("md-step", i)
	}
}

func goodDirectPoll(c *mpi.Comm, r *md.Rank, p *Preemptor, n int) {
	for i := 0; i < n; i++ {
		r.Step()
		if p.Poll(c) {
			return
		}
	}
}

func goodViaHelper(c *mpi.Comm, r *md.Rank, n int) {
	for i := 0; i < n; i++ {
		r.Step()
		faultEveryStep(c, i)
	}
}

// run mirrors the run driver (internal/couple/driver.go): stage loops
// advance the engine directly and hand every step to boundary, which
// reaches the fault point itself and the collective poll through yield.
type run struct{ preempt *Preemptor }

func (d *run) boundary(c *mpi.Comm, k int, last bool) bool {
	c.FaultPoint("md-step", k)
	return !last && d.yield(c)
}

func (d *run) yield(c *mpi.Comm) bool {
	return d.preempt != nil && d.preempt.Poll(c)
}

// goodDriverStage is the driver's stage-loop shape: rule 1 sees the
// engine advance and finds the boundary through the method's body.
func goodDriverStage(d *run, c *mpi.Comm, r *md.Rank, n int) {
	for i := 0; i < n; i++ {
		r.Step()
		if d.boundary(c, i+1, i+1 == n) {
			return
		}
	}
}

// goodDeferredYield is the campaign shape: the anneal loop carries the
// ignore, the iteration loop around it yields through the driver.
func goodDeferredYield(d *run, c *mpi.Comm, st *kmc.State, n int) {
	for it := 0; it < n; it++ {
		//mdvet:ignore preemptpoll anneal has no checkpointable mid-state, the iteration loop yields
		for st.Cycles < n {
			st.Cycle()
		}
		if d.yield(c) {
			return
		}
	}
}

func badNoBoundary(r *md.Rank, n int) {
	for i := 0; i < n; i++ { // want "loop advances the simulation via Step but reaches no preemption boundary"
		r.Step()
	}
}

func badRange(st *kmc.State, batches []int) {
	for range batches { // want "loop advances the simulation via Cycle but reaches no preemption boundary"
		st.Cycle()
	}
}

// badInner: only the innermost advancing loop is reported — the outer
// loop polls at its iteration boundary.
func badInner(c *mpi.Comm, st *kmc.State, p *Preemptor, n int) {
	for it := 0; it < n; it++ {
		for st.Cycles < n { // want "loop advances the simulation via Cycle but reaches no preemption boundary"
			st.Cycle()
		}
		if p.Poll(c) {
			return
		}
	}
}

// ignoredAnneal is the sanctioned escape hatch for loops with genuinely
// no checkpointable mid-state.
func ignoredAnneal(st *kmc.State, n int) {
	//mdvet:ignore preemptpoll anneal has no checkpointable mid-state, preempted at the iteration boundary
	for i := 0; i < n; i++ {
		st.Cycle()
	}
}

func staleIgnore(r *md.Rank) {
	//mdvet:ignore preemptpoll nothing advances here anymore // want "stale //mdvet:ignore preemptpoll directive"
	_ = r
}
