// Package couple is the preemptpoll fixture for rule 1 (the analyzer
// matches this import path as a coupling package) and for rule 2 inside
// the package that declares the collective Poll method.
package couple

import (
	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
)

// Preemptor mirrors the real preemptor: Poll is a collective *method*,
// which collsym's directive matching cannot see — preemptpoll covers it.
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

// drainTail is a declared boundary: the checkpointless tail of a run
// where preemption is handled by the caller.
//
//mdvet:boundary
func drainTail() {}

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

func goodViaBoundary(r *md.Rank, n int) {
	for i := 0; i < n; i++ {
		r.Step()
		drainTail()
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

// Rule 2: guarded collective methods and guarded transitive collectives.

func badGuardedPoll(c *mpi.Comm, p *Preemptor) {
	if c.Rank() == 0 {
		p.Poll(c) // want "collective Poll is called under a rank-dependent condition"
	}
}

// pollWrapper enters the collective one hop down.
func pollWrapper(c *mpi.Comm, p *Preemptor) {
	p.Poll(c)
}

func badGuardedWrapper(c *mpi.Comm, p *Preemptor) {
	if c.Rank() == 0 {
		pollWrapper(c, p) // want "rank-guarded call to pollWrapper transitively enters collective Poll"
	}
}

// badGuardedYield: the driver's boundary flushes telemetry under a rank-0
// guard right next to the yield; the yield itself must stay outside it.
func badGuardedYield(d *run, c *mpi.Comm) {
	if c.Rank() == 0 {
		d.yield(c) // want "rank-guarded call to yield transitively enters collective Poll"
	}
}

// symmetricPoll is the sanctioned shape: the poll guard is rank-uniform
// configuration state, not the rank.
func symmetricPoll(c *mpi.Comm, p *Preemptor, enabled bool) {
	if enabled {
		p.Poll(c)
	}
}

// guardedLocalWork stays silent: nothing under the guard reaches a
// collective.
func guardedLocalWork(c *mpi.Comm, r *md.Rank) {
	if c.Rank() == 0 {
		r.Step()
	}
}

func staleIgnore(r *md.Rank) {
	//mdvet:ignore preemptpoll nothing advances here anymore // want "stale //mdvet:ignore preemptpoll directive"
	_ = r
}
