// Package couple is the collsym fixture for collectives that are not mpi
// primitives, inside the package that declares them: the collective Poll
// *method* (known by this import path, and marked //mdvet:collective like
// the real one) and helpers that reach it through same-package calls.
package couple

import "mdkmc/internal/mpi"

// Preemptor mirrors the real preemptor.
type Preemptor struct{}

// Poll is the collective boundary check stub.
//
//mdvet:collective
func (p *Preemptor) Poll(c *mpi.Comm) bool {
	return c.Allreduce([]float64{0}, mpi.OpSum)[0] > 0.5
}

// run mirrors the run driver (internal/couple/driver.go): yield reaches
// the collective poll.
type run struct{ preempt *Preemptor }

func (d *run) yield(c *mpi.Comm) bool {
	return d.preempt != nil && d.preempt.Poll(c)
}

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

func localWork() {}

// guardedLocalWork stays silent: nothing under the guard reaches a
// collective.
func guardedLocalWork(c *mpi.Comm) {
	if c.Rank() == 0 {
		localWork()
	}
}
