// Package mpi is a preemptpoll fixture stub: the analyzer matches
// Comm.FaultPoint (a boundary) by this import path and the
// receiver/method name.
package mpi

// Comm is the communicator stub.
type Comm struct{}

func (c *Comm) Rank() int { return 0 }

func (c *Comm) FaultPoint(kind string, n int) {}

func (c *Comm) Allreduce(vals ...float64) []float64 { return vals }
