// Package mpi is a fixture stub: the collsym analyzer matches Comm
// methods by this import path, so the stub only needs the signatures.
package mpi

// Op selects a reduction operator.
type Op int

// OpSum is the only operator the fixtures need.
const OpSum Op = iota

// Comm is the communicator stub.
type Comm struct{}

func (c *Comm) Rank() int { return 0 }

func (c *Comm) Size() int { return 1 }

func (c *Comm) Barrier() {}

func (c *Comm) Allreduce(vals []float64, op Op) []float64 { return vals }

func (c *Comm) Allgather(payload []byte) [][]byte { return nil }
