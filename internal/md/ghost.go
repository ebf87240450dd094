package md

import (
	"fmt"

	"mdkmc/internal/halo"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// Message tags of the MD exchange protocol.
const (
	tagPos = iota + 100
	tagRho
	tagMig
)

// exchange is one rank's ghost communication: the static halo plan (one
// class: every ghost cell, periodic self-images included) and the channels
// that run over it. See internal/halo for the plan and ordering rules.
type exchange struct {
	comm *mpi.Comm
	grid *lattice.Grid
	plan *halo.Plan

	pos, rho, mig halo.Channel
	migrate       *telemetry.Timer

	chain []neighbor.Runaway // one ghost site's received chain (unpackCellPos)
}

func newExchange(comm *mpi.Comm, grid *lattice.Grid, box *lattice.Box) *exchange {
	return &exchange{
		comm: comm,
		grid: grid,
		plan: halo.Build(grid, comm.Rank(), box.Ghost, []halo.Class{{Self: true}}),
		pos:  halo.Channel{Pkg: "md", Tag: tagPos},
		rho:  halo.Channel{Pkg: "md", Tag: tagRho},
		mig:  halo.Channel{Pkg: "md", Tag: tagMig},
	}
}

// attachTelemetry registers the ghost-protocol spans: pack (serialize +
// enqueue), wait (blocked in Recv for the peer's message), unpack
// (deserialize into the halo), per exchanged quantity, plus the ghost
// payload byte counter.
func (e *exchange) attachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	e.pos.Pack = reg.Timer("md/ghost/pos/pack")
	e.pos.Wait = reg.Timer("md/ghost/pos/wait")
	e.pos.Unpack = reg.Timer("md/ghost/pos/unpack")
	e.rho.Pack = reg.Timer("md/ghost/rho/pack")
	e.rho.Wait = reg.Timer("md/ghost/rho/wait")
	e.rho.Unpack = reg.Timer("md/ghost/rho/unpack")
	e.migrate = reg.Timer("md/ghost/migrate")
	e.mig.Pack = reg.Timer("md/ghost/migrate/pack")
	e.mig.Wait = reg.Timer("md/ghost/migrate/wait")
	e.mig.Unpack = reg.Timer("md/ghost/migrate/unpack")
	// Ghost payload bytes, all three message kinds.
	bytes := reg.Counter("md/ghost/bytes-sent")
	e.pos.Bytes, e.rho.Bytes, e.mig.Bytes = bytes, bytes, bytes
}

// packCellPos serializes one cell's two sites: per site ID, type, position,
// and the run-away chain anchored there.
func packCellPos(p *halo.Packer, s *neighbor.Store, base int) {
	for b := 0; b < 2; b++ {
		local := base + b
		p.I64(s.ID[local])
		p.U8(uint8(s.Type[local]))
		p.Vec(s.R[local])
		n := 0
		s.EachRunaway(local, func(_ int32, _ *neighbor.Runaway) { n++ })
		p.U16(uint16(n))
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			p.I64(a.ID)
			p.U8(uint8(a.Type))
			p.Vec(a.R)
		})
	}
}

// unpackCellPos writes one received cell into the ghost region, applying the
// periodic shift and replacing the run-away chains; chain is scratch for
// one site's chain, returned for reuse.
func unpackCellPos(u *halo.Unpacker, s *neighbor.Store, base int, shift vec.V, chain []neighbor.Runaway) []neighbor.Runaway {
	for b := 0; b < 2; b++ {
		local := base + b
		s.ID[local] = u.I64()
		s.Type[local] = units.Element(u.U8())
		s.R[local] = u.Vec().Add(shift)
		n := int(u.U16())
		chain = chain[:0]
		for k := 0; k < n; k++ {
			chain = append(chain, neighbor.Runaway{
				ID:   u.I64(),
				Type: units.Element(u.U8()),
				R:    u.Vec().Add(shift),
			})
		}
		s.ReplaceRunaways(local, chain)
	}
	return chain
}

// ExchangePositions refreshes every ghost site's identity, position and
// run-away chains from the owning ranks (and local periodic images).
func (e *exchange) ExchangePositions(s *neighbor.Store) {
	e.plan.Exchange(e.comm, e.pos,
		func(p *halo.Packer, local int) { packCellPos(p, s, local) },
		func(u *halo.Unpacker, c halo.Cell) { e.chain = unpackCellPos(u, s, c.Local, c.Shift, e.chain) })
}

// packCellRho serializes the densities of a cell: site densities plus chain
// densities keyed by atom ID.
func packCellRho(p *halo.Packer, s *neighbor.Store, base int) {
	for b := 0; b < 2; b++ {
		local := base + b
		p.F64(s.Rho[local])
		n := 0
		s.EachRunaway(local, func(_ int32, _ *neighbor.Runaway) { n++ })
		p.U16(uint16(n))
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			p.I64(a.ID)
			p.F64(a.Rho)
		})
	}
}

func unpackCellRho(u *halo.Unpacker, s *neighbor.Store, base int) {
	for b := 0; b < 2; b++ {
		local := base + b
		s.Rho[local] = u.F64()
		n := int(u.U16())
		for k := 0; k < n; k++ {
			id := u.I64()
			rho := u.F64()
			found := false
			s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
				if a.ID == id {
					a.Rho = rho
					found = true
				}
			})
			if !found {
				//mdvet:ignore errpanic ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
				panic(fmt.Sprintf("md: rho for unknown ghost run-away %d", id))
			}
		}
	}
}

// ExchangeDensities refreshes ghost densities after the density pass.
func (e *exchange) ExchangeDensities(s *neighbor.Store) {
	e.plan.Exchange(e.comm, e.rho,
		func(p *halo.Packer, local int) { packCellRho(p, s, local) },
		func(u *halo.Unpacker, c halo.Cell) { unpackCellRho(u, s, c.Local) })
}

// Migrant queues run-away atom a, in flight to the rank owning its new
// anchor w (wrapped; a.R already translated into the wrapped frame), for the
// next ExchangeMigrants.
func (e *exchange) Migrant(w lattice.Coord, a *neighbor.Runaway) {
	owner := e.grid.RankOfCell(w.X, w.Y, w.Z)
	p, ok := e.plan.Sparse(owner)
	if !ok {
		//mdvet:ignore errpanic run-away containment invariant (WideMargin): a migrant beyond the peer halo is physics gone wrong; recovered as a RankPanic job error
		panic(fmt.Sprintf("md: migrant target rank %d is not a ghost peer", owner))
	}
	p.I64(int64(w.X))
	p.I64(int64(w.Y))
	p.I64(int64(w.Z))
	p.U8(uint8(w.B))
	p.I64(a.ID)
	p.U8(uint8(a.Type))
	p.Vec(a.R)
	p.Vec(a.Vel)
}

// ExchangeMigrants ships the queued migrants to the owners of their anchors
// and hands place each arrival, peers in ascending order and each peer's
// atoms in the order it queued them.
func (e *exchange) ExchangeMigrants(place func(anchor lattice.Coord, a neighbor.Runaway)) {
	sp := e.migrate.Begin()
	e.plan.ExchangeSparse(e.comm, e.mig, func(u *halo.Unpacker, _ int) {
		for !u.Done() {
			anchor := lattice.Coord{
				X: int32(u.I64()), Y: int32(u.I64()), Z: int32(u.I64()), B: int8(u.U8()),
			}
			place(anchor, neighbor.Runaway{
				ID: u.I64(), Type: units.Element(u.U8()), R: u.Vec(), Vel: u.Vec(),
			})
		}
	})
	sp.End()
}
