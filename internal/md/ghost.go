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

	pos, rho halo.Channel
	migrate  *telemetry.Timer
	bytes    *telemetry.Counter // ghost payload bytes, all three message kinds
	// Reused pack buffer of the migrant messages.
	scratch halo.Packer
}

func newExchange(comm *mpi.Comm, grid *lattice.Grid, box *lattice.Box) *exchange {
	return &exchange{
		comm: comm,
		grid: grid,
		plan: halo.Build(grid, comm.Rank(), box.Ghost, []halo.Class{{Self: true}}, nil),
		pos:  halo.Channel{Pkg: "md", Tag: tagPos},
		rho:  halo.Channel{Pkg: "md", Tag: tagRho},
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
	e.bytes = reg.Counter("md/ghost/bytes-sent")
	e.pos.Bytes, e.rho.Bytes = e.bytes, e.bytes
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
// periodic shift and rebuilding the run-away chains.
func unpackCellPos(u *halo.Unpacker, s *neighbor.Store, base int, shift vec.V) {
	for b := 0; b < 2; b++ {
		local := base + b
		s.ID[local] = u.I64()
		s.Type[local] = units.Element(u.U8())
		s.R[local] = u.Vec().Add(shift)
		s.ClearRunaways(local)
		n := int(u.U16())
		for k := 0; k < n; k++ {
			s.AddRunaway(local, neighbor.Runaway{
				ID:   u.I64(),
				Type: units.Element(u.U8()),
				R:    u.Vec().Add(shift),
			})
		}
	}
}

// ExchangePositions refreshes every ghost site's identity, position and
// run-away chains from the owning ranks (and local periodic images).
func (e *exchange) ExchangePositions(s *neighbor.Store) {
	e.plan.Exchange(e.comm, e.pos,
		func(p *halo.Packer, local int) { packCellPos(p, s, local) },
		func(u *halo.Unpacker, c halo.Cell) { unpackCellPos(u, s, c.Local, c.Shift) })
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

// migrant is a run-away atom in flight to the rank owning its new anchor.
type migrant struct {
	anchor lattice.Coord // wrapped global cell+basis of the new anchor
	atom   neighbor.Runaway
}

// SendMigrants ships each migrant to the owner of its anchor and returns the
// migrants received from the peer ranks, sorted by source. The atom's
// position is translated into the wrapped frame by the caller.
func (e *exchange) SendMigrants(out []migrant) []migrant {
	sp := e.migrate.Begin()
	defer sp.End()
	byPeer := make(map[int][]migrant)
	for _, m := range out {
		owner := e.grid.RankOfCell(m.anchor.X, m.anchor.Y, m.anchor.Z)
		if owner == e.comm.Rank() {
			//mdvet:ignore errpanic caller contract of the migration hot path; recovered as a RankPanic job error
			panic("md: local migrant routed through SendMigrants")
		}
		byPeer[owner] = append(byPeer[owner], m)
	}
	for peer := range byPeer {
		found := false
		for _, p := range e.plan.Peers {
			if p == peer {
				found = true
				break
			}
		}
		if !found {
			//mdvet:ignore errpanic run-away containment invariant (WideMargin): a migrant beyond the peer halo is physics gone wrong; recovered as a RankPanic job error
			panic(fmt.Sprintf("md: migrant target rank %d is not a ghost peer", peer))
		}
	}
	p := &e.scratch
	for _, peer := range e.plan.Peers {
		p.Reset()
		for _, m := range byPeer[peer] {
			p.I64(int64(m.anchor.X))
			p.I64(int64(m.anchor.Y))
			p.I64(int64(m.anchor.Z))
			p.U8(uint8(m.anchor.B))
			p.I64(m.atom.ID)
			p.U8(uint8(m.atom.Type))
			p.Vec(m.atom.R)
			p.Vec(m.atom.Vel)
		}
		e.comm.Send(peer, tagMig, p.Bytes())
		e.bytes.Add(int64(len(p.Bytes())))
	}
	var in []migrant
	for _, peer := range e.plan.Peers {
		data, _ := e.comm.Recv(peer, tagMig)
		u := halo.NewUnpacker("md", data)
		for !u.Done() {
			var m migrant
			m.anchor = lattice.Coord{
				X: int32(u.I64()), Y: int32(u.I64()), Z: int32(u.I64()), B: int8(u.U8()),
			}
			m.atom.ID = u.I64()
			m.atom.Type = units.Element(u.U8())
			m.atom.R = u.Vec()
			m.atom.Vel = u.Vec()
			in = append(in, m)
		}
	}
	return in
}
