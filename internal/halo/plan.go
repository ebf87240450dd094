// Package halo is the one ghost-exchange layer under both engines: the
// static communication plan, the wire codec, and the two exchange loops —
// dense (Exchange: every cell of a class, every round) and sparse
// (ExchangeSparse: the records the caller routed this round).
//
// The plan is a pure function of the process grid. Every rank holds the
// whole lattice.Grid, so what rank a holds as ghosts of rank b's cells and
// what b must ship to a are both enumerations of a's ghost shell,
// grid.Box(a, ghost), which either side can run locally — there is no
// request handshake ("the communication pattern is static, which can be
// reused at each time step", paper §2.1). Three rules make the two sides of
// every message agree:
//
//   - holder order: a list that links ghost holder a to owner b names the
//     cells in a's shell order (z, then y, then x ascending over a's
//     unwrapped storage box), whichever side builds it and whichever way the
//     data travels. Two shell cells that are periodic images of the same
//     owned cell are both kept.
//   - peer order: peers are visited in ascending rank, sends first, then
//     receives.
//   - skip-empty: no message is sent or awaited for a peer whose list for
//     the class is empty. The lists of the two sides are the same
//     enumeration, so they are empty together. A sparse round's lists hold
//     peers, not cells: its class's send list names the peers that hold a
//     cell of the class's region, its receive list the peers whose region
//     reaches this rank. A peer on neither is skipped; a listed peer gets a
//     message even when it is empty, because the receiver cannot tell an
//     idle peer from a late one.
package halo

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/vec"
)

// Class is one set of ghost cells that travels together. A class names its
// cells by an unwrapped cell range [lo, hi) computed from a box: a dense
// class from its holder's, a sparse class from its owner's.
type Class struct {
	// Push sends the holder's ghost copy back to the owner (the KMC write
	// band); the default refreshes the holder from the owner.
	Push bool
	// Self also copies the holder's periodic images of its own cells,
	// locally and without a message. Engines that keep their self-images
	// consistent some other way leave it off.
	Self bool
	// Cells limits a dense class to the holder's ghost cells in the range
	// it returns for the holder's box; nil means every ghost cell.
	Cells func(holder *lattice.Box) (lo, hi [3]int)
	// Region makes the class a sparse round's: given an owner's box, it
	// returns the range that the owner's records in the round may be about,
	// owned cells and ghosts alike. Such a class has no cell lists, only
	// peer lists (see ExchangeSparse). A class without a Region is
	// sparse-exchanged with every peer.
	Region func(owner *lattice.Box) (lo, hi [3]int)
}

// Cell is one cell on the receiving side of an exchange.
type Cell struct {
	Local int   // receiver's local index of the cell's basis-0 site
	Shift vec.V // periodic image offset a ghost holder adds to positions; zero at an owner
}

type selfCopy struct {
	src int // local index of the owned cell's basis-0 site
	dst Cell
}

// Plan is one rank's share of the static pattern.
type Plan struct {
	Peers []int // ranks owning cells of my ghost shell (hence holding mine), ascending, self excluded

	// Per class, then per index into Peers.
	send [][][]int
	recv [][][]Cell
	self [][]selfCopy
	// Per class, the sparse round's peers as ascending indices into Peers:
	// whom it sends to and whom it receives from.
	to, from [][]int

	// Reused for every message and self-copy: an exchange runs twice per MD
	// step, and fresh buffers dominated its allocation profile.
	out Packer
	in  Unpacker

	// The sparse shape: the pending records of the next round, per index
	// into Peers (empty between rounds), and the memo behind Interest: per
	// axis and wrapped coordinate an index into that axis's distinct slab
	// sets, and per triple of those indices (x fastest) the packers of the
	// peers in their product.
	sparse      []Packer
	grid        *lattice.Grid
	rank, ghost int
	near        [3][]int
	nsets       [3]int
	interests   [][]*Packer
}

// MemoryBytes returns the heap footprint of the plan: its cell and peer
// lists, the interest memo, and the reusable pack buffers at their current
// capacity.
func (pl *Plan) MemoryBytes() int {
	const cellBytes, selfBytes = 32, 40 // Cell{int, vec.V}; selfCopy{int, Cell}
	n := cap(pl.out.buf) + 8*(len(pl.near[0])+len(pl.near[1])+len(pl.near[2]))
	for i := range pl.sparse {
		n += cap(pl.sparse[i].buf)
	}
	for _, l := range pl.interests {
		n += 8 * len(l)
	}
	for k := range pl.to {
		n += 8 * (len(pl.to[k]) + len(pl.from[k]))
	}
	for k := range pl.send {
		for p := range pl.send[k] {
			n += 8*len(pl.send[k][p]) + cellBytes*len(pl.recv[k][p])
		}
		n += selfBytes * len(pl.self[k])
	}
	return n
}

// slabs returns, ascending, the slabs of axis d that own a cell of the
// unwrapped range [lo, hi).
func slabs(grid *lattice.Grid, d, lo, hi int) []int {
	var out []int
	for v := lo; v < hi; v++ {
		if s := grid.Slot(d, int32(v)); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// holders returns, ascending, the ranks that hold a cell of the unwrapped
// range [lo, hi), owned or as a ghost. This is the one ownership rule of the
// plan: the grid is rectilinear, so the owners of a box are the product of
// the slabs each axis reaches, and a rank holds a cell when it owns one
// within the ghost width of it.
func (pl *Plan) holders(lo, hi [3]int) []int {
	var s [3][]int
	for d := range s {
		s[d] = slabs(pl.grid, d, lo[d]-pl.ghost, hi[d]+pl.ghost)
	}
	var out []int
	for _, z := range s[2] {
		for _, y := range s[1] {
			for _, x := range s[0] {
				out = append(out, pl.grid.Rank(x, y, z))
			}
		}
	}
	return out
}

// eachHeld calls fn, in holder order, for every ghost cell of holder's shell
// that rank r owns, with its unwrapped coordinate c and wrapped image w. The
// grid is rectilinear, so those cells are the product of the holder's
// storage coordinates that lie in r's slab on each axis, less the holder's
// own cells.
func eachHeld(grid *lattice.Grid, holder *lattice.Box, r int, fn func(c, w lattice.Coord)) {
	type coord struct {
		v, w  int32 // unwrapped, wrapped
		owned bool  // inside the holder's own range on this axis
	}
	var at [3][]coord
	x, y, z := grid.RankCoord(r)
	for d, slab := range [3]int{x, y, z} {
		for v := int32(holder.Lo[d] - holder.Ghost); v < int32(holder.Hi[d]+holder.Ghost); v++ {
			if grid.Slot(d, v) == slab {
				w := grid.L.Wrap(lattice.Coord{X: v, Y: v, Z: v}) // each component wraps by its own dimension
				at[d] = append(at[d], coord{v, [3]int32{w.X, w.Y, w.Z}[d], int(v) >= holder.Lo[d] && int(v) < holder.Hi[d]})
			}
		}
	}
	for _, cz := range at[2] {
		for _, cy := range at[1] {
			for _, cx := range at[0] {
				if !(cx.owned && cy.owned && cz.owned) {
					fn(lattice.Coord{X: cx.v, Y: cy.v, Z: cz.v}, lattice.Coord{X: cx.w, Y: cy.w, Z: cz.w})
				}
			}
		}
	}
}

// classMask names, per axis of a holder's storage range, the dense classes
// whose Cells range covers each coordinate, one bit per class in the order
// of the dense list: a cell is in the classes whose bits survive the AND of
// its three axes' masks.
type classMask struct {
	lo   [3]int
	axis [3][]uint64
}

// newClassMask builds holder's masks over the dense classes (at most 64).
func newClassMask(holder *lattice.Box, classes []Class, dense []int) *classMask {
	m := &classMask{}
	for d := range m.axis {
		m.lo[d] = holder.Lo[d] - holder.Ghost
		m.axis[d] = make([]uint64, holder.Hi[d]+holder.Ghost-m.lo[d])
	}
	for j, k := range dense {
		lo, hi := [3]int{math.MinInt, math.MinInt, math.MinInt}, [3]int{math.MaxInt, math.MaxInt, math.MaxInt}
		if cells := classes[k].Cells; cells != nil {
			lo, hi = cells(holder)
		}
		for d, axis := range m.axis {
			for i := range axis {
				if v := m.lo[d] + i; v >= lo[d] && v < hi[d] {
					axis[i] |= 1 << j
				}
			}
		}
	}
	return m
}

// at returns the classes of cell c (unwrapped, in the holder's storage).
func (m *classMask) at(c lattice.Coord) uint64 {
	return m.axis[0][int(c.X)-m.lo[0]] & m.axis[1][int(c.Y)-m.lo[1]] & m.axis[2][int(c.Z)-m.lo[2]]
}

// Build computes rank's plan for a halo of ghost cells. Classes with a
// Region get peer lists only; the others, at most 64, get cell lists, and
// are sparse-exchanged with every peer. With no classes the result carries the
// peer set only. Build takes no communicator: it cannot send a message.
func Build(grid *lattice.Grid, rank, ghost int, classes []Class) *Plan {
	box := grid.Box(rank, ghost)
	pl := &Plan{grid: grid, rank: rank, ghost: ghost}
	for _, r := range pl.holders(box.Lo, box.Hi) {
		if r != rank {
			pl.Peers = append(pl.Peers, r)
		}
	}
	pl.sparse = make([]Packer, len(pl.Peers))
	pl.to = make([][]int, len(classes))
	pl.from = make([][]int, len(classes))
	var dense []int // the classes with cell lists
	anySelf := false
	for k, cl := range classes {
		if cl.Region == nil {
			dense = append(dense, k)
			anySelf = anySelf || cl.Self
		}
		// A sparse round reaches the peers that hold a cell of its region.
		for i, q := range pl.Peers {
			if cl.Region == nil || slices.Contains(pl.holders(cl.Region(box)), q) {
				pl.to[k] = append(pl.to[k], i)
			}
			if cl.Region == nil || slices.Contains(pl.holders(cl.Region(grid.Box(q, ghost))), rank) {
				pl.from[k] = append(pl.from[k], i)
			}
		}
	}
	if len(dense) == 0 {
		return pl
	}
	pl.send = make([][][]int, len(classes))
	pl.recv = make([][][]Cell, len(classes))
	pl.self = make([][]selfCopy, len(classes))
	for k := range classes {
		pl.send[k] = make([][]int, len(pl.Peers))
		pl.recv[k] = make([][]Cell, len(pl.Peers))
	}
	l := grid.L
	shell := func(c, w lattice.Coord) Cell {
		return Cell{Local: box.LocalIndex(c), Shift: l.Position(c).Sub(l.Position(w))}
	}
	mine := newClassMask(box, classes, dense)
	for i, q := range pl.Peers {
		// What I hold of q's cells, and what q holds of mine, in the holder's order.
		eachHeld(grid, box, q, func(c, w lattice.Coord) {
			for in := mine.at(c); in != 0; in &= in - 1 {
				switch k := dense[bits.TrailingZeros64(in)]; {
				case classes[k].Push:
					pl.send[k][i] = append(pl.send[k][i], box.LocalIndex(c))
				default:
					pl.recv[k][i] = append(pl.recv[k][i], shell(c, w))
				}
			}
		})
		holder := grid.Box(q, ghost)
		theirs := newClassMask(holder, classes, dense)
		eachHeld(grid, holder, rank, func(c, w lattice.Coord) {
			for in := theirs.at(c); in != 0; in &= in - 1 {
				switch k := dense[bits.TrailingZeros64(in)]; {
				case classes[k].Push:
					pl.recv[k][i] = append(pl.recv[k][i], Cell{Local: box.LocalIndex(w)})
				default:
					pl.send[k][i] = append(pl.send[k][i], box.LocalIndex(w))
				}
			}
		})
	}
	if anySelf {
		var self uint64 // the dense classes with Self
		for j, k := range dense {
			if classes[k].Self {
				self |= 1 << j
			}
		}
		eachHeld(grid, box, rank, func(c, w lattice.Coord) {
			for in := mine.at(c) & self; in != 0; in &= in - 1 {
				k := dense[bits.TrailingZeros64(in)]
				pl.self[k] = append(pl.self[k], selfCopy{src: box.LocalIndex(w), dst: shell(c, w)})
			}
		})
	}
	return pl
}

// Channel is one exchanged quantity: its message tag, its plan class, the
// package prefix of its decode errors, and its telemetry handles (nil
// handles record nothing).
type Channel struct {
	Pkg        string
	Tag, Class int

	Pack   *telemetry.Timer   // self-copies, serialization and enqueue of every send
	Wait   *telemetry.Timer   // blocked in Recv for one peer's message
	Unpack *telemetry.Timer   // deserialization of one peer's message
	Bytes  *telemetry.Counter // payload bytes sent
}

// Exchange runs one round of ch's class: self-copies, then one message to
// every peer with cells to send, then one from every peer with cells to
// receive. pack appends the cell whose basis-0 site is local; unpack reads
// the same fields back into c. Every rank of the grid must call it with the
// same channel.
func (pl *Plan) Exchange(comm *mpi.Comm, ch Channel,
	pack func(p *Packer, local int), unpack func(u *Unpacker, c Cell)) {
	sp := ch.Pack.Begin()
	p, u := &pl.out, &pl.in
	u.pkg = ch.Pkg
	for _, sc := range pl.self[ch.Class] {
		p.Reset()
		pack(p, sc.src)
		u.Reset(p.Bytes())
		unpack(u, sc.dst)
	}
	for i, peer := range pl.Peers {
		cells := pl.send[ch.Class][i]
		if len(cells) == 0 {
			continue
		}
		p.Reset()
		for _, local := range cells {
			pack(p, local)
		}
		comm.Send(peer, ch.Tag, p.Bytes())
		ch.Bytes.Add(int64(len(p.Bytes())))
	}
	sp.End()
	for i, peer := range pl.Peers {
		cells := pl.recv[ch.Class][i]
		if len(cells) == 0 {
			continue
		}
		wait := ch.Wait.Begin()
		data := comm.Recv(peer, ch.Tag)
		wait.End()
		sp := ch.Unpack.Begin()
		u.Reset(data)
		for _, c := range cells {
			unpack(u, c)
		}
		if !u.Done() {
			//mdvet:ignore errpanic ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("%s: %d trailing byte(s) in ghost message (tag %d) from rank %d",
				ch.Pkg, u.Remaining(), ch.Tag, peer))
		}
		sp.End()
	}
}

// Sparse returns the packer whose records travel to rank in the next
// ExchangeSparse round, or false when rank is not a peer.
func (pl *Plan) Sparse(rank int) (*Packer, bool) {
	i, ok := slices.BinarySearch(pl.Peers, rank)
	if !ok {
		return nil, false
	}
	return &pl.sparse[i], true
}

// Interest returns the packers of the peers that hold the wrapped cell w,
// owned or as a ghost: where a record about that cell must be routed (the
// first argument, the cell's local site, does not change the answer). Like
// the lists, it is a pure function of the grid: the holders of w are the
// product of the slabs within the ghost width of w on each axis. The first
// call tabulates, per axis, the slab set of every coordinate as an index
// into that axis's few distinct sets, and the packers of every triple of
// them; no state is kept per cell.
func (pl *Plan) Interest(_ int, w lattice.Coord) []*Packer {
	if pl.near[0] == nil {
		pl.tabulateInterest()
	}
	n := &pl.near
	return pl.interests[(n[2][w.Z]*pl.nsets[1]+n[1][w.Y])*pl.nsets[0]+n[0][w.X]]
}

// tabulateInterest builds the memo behind Interest.
func (pl *Plan) tabulateInterest() {
	var sets [3][][]int
	for d, period := range [3]int{pl.grid.L.Nx, pl.grid.L.Ny, pl.grid.L.Nz} {
		pl.near[d] = make([]int, period)
		for v := range pl.near[d] {
			s := slabs(pl.grid, d, v-pl.ghost, v+pl.ghost+1)
			id := slices.IndexFunc(sets[d], func(o []int) bool { return slices.Equal(o, s) })
			if id < 0 {
				id = len(sets[d])
				sets[d] = append(sets[d], s)
			}
			pl.near[d][v] = id
		}
		pl.nsets[d] = len(sets[d])
	}
	pl.interests = make([][]*Packer, pl.nsets[0]*pl.nsets[1]*pl.nsets[2])
	for id := range pl.interests {
		ix, iy, iz := id%pl.nsets[0], id/pl.nsets[0]%pl.nsets[1], id/(pl.nsets[0]*pl.nsets[1])
		for i, q := range pl.Peers {
			x, y, z := pl.grid.RankCoord(q)
			if slices.Contains(sets[0][ix], x) && slices.Contains(sets[1][iy], y) && slices.Contains(sets[2][iz], z) {
				pl.interests[id] = append(pl.interests[id], &pl.sparse[i])
			}
		}
	}
}

// ExchangeSparse runs one round of the sparse shape: the records routed
// into the Sparse packers since the last round travel to their peers, and
// apply reads each arriving message record by record until u.Done(). Which
// records a round carries is only known at run time, so the receiver cannot
// tell an idle peer from a late one: the round sends one message, empty or
// not, to every peer on ch's class's send list, in ascending peer order,
// then receives one from every peer on its receive list, in the same order.
// A record routed to a peer off the send list is a routing bug and panics.
// Every rank of the grid must call it with the same channel.
func (pl *Plan) ExchangeSparse(comm *mpi.Comm, ch Channel, apply func(u *Unpacker, from int)) {
	sp := ch.Pack.Begin()
	to := pl.to[ch.Class]
	for i, peer := range pl.Peers {
		p := &pl.sparse[i]
		switch {
		case len(to) > 0 && to[0] == i:
			to = to[1:]
			comm.Send(peer, ch.Tag, p.Bytes())
			ch.Bytes.Add(int64(len(p.Bytes())))
		case len(p.Bytes()) > 0:
			//mdvet:ignore errpanic ghost-protocol invariant in the hot exchange path; recovered as a RankPanic job error
			panic(fmt.Errorf("%s: %d byte(s) routed to rank %d, which class %d does not reach (tag %d)",
				ch.Pkg, len(p.Bytes()), peer, ch.Class, ch.Tag))
		}
		p.Reset()
	}
	sp.End()
	u := &pl.in
	u.pkg = ch.Pkg
	for _, i := range pl.from[ch.Class] {
		peer := pl.Peers[i]
		wait := ch.Wait.Begin()
		data := comm.Recv(peer, ch.Tag)
		wait.End()
		sp := ch.Unpack.Begin()
		u.Reset(data)
		apply(u, peer)
		sp.End()
	}
}
