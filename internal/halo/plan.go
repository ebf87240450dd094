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
	"slices"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/vec"
)

// Class is one set of ghost cells that travels together.
type Class struct {
	// Push sends the holder's ghost copy back to the owner (the KMC write
	// band); the default refreshes the holder from the owner.
	Push bool
	// Self also copies the holder's periodic images of its own cells,
	// locally and without a message. Engines that keep their self-images
	// consistent some other way leave it off.
	Self bool
	// Region makes the class a sparse round's: given an owner's box, it
	// returns the unwrapped cell range [lo, hi) that the owner's records in
	// the round may be about, owned cells and ghosts alike. Such a class
	// has no cell lists, only peer lists (see ExchangeSparse). A class
	// without a Region is sparse-exchanged with every peer.
	Region func(owner *lattice.Box) (lo, hi [3]int)
}

// maxClasses is the width of the mask a classifier returns.
const maxClasses = 32

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
	// into Peers (empty between rounds), and the cell -> interested-peers
	// memo behind Interest.
	sparse      []Packer
	grid        *lattice.Grid
	rank, ghost int
	interestID  []uint16    // per local cell: 1 + index into interests; 0 = not yet computed
	interests   [][]*Packer // the distinct interested-peer lists
}

// MemoryBytes returns the heap footprint of the plan: its cell lists, the
// interest memo, and the reusable pack buffers at their current capacity.
func (pl *Plan) MemoryBytes() int {
	const cellBytes, selfBytes = 32, 40 // Cell{int, vec.V}; selfCopy{int, Cell}
	n := cap(pl.out.buf) + 2*len(pl.interestID)
	for i := range pl.sparse {
		n += cap(pl.sparse[i].buf)
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

// eachGhost calls fn for every cell of box's ghost shell in holder order,
// with its wrapped image and the rank owning that. The grid is rectilinear,
// so wrapping and ownership are tabulated per axis once instead of being
// recomputed for every cell: the owner is the sum of the three axes' shares
// of the rank index, and a row that is inside the halo on y and z holds
// shell cells only at its two x ends.
func eachGhost(grid *lattice.Grid, box *lattice.Box, fn func(c, w lattice.Coord, owner int)) {
	var wrapped [3][]int32 // wrapped coordinate of each storage index
	var share [3][]int     // its process-grid slot times the axis's rank stride
	stride := [3]int{1, grid.Px, grid.Px * grid.Py}
	for d := range wrapped {
		wrapped[d] = make([]int32, box.Ext(d))
		share[d] = make([]int, box.Ext(d))
		for i := range wrapped[d] {
			// Wrap treats each component by its own dimension.
			v := int32(box.Lo[d] - box.Ghost + i)
			w := grid.L.Wrap(lattice.Coord{X: v, Y: v, Z: v})
			wrapped[d][i] = [3]int32{w.X, w.Y, w.Z}[d]
			share[d][i] = grid.Slot(d, v) * stride[d]
		}
	}
	g := box.Ghost
	inner := func(d, i int) bool { return i >= g && i < box.Ext(d)-g }
	ex := box.Ext(0)
	all := [2][2]int{{0, ex}, {ex, ex}}
	ends := [2][2]int{{0, g}, {ex - g, ex}}
	for k, wz := range wrapped[2] {
		for j, wy := range wrapped[1] {
			runs := all
			if inner(1, j) && inner(2, k) {
				runs = ends
			}
			c := lattice.Coord{Y: int32(box.Lo[1] - g + j), Z: int32(box.Lo[2] - g + k)}
			w := lattice.Coord{Y: wy, Z: wz}
			yz := share[1][j] + share[2][k]
			for _, run := range runs {
				for i := run[0]; i < run[1]; i++ {
					c.X, w.X = int32(box.Lo[0]-g+i), wrapped[0][i]
					fn(c, w, share[0][i]+yz)
				}
			}
		}
	}
}

// Build computes rank's plan for a halo of ghost cells. classify returns,
// for ghost cell c (unwrapped) of the holder whose box is given, the set of
// classes it belongs to as a bit mask (bit k = classes[k], at most 32); nil
// puts every cell in every class. Classes with a Region get peer lists
// only, and are never classified. With no classes the result carries the
// peer set only. Build takes no communicator: it cannot send a message.
func Build(grid *lattice.Grid, rank, ghost int, classes []Class,
	classify func(holder *lattice.Box, c lattice.Coord) uint32) *Plan {
	if len(classes) > maxClasses {
		//mdvet:ignore errpanic caller contract: the class list is a compile-time constant of each engine
		panic(fmt.Sprintf("halo: %d classes exceed the %d-bit class mask", len(classes), maxClasses))
	}
	box := grid.Box(rank, ghost)
	pl := &Plan{grid: grid, rank: rank, ghost: ghost}
	isPeer := make([]bool, grid.Ranks())
	eachGhost(grid, box, func(_, _ lattice.Coord, owner int) { isPeer[owner] = true })
	peerIndex := make([]int, grid.Ranks())
	for r, ok := range isPeer {
		if ok && r != rank {
			peerIndex[r] = len(pl.Peers)
			pl.Peers = append(pl.Peers, r)
		}
	}
	pl.sparse = make([]Packer, len(pl.Peers))
	pl.interestID = make([]uint16, box.NumLocalSites()/2)
	pl.to = make([][]int, len(classes))
	pl.from = make([][]int, len(classes))
	var dense uint32 // mask of the classes with cell lists
	anySelf := false
	for k, cl := range classes {
		for i, q := range pl.Peers {
			if pl.sees(cl, box, q) {
				pl.to[k] = append(pl.to[k], i)
			}
			if pl.sees(cl, grid.Box(q, ghost), rank) {
				pl.from[k] = append(pl.from[k], i)
			}
		}
		if cl.Region == nil {
			dense |= 1 << k
			anySelf = anySelf || cl.Self
		}
	}
	if dense == 0 {
		return pl
	}
	pl.send = make([][][]int, len(classes))
	pl.recv = make([][][]Cell, len(classes))
	pl.self = make([][]selfCopy, len(classes))
	for k := range classes {
		pl.send[k] = make([][]int, len(pl.Peers))
		pl.recv[k] = make([][]Cell, len(pl.Peers))
	}
	if classify == nil {
		classify = func(*lattice.Box, lattice.Coord) uint32 { return ^uint32(0) }
	}

	// My shell: what I hold of others' cells (and of my own).
	l := grid.L
	eachGhost(grid, box, func(c, w lattice.Coord, owner int) {
		if owner == rank && !anySelf {
			return
		}
		m := classify(box, c) & dense
		if m == 0 {
			return
		}
		cell := Cell{Local: box.LocalIndex(c), Shift: l.Position(c).Sub(l.Position(w))}
		i := peerIndex[owner]
		for k, cl := range classes {
			if m&(1<<k) == 0 {
				continue
			}
			switch {
			case owner == rank:
				if cl.Self {
					pl.self[k] = append(pl.self[k], selfCopy{src: box.LocalIndex(w), dst: cell})
				}
			case cl.Push:
				pl.send[k][i] = append(pl.send[k][i], cell.Local)
			default:
				pl.recv[k][i] = append(pl.recv[k][i], cell)
			}
		}
	})

	// Each peer's shell: what it holds of my cells, in its order.
	for i, q := range pl.Peers {
		holder := grid.Box(q, ghost)
		eachGhost(grid, holder, func(c, w lattice.Coord, owner int) {
			if owner != rank {
				return
			}
			m := classify(holder, c) & dense
			if m == 0 {
				return
			}
			local := box.LocalIndex(w)
			for k, cl := range classes {
				if m&(1<<k) == 0 {
					continue
				}
				if cl.Push {
					pl.recv[k][i] = append(pl.recv[k][i], Cell{Local: local})
				} else {
					pl.send[k][i] = append(pl.send[k][i], local)
				}
			}
		})
	}
	return pl
}

// sees reports whether rank r holds, owned or as a ghost, a cell of the
// region cl gives the owner whose box is given: whether, on every axis, r's
// slab owns a cell within the ghost width of the region. The ranks holding
// a cell of a box are the product of those per-axis slabs, so this is
// exactly the union of Interest over the region's cells. A class without a
// Region sees every rank.
func (pl *Plan) sees(cl Class, owner *lattice.Box, r int) bool {
	if cl.Region == nil {
		return true
	}
	lo, hi := cl.Region(owner)
	x, y, z := pl.grid.RankCoord(r)
	for d, slot := range [3]int{x, y, z} {
		found := false
		for v := lo[d] - pl.ghost; v < hi[d]+pl.ghost && !found; v++ {
			found = pl.grid.Slot(d, int32(v)) == slot
		}
		if !found {
			return false
		}
	}
	return true
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

// interestedRanks returns the ranks other than this one whose owned-or-ghost
// region contains the wrapped cell w: the owners of all cells within the
// ghost distance of w, found by probing the 27 cube corners (rank regions
// are axis-aligned boxes at least one ghost width wide, so corners suffice).
func (pl *Plan) interestedRanks(w lattice.Coord) []int {
	g := int32(pl.ghost)
	var out []int
	for dz := int32(-1); dz <= 1; dz++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				r := pl.grid.RankOfCell(w.X+dx*g, w.Y+dy*g, w.Z+dz*g)
				if r != pl.rank && !slices.Contains(out, r) {
					out = append(out, r)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// Interest returns the packers of the peers that see the cell of local site
// local, whose wrapped coordinate is w: where a record about that cell must
// be routed. Like the lists, it is a pure function of the grid; the answer
// is computed on a cell's first use and remembered as an index into the
// short table of distinct lists (a few per axis, so far fewer than the
// uint16 holds).
func (pl *Plan) Interest(local int, w lattice.Coord) []*Packer {
	cell := local >> 1
	if id := pl.interestID[cell]; id != 0 {
		return pl.interests[id-1]
	}
	var peers []*Packer
	for _, r := range pl.interestedRanks(w) {
		if p, ok := pl.Sparse(r); ok {
			peers = append(peers, p)
		}
	}
	id := slices.IndexFunc(pl.interests, func(l []*Packer) bool { return slices.Equal(l, peers) })
	if id < 0 {
		id = len(pl.interests)
		pl.interests = append(pl.interests, peers)
	}
	pl.interestID[cell] = uint16(id + 1)
	return pl.interests[id]
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
