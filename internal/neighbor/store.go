// Package neighbor implements the paper's central data structure — the
// lattice neighbor list (§2.1.1) — together with the two mainstream
// structures it is evaluated against: the Verlet neighbor list (LAMMPS) and
// the linked cell (IMD, ls1-MarDyn, CoMD).
//
// The lattice neighbor list stores atom information in a dense array in
// lattice-site order, so the neighbors of any site are found by adding
// static per-basis index offsets — no per-atom neighbor storage and no
// per-step cell rebuild. Atoms that leave their lattice site ("run-away"
// atoms, produced by cascade collisions) are moved to a side pool and linked
// from their nearest lattice site in singly linked lists; vacancies keep the
// array entry with a negative ID (Figures 2 and 3 of the paper).
package neighbor

import (
	"fmt"
	"math"
	"unsafe"

	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// Special ID values. Real atoms have positive IDs.
const (
	// VacancyID marks an array entry whose atom has run away; the entry
	// keeps recording the (ideal) coordinates of the vacancy.
	VacancyID int64 = -1
)

// NoRunaway is the nil reference of the run-away pool.
const NoRunaway int32 = -1

// Runaway is an atom that broke away from its lattice site. Pool entries are
// chained from the Head of the nearest lattice site; the chain makes
// neighbor search between run-away atoms O(N) instead of the O(N²) of the
// earlier flat-array design (paper §2.1.1, final paragraph).
type Runaway struct {
	ID   int64
	Type units.Element
	R    vec.V
	Vel  vec.V
	F    vec.V
	Rho  float64
	// DFdRho and EmbedE cache F'(ρ) and F(ρ) between the density and force
	// passes (filled by ForceField.FillEmbeddingRange from Rho; never
	// exchanged — each rank recomputes them locally, ghosts included).
	DFdRho float64
	EmbedE float64
	Next   int32 // next pool index in the same site's chain, or NoRunaway
}

// Store is the lattice neighbor list for one subdomain (owned cells plus
// ghost halo). All per-site arrays are indexed by Box.LocalIndex.
//
// Concurrency contract for the force passes: disjoint owned-cell ranges may
// be swept concurrently because (a) the static geometry (Deltas, Head
// chains, pool links, ID/Type, the near-chain index) is never modified
// during a pass, (b) a sweep writes only the Rho (density pass) or F (force
// pass) of atoms anchored in its own cells, and (c) what it reads of other
// cells — R always, Rho only in the force pass — is not written by any
// concurrent sweep of that pass.
// Everything that restructures the store (AddRunaway, MakeVacancy,
// FillSite, ghost unpacking, ...) must happen between passes, on one
// goroutine.
type Store struct {
	Box *lattice.Box
	Tab *lattice.OffsetTable

	// Per-site state, struct-of-arrays for cache-friendly sweeps.
	ID   []int64
	Type []units.Element
	R    []vec.V
	Vel  []vec.V
	F    []vec.V
	Rho  []float64
	Head []int32 // head of the run-away chain anchored at this site
	// DFdRho and EmbedE hold the embedding derivative F'(ρ) and energy F(ρ)
	// of every local atom (ghosts included), precomputed once per force
	// computation after the density exchange so the pair loop indexes an
	// array instead of re-evaluating the embedding table O(pairs) times.
	// Derived state: filled by the embedding pass, never snapshotted or
	// exchanged.
	DFdRho []float64
	EmbedE []float64

	// near counts, per local site c, the chain-bearing sites among c and
	// c's wide-offset neighbors inside local storage: a site whose count is
	// zero has no run-away partner beyond the tight prefix, so the reduce
	// passes skip its wide walk. At most 1 + len(offsets) ≤ 255 sites count.
	// Derived state: kept by AddRunaway/RemoveRunaway/ClearRunaways on a
	// chain's empty ↔ non-empty transitions, never snapshotted or
	// exchanged.
	near []uint8

	pool []Runaway
	free int32 // free-list head within pool, chained via Next

	deltas [2][]int32 // per central basis: local-index delta per offset
}

// NewStore allocates the store for box and fills every local site (owned and
// ghost) with a perfect-lattice atom of the given species. Atom IDs are the
// wrapped global site index plus one, so they are globally consistent across
// ranks, including in ghost regions.
func NewStore(box *lattice.Box, tab *lattice.OffsetTable, species units.Element) *Store {
	if box.Ghost < tab.MaxCellReach() {
		panic(fmt.Sprintf("neighbor: ghost width %d cells < table reach %d",
			box.Ghost, tab.MaxCellReach()))
	}
	for b := int8(0); b <= 1; b++ {
		if len(tab.PerBase[b]) >= math.MaxUint8 {
			panic(fmt.Sprintf("neighbor: %d offsets overflow the uint8 near-chain count", len(tab.PerBase[b])))
		}
		for _, o := range tab.PerBase[b] {
			if !hasReverse(tab, b, o) {
				panic("neighbor: offset table is not symmetric; the near-chain index needs every reverse offset")
			}
		}
	}
	n := box.NumLocalSites()
	s := &Store{
		Box:    box,
		Tab:    tab,
		ID:     make([]int64, n),
		Type:   make([]units.Element, n),
		R:      make([]vec.V, n),
		Vel:    make([]vec.V, n),
		F:      make([]vec.V, n),
		Rho:    make([]float64, n),
		Head:   make([]int32, n),
		DFdRho: make([]float64, n),
		EmbedE: make([]float64, n),
		near:   make([]uint8, n),
		free:   NoRunaway,
	}
	l := box.L
	for local := 0; local < n; local++ {
		c := box.GlobalCoord(local)
		s.ID[local] = int64(l.Index(l.Wrap(c))) + 1
		s.Type[local] = species
		s.R[local] = l.Position(c)
		s.Head[local] = NoRunaway
	}
	s.buildDeltas()
	return s
}

// buildDeltas precomputes, for each central basis, the local-index delta of
// every offset in the table. This is the "indexes of the neighbor atoms for
// each central atom can be calculated in the same way" property: a single
// integer addition finds a neighbor.
func (s *Store) buildDeltas() {
	ex, ey := s.Box.Ext(0), s.Box.Ext(1)
	for b := int8(0); b <= 1; b++ {
		offs := s.Tab.PerBase[b]
		d := make([]int32, len(offs))
		for i, o := range offs {
			d[i] = int32(((int(o.DZ)*ey+int(o.DY))*ex+int(o.DX))*2 + int(o.DB) - int(b))
		}
		s.deltas[b] = d
	}
}

// hasReverse reports whether the table holds o's reverse: from basis o.DB
// back to basis b across the negated cell delta.
func hasReverse(tab *lattice.OffsetTable, b int8, o lattice.Offset) bool {
	for _, q := range tab.PerBase[o.DB] {
		if q.DX == -o.DX && q.DY == -o.DY && q.DZ == -o.DZ && q.DB == b {
			return true
		}
	}
	return false
}

// Deltas returns the static neighbor index deltas for a central site of the
// given basis; parallel to Tab.PerBase[basis].
func (s *Store) Deltas(basis int8) []int32 { return s.deltas[basis] }

// ChainNear reports whether a run-away chain is anchored at the site or at
// a site its wide offsets reach; when false, nothing beyond the tight
// prefix can interact with an atom anchored there.
func (s *Store) ChainNear(local int) bool { return s.near[local] != 0 }

// pushNear adds step to the near count of chain site a and of every site
// in local storage that a's wide offsets reach. The table is symmetric, so
// those are exactly the sites whose own wide walk reaches a. step is 1, or
// math.MaxUint8 to subtract one. Bounds are checked on cell coordinates: a
// delta that leaves local storage in one dimension can still land on a
// valid local index.
func (s *Store) pushNear(a int, step uint8) {
	s.near[a] += step
	ex, ey, ez := s.Box.Ext(0), s.Box.Ext(1), s.Box.Ext(2)
	b, cell := a&1, a>>1
	x, y, z := cell%ex, cell/ex%ey, cell/(ex*ey)
	deltas := s.deltas[b]
	for k, o := range s.Tab.PerBase[b] {
		nx, ny, nz := x+int(o.DX), y+int(o.DY), z+int(o.DZ)
		if nx >= 0 && nx < ex && ny >= 0 && ny < ey && nz >= 0 && nz < ez {
			s.near[a+int(deltas[k])] += step
		}
	}
}

// IsVacancy reports whether the site holds a vacancy.
func (s *Store) IsVacancy(local int) bool { return s.ID[local] < 0 }

// MakeVacancy converts the site into a vacancy, returning the displaced
// atom's prior state. The entry keeps the ideal lattice position so the
// vacancy coordinates remain recorded.
func (s *Store) MakeVacancy(local int) Runaway {
	prev := Runaway{
		ID:   s.ID[local],
		Type: s.Type[local],
		R:    s.R[local],
		Vel:  s.Vel[local],
		F:    s.F[local],
		Rho:  s.Rho[local],
	}
	s.ID[local] = VacancyID
	s.Vel[local] = vec.Zero
	s.F[local] = vec.Zero
	s.Rho[local] = 0
	s.R[local] = s.Box.L.Position(s.Box.GlobalCoord(local))
	return prev
}

// FillSite places atom a onto the site (which is typically a vacancy being
// refilled by a run-away atom, overwriting the vacancy record as described
// for Figure 3).
func (s *Store) FillSite(local int, a Runaway) {
	s.ID[local] = a.ID
	s.Type[local] = a.Type
	s.R[local] = a.R
	s.Vel[local] = a.Vel
	s.F[local] = a.F
	s.Rho[local] = a.Rho
}

// AddRunaway links atom a into the chain of the given anchor site and
// returns its pool reference.
func (s *Store) AddRunaway(anchor int, a Runaway) int32 {
	if s.Head[anchor] == NoRunaway {
		s.pushNear(anchor, 1)
	}
	return s.link(anchor, a)
}

// link puts atom a at the head of the site's chain, in the free list's
// first entry or a new one, leaving the near-chain index to the caller.
func (s *Store) link(anchor int, a Runaway) int32 {
	var ref int32
	if s.free != NoRunaway {
		ref = s.free
		s.free = s.pool[ref].Next
		s.pool[ref] = a
	} else {
		ref = int32(len(s.pool))
		s.pool = append(s.pool, a)
	}
	s.pool[ref].Next = s.Head[anchor]
	s.Head[anchor] = ref
	return ref
}

// Runaway returns a pointer to the pool entry; valid until the entry is
// removed.
func (s *Store) Runaway(ref int32) *Runaway { return &s.pool[ref] }

// RemoveRunaway unlinks the entry ref from the chain anchored at anchor and
// returns its value. It panics if ref is not in that chain — run-away
// bookkeeping errors must not be silent.
func (s *Store) RemoveRunaway(anchor int, ref int32) Runaway {
	p := &s.Head[anchor]
	for *p != NoRunaway {
		if *p == ref {
			a := s.pool[ref]
			*p = a.Next
			s.pool[ref].Next = s.free
			s.pool[ref].ID = 0
			s.free = ref
			a.Next = NoRunaway
			if s.Head[anchor] == NoRunaway {
				s.pushNear(anchor, math.MaxUint8)
			}
			return a
		}
		p = &s.pool[*p].Next
	}
	panic(fmt.Sprintf("neighbor: run-away ref %d not anchored at site %d", ref, anchor))
}

// ClearRunaways drops every chain anchored at the site (used when restoring
// a site from a rank file).
func (s *Store) ClearRunaways(anchor int) { s.ReplaceRunaways(anchor, nil) }

// ReplaceRunaways makes the site's chain hold exactly atoms, linked as
// successive AddRunaway calls on an emptied chain would link them — the old
// entries go to the free list head first, the last atom ends at the head —
// which is what rebuilding a ghost site from received data needs. Only a
// chain that goes empty ↔ non-empty updates the near-chain index, so a
// chain that stays non-empty costs no walk of the site's wide offsets.
func (s *Store) ReplaceRunaways(anchor int, atoms []Runaway) {
	had := s.Head[anchor] != NoRunaway
	for ref := s.Head[anchor]; ref != NoRunaway; {
		next := s.pool[ref].Next
		s.pool[ref].Next = s.free
		s.pool[ref].ID = 0
		s.free = ref
		ref = next
	}
	s.Head[anchor] = NoRunaway
	for _, a := range atoms {
		s.link(anchor, a)
	}
	switch has := len(atoms) > 0; {
	case has && !had:
		s.pushNear(anchor, 1)
	case had && !has:
		s.pushNear(anchor, math.MaxUint8)
	}
}

// EachRunaway calls fn for every run-away atom anchored at the site. fn may
// mutate the entry through the pointer but must not add or remove entries.
func (s *Store) EachRunaway(anchor int, fn func(ref int32, a *Runaway)) {
	for ref := s.Head[anchor]; ref != NoRunaway; ref = s.pool[ref].Next {
		fn(ref, &s.pool[ref])
	}
}

// CountVacancies returns the number of vacancy entries among owned sites.
func (s *Store) CountVacancies() int {
	n := 0
	s.Box.EachOwned(func(_ lattice.Coord, local int) {
		if s.IsVacancy(local) {
			n++
		}
	})
	return n
}

// MemoryBytes returns the approximate heap footprint of the structure: the
// quantity the paper's Figure 11 capacity claim is about. Per site: ID(8) +
// Type(1) + R/Vel/F(3×24) + Rho(8) + Head(4) + DFdRho/EmbedE(2×8) + near(1);
// plus the run-away pool.
func (s *Store) MemoryBytes() int {
	perSite := 8 + 1 + 3*24 + 8 + 4 + 2*8 + 1
	return perSite*len(s.ID) + int(unsafe.Sizeof(Runaway{}))*cap(s.pool) +
		4*(len(s.deltas[0])+len(s.deltas[1]))
}
