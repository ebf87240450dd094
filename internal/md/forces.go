package md

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// OpStats counts the work performed by a force-kernel pass; the Sunway CPE
// kernel translates these counts into DMA and compute charges.
//
// Lookups counts true interpolation-table evaluations. The reference kernel
// issues, per accepted pair side, one evaluation in the density pass and
// four in the force pass (pair, both density directions, and the neighbor's
// embedding derivative), plus one embedding evaluation per central atom.
// The optimized kernel counts one embedding evaluation per local atom in
// the fill pass, the fused evaluations of each unique resident pair in the
// gather pass (two tables for a same-species pair, three otherwise), and
// the inline fused evaluations of run-away-involved pair sides in the
// reduce pass.
//
// Pairs counts accepted pair evaluations: per side in the reference and
// reduce passes (the historical meaning), and per unique pair in the gather
// pass, where each pair is computed once. The pair round accepts nothing —
// the gather did — and counts the force vectors it forms in Vectors.
type OpStats struct {
	Atoms   int64 // central atoms processed
	Pairs   int64 // interacting pairs accepted (within the true cutoff)
	Vectors int64 // Newton-pair force vectors formed (the pair round)
	Visits  int64 // candidate sites visited (static-offset walks)
	Lookups int64 // interpolation-table evaluations issued
	// MinorityLookups counts the lookups that involve a non-dominant
	// species and therefore hit a table that is not LDM-resident under the
	// paper's alloy strategy (§2.1.2).
	MinorityLookups int64
	// Coincident counts accepted-range encounters of two *distinct* atoms
	// at bitwise-identical positions (r² == 0). Such pairs have no defined
	// force direction and are skipped, which silently zeroes their mutual
	// interaction — so they are counted loudly here and surfaced as a
	// sticky error by the Rank (sim.go) instead of corrupting the dynamics
	// in silence.
	Coincident int64
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Atoms += other.Atoms
	s.Pairs += other.Pairs
	s.Vectors += other.Vectors
	s.Visits += other.Visits
	s.Lookups += other.Lookups
	s.MinorityLookups += other.MinorityLookups
	s.Coincident += other.Coincident
}

// Pair-stream slot layout of the optimized kernel. A slot is an
// eam.PairDensityRecords pair record: the density gather's acceptance walk
// parks r at slotPhi, and an alloy's species at slotFab and slotDfab, and
// the block evaluator overwrites them with the fused evaluation results;
// values are directional with respect to the *streaming* side a: f_ab is
// the density a's atom receives from b's, f_ba the reverse. The density
// reduce reads the densities. After the fill, the pair round reads the three
// derivatives and writes the pair's force on a, v = −(scalar/r)·d, over
// floats 1–3, which no later round reads in their old meaning; the force
// reduce reads slot[:slotHead], φ and v.
//
// A single-species potential has f_ba = f_ab and f′_ba = f′_ab bitwise (one
// table, eam.PairDensity), so its slot is the first four floats; an alloy
// potential's slot appends the reverse direction.
const (
	slotPhi  = eam.RecPhi    // φ_ab(r)
	slotFab  = eam.RecFab    // f_ab(r); then v.X
	slotDfab = eam.RecDFab   // df_ab/dr; then v.Y
	slotDphi = eam.RecDPhi   // dφ/dr; then v.Z
	slotHead = eam.RecFloats // floats of the slot the force reduce reads

	slotFbaAlloy  = eam.RecFba  // f_ba(r)
	slotDfbaAlloy = eam.RecDFba // df_ba/dr
)

// A reverse-index location names a streamed slot: the chunk whose buffer
// holds it in the top bits, the slot's float offset in that buffer below
// locShift. NewForceField refuses a geometry whose chunks could stream
// more floats than that names: at the default skin, a rank of about 4·10⁷
// sites for iron and 2.7·10⁷ for an alloy, which would hold over 14 GB.
const (
	locShift  = 26
	locFloats = 1<<locShift - 1
)

// The chunk index must fit above locShift.
var _ [1<<(32-locShift) - ForceChunks]struct{}

// ForceField evaluates EAM densities and forces over a lattice neighbor
// list. The "tight" prefix of the (distance-sorted) offset table covers all
// possible lattice-resident pairs (cutoff + skin); the full "wide" table is
// walked only for run-away chains, which is the paper's "extra overhead can
// be ignored" property.
//
// The kernel evaluates each resident–resident pair once — a gather round
// accepts every pair whose canonical owner (or ghost partner) anchors it
// and then evaluates the fused pair/density tables for the accepted pairs
// in blocks (eam.PairDensityRecords), writing the pair stream; after a
// barrier, the density reduce accumulates both sides from the stream in the
// reference enumeration order, through a reverse index it rebuilds only
// where a row it indexes changed. The force pass forms each pair's Newton-symmetric
// force vector once, in a pair round, and its reduce only sums. The
// reference kernel, which evaluates every pair from both sides, is the
// test-side oracle this one is bit-identical to (reference_test.go,
// DESIGN.md §13).
type ForceField struct {
	Pot    *eam.Potential
	Cutoff float64 // true interaction cutoff (Å)
	Tight  [2]int  // per-basis prefix length for lattice-resident pairs

	// rounds is the round table ForcePool executes (rounds.go).
	// Per instance, so an in-package test can run one ForceField under the
	// oracle's table without touching any other.
	rounds *kernelRounds

	// Kernel statics, built once per store geometry.
	ownedIdx []int32    // local site -> owned-order index; -1 off-rank
	revIdx   [2][]int32 // per basis, tight slot -> partner-side reverse slot
	// lowerMask marks, per owned site (maskWords words), the tight slots
	// whose partner site is owned with a smaller index: the partner owns
	// those pairs, so the gather skips them and only the reverse index
	// looks at them.
	lowerMask []uint64
	// deps[c] has bit d set when a site of chunk d is a lower partner of a
	// site of chunk c: the chunks whose rows chunk c's reverse index reads.
	deps [ForceChunks]uint64

	// Slot geometry: floats per slot (slotHead, or 6 for an alloy) and
	// where the reverse-direction density and its derivative sit.
	slotFloats        int
	slotFba, slotDfba int

	// The pair stream: only the pairs that exist are stored. stream[c] holds
	// the slots chunk c's sites own, slotFloats each, in enumeration order
	// (site by site, tight slot by tight slot). Each owned site has one row
	// record of 1+maskWords words in rows: the row's location — its chunk
	// above locShift, the float offset of its first slot below, the format
	// of a reverse-index location — then its mask words, one slot per set
	// bit in bit order. A record's chunk is fixed at construction. A gather
	// chunk writes only its own buffer and its own sites' records.
	stream    [ForceChunks][]float64
	rows      []uint64
	maskWords int // mask words per owned site: ceil(max tight prefix / 64)
	// rowGen[c] counts the gathers that changed a row record of chunk c
	// (starting at 1: rows never gathered count as changed).
	rowGen [ForceChunks]uint64

	// The reverse index: which tight slots a site's partners stream
	// (revMask, maskWords words per site) and where — revLoc[c] lists, for
	// chunk c's sites in order, one location per set bit, a site's entries
	// starting at revStart[oi]. It is derived state of the rows: the density
	// reduce rebuilds chunk c's part, in its own round, only when revSeen[c]
	// — the sum of rowGen over deps[c] at the last rebuild — no longer
	// matches, or revLoc[c] is shorter than the revUsed[c] entries it holds.
	// The force reduce reads it.
	revMask  []uint64
	revStart []int32
	revLoc   [ForceChunks][]uint32
	revSeen  [ForceChunks]uint64
	revUsed  [ForceChunks]int32
	rebuilds *telemetry.Counter // md/reverse-index/rebuilds: chunks rebuilt

	// coincident[c] is what the gather counted over chunk c's sites; the
	// pair round reports it as the force pass's count (positions do not
	// move between the passes).
	coincident [ForceChunks]int64
}

// streamSlack is the headroom of a chunk's buffers over their perfect-crystal
// sizes, in 1/streamSlack of that size: thermal motion moves few pairs
// across the cutoff, and a cascade core that needs more grows its chunk.
const streamSlack = 8

// NewForceField computes the tight prefixes for the store's offset table
// and builds the optimized kernel's static indexes: the owned-order map,
// the reverse-offset table (the slot at which a pair's canonical owner
// streamed it, seen from the partner), each site's row record with its
// chunk, each chunk's reverse-index dependencies, and the pair stream's and
// reverse index's per-chunk buffers, sized from the geometry. It fails when
// a chunk whose every site held a slot at every tight offset would outgrow
// what a reverse-index location can name.
func NewForceField(s *neighbor.Store, pot *eam.Potential, skin float64) (*ForceField, error) {
	ff := &ForceField{Pot: pot, Cutoff: pot.Cutoff, rounds: &productionRounds,
		slotFloats: pot.RecordFloats(), slotFba: slotFab, slotDfba: slotDfab}
	if ff.slotFloats == eam.RecFloatsAlloy {
		ff.slotFba, ff.slotDfba = slotFbaAlloy, slotDfbaAlloy
	}
	tightR := pot.Cutoff + skin
	for b := 0; b <= 1; b++ {
		n := 0
		for _, o := range s.Tab.PerBase[b] {
			if o.R <= tightR {
				n++
			} else {
				break // offsets are distance-sorted
			}
		}
		ff.Tight[b] = n
	}
	ff.maskWords = (max(ff.Tight[0], ff.Tight[1]) + 63) / 64

	ff.ownedIdx = make([]int32, s.Box.NumLocalSites())
	for i := range ff.ownedIdx {
		ff.ownedIdx[i] = -1
	}
	next := int32(0)
	s.Box.EachOwned(func(_ lattice.Coord, local int) {
		ff.ownedIdx[local] = next
		next++
	})

	// Reverse offsets: the symmetric range enumeration guarantees that for
	// every tight offset b→(DX,DY,DZ,DB) the offset DB→(-DX,-DY,-DZ,b)
	// exists at the same distance, hence inside the partner's tight prefix.
	for b := int8(0); b <= 1; b++ {
		offs := s.Tab.PerBase[b]
		rev := make([]int32, ff.Tight[b])
		for k := 0; k < ff.Tight[b]; k++ {
			o := offs[k]
			back := s.Tab.PerBase[o.DB]
			found := int32(-1)
			for k2 := 0; k2 < ff.Tight[o.DB]; k2++ {
				q := back[k2]
				if q.DX == -o.DX && q.DY == -o.DY && q.DZ == -o.DZ && q.DB == b {
					found = int32(k2)
					break
				}
			}
			if found < 0 {
				//mdvet:ignore errpanic construction-time invariant of the generated offset table, not reachable from job input
				panic("md: offset table is not symmetric; reverse offset missing")
			}
			rev[k] = found
		}
		ff.revIdx[b] = rev
	}

	ff.rows = make([]uint64, int(next)*(1+ff.maskWords))
	ff.revStart = make([]int32, next)
	ff.revMask = make([]uint64, int(next)*ff.maskWords)
	ff.lowerMask = make([]uint64, int(next)*ff.maskWords)
	// Each chunk's buffers hold what its sites hold in the perfect crystal
	// — the in-cutoff tight slots whose partner does not own the pair
	// (stream), and those whose partner does (reverse index) — plus slack.
	for c := range ff.stream {
		lo, hi := s.Box.SpanCells(ForceChunks, c)
		if most := 2 * (hi - lo) * max(ff.Tight[0], ff.Tight[1]) * ff.slotFloats; most > locFloats {
			return nil, fmt.Errorf("md: a force chunk of %d sites could stream %d pair-stream floats, more than the %d a location names; use more ranks",
				2*(hi-lo), most, locFloats)
		}
		ff.rowGen[c] = 1
		slots, partners := 0, 0
		s.Box.EachOwnedCellRange(lo, hi, func(cd lattice.Coord, local int) {
			oi := ff.ownedIdx[local]
			ff.row(int(oi))[0] = uint64(c) << locShift
			deltas := s.Deltas(cd.B)
			for k, o := range s.Tab.PerBase[cd.B][:ff.Tight[cd.B]] {
				oj := ff.ownedIdx[local+int(deltas[k])]
				lower := oj >= 0 && oj < oi
				if lower {
					ff.lowerMask[int(oi)*ff.maskWords+k>>6] |= 1 << uint(k&63)
					ff.deps[c] |= 1 << uint(ff.chunkOf(int(oj)))
				}
				switch {
				case o.R >= pot.Cutoff: // no pair in the perfect crystal
				case lower:
					partners++
				default:
					slots++
				}
			}
		})
		ff.stream[c] = make([]float64, (slots+slots/streamSlack)*ff.slotFloats)
		ff.revLoc[c] = make([]uint32, partners+partners/streamSlack)
	}
	return ff, nil
}

// growStream doubles chunk c's buffer, keeping its first n floats. Only a
// gather whose chunk outgrew the perfect-crystal sizing (a cascade core)
// gets here, so steady state allocates nothing.
func (ff *ForceField) growStream(c, n int) []float64 {
	grown := make([]float64, max(2*len(ff.stream[c]), 64*ff.slotFloats))
	copy(grown, ff.stream[c][:n])
	ff.stream[c] = grown
	return grown
}

// growRevLoc is growStream for chunk c's reverse-index list.
func (ff *ForceField) growRevLoc(c, n int) []uint32 {
	grown := make([]uint32, max(2*len(ff.revLoc[c]), 64))
	copy(grown, ff.revLoc[c][:n])
	ff.revLoc[c] = grown
	return grown
}

// bitsSet returns the number of set bits of one site's mask words.
func bitsSet(mask []uint64) int {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// row returns owned site o's row record: its location, then its mask words.
func (ff *ForceField) row(o int) []uint64 {
	w := 1 + ff.maskWords
	return ff.rows[o*w : (o+1)*w : (o+1)*w]
}

// chunkOf returns the force chunk whose range holds owned site o.
func (ff *ForceField) chunkOf(o int) int {
	return int(ff.rows[o*(1+ff.maskWords)] >> locShift)
}

// holds reports whether owned site o streamed a slot for its tight slot k
// (the gather accepted the pair).
func (ff *ForceField) holds(o, k int32) bool {
	return ff.rows[int(o)*(1+ff.maskWords)+1+int(k>>6)]>>uint(k&63)&1 != 0
}

// partnerLoc returns the location of the slot owned site o streamed for
// its tight slot k, which o holds.
func (ff *ForceField) partnerLoc(o, k int32) uint32 {
	rec := ff.rows[int(o)*(1+ff.maskWords):][:k>>6+2]                  // the location and the words up to k's
	at := bitsSet(rec[1:]) - bits.OnesCount64(rec[1+k>>6]>>uint(k&63)) // the slots before k's
	return uint32(rec[0]) + uint32(at*ff.slotFloats)
}

// slotAt returns the slot at a reverse-index location.
func (ff *ForceField) slotAt(loc uint32) []float64 {
	base := int(loc & locFloats)
	return ff.stream[loc>>locShift][base : base+ff.slotFloats : base+ff.slotFloats]
}

// MemoryBytes returns the heap footprint of the force field: the struct
// with its per-chunk state, the kernel statics, the row records, the pair
// stream and the reverse index at their current capacities.
func (ff *ForceField) MemoryBytes() int {
	n := int(unsafe.Sizeof(*ff)) +
		4*(len(ff.ownedIdx)+len(ff.revIdx[0])+len(ff.revIdx[1])+len(ff.revStart)) +
		8*(len(ff.rows)+len(ff.revMask)+len(ff.lowerMask))
	for c := range ff.stream {
		n += 8*cap(ff.stream[c]) + 4*cap(ff.revLoc[c])
	}
	return n
}

// pairScalar combines the pair-potential derivative with the two embedding
// terms in a canonical order, so both sides of a pair sum the three terms
// identically and obtain a bitwise-equal force scalar: the side whose
// (species, density) key is smaller contributes its term first; if the keys
// are equal the two terms are themselves bitwise equal and the order cannot
// matter. The central's term is dFc·dfc and the partner's dFp·dfp, each
// rounded on its own: no fused multiply-add folds one into the sum. The
// order is chosen without a branch — in a thermal crystal prho < crho is a
// coin flip on every pair: the partner goes first exactly when
// 2·ptyp − 2·ctyp − [prho < crho] is negative, so that difference's sign
// bit is the 0/1 swap, and its negation masks the bits in which the two
// terms differ. (The body stays within the compiler's inlining budget.)
func pairScalar(dphi, dFc, dfc, dFp, dfp float64, ctyp, ptyp units.Element, crho, prho float64) float64 {
	tc, tp := math.Float64bits(float64(dFc*dfc)), math.Float64bits(float64(dFp*dfp))
	diff := (tc ^ tp) & -((uint64(ptyp)<<1 - uint64(ctyp)<<1 - b2u(prho < crho)) >> 63)
	return dphi + math.Float64frombits(tc^diff) + math.Float64frombits(tp^diff)
}

// b2u is 1 for true and 0 for false; the compiler emits a flag set, not a
// branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// FillEmbeddingRange precomputes F(ρ) and F'(ρ) for every local atom —
// resident or run-away, ghosts included — in the local-site range [lo, hi):
// one embedding evaluation per atom instead of the reference kernel's one
// per accepted pair. It runs after the density exchange; DFdRho/EmbedE are
// derived state and are never exchanged — each rank recomputes its ghosts'
// values from the exchanged densities. The resident atoms go through the
// block evaluator, eam.BlockLen sites at a time (a vacancy site keeps its
// old values); run-away chains are evaluated per call. Disjoint site ranges
// write disjoint state (run-away chains are anchored at exactly one site).
func (ff *ForceField) FillEmbeddingRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	var site [eam.BlockLen]int32
	var typ [eam.BlockLen]units.Element
	var rho, v, dv [eam.BlockLen]float64
	for w := lo; w < hi; w += eam.BlockLen {
		end := min(w+eam.BlockLen, hi)
		m := 0
		for i := w; i < end; i++ {
			if s.IsVacancy(i) {
				continue
			}
			site[m], typ[m], rho[m] = int32(i), s.Type[i], s.Rho[i]
			m++
			if s.Type[i] != units.Fe {
				st.MinorityLookups++
			}
		}
		st.Lookups += int64(m)
		ff.Pot.EmbedBlock(typ[:m], rho[:m], v[:m], dv[:m])
		for k, i := range site[:m] {
			s.EmbedE[i] = v[k]
			s.DFdRho[i] = dv[k]
		}
		for i := w; i < end; i++ {
			for ref := s.Head[i]; ref != neighbor.NoRunaway; {
				a := s.Runaway(ref)
				a.EmbedE, a.DFdRho = ff.Pot.Embed(a.Type, a.Rho)
				st.Lookups++
				if a.Type != units.Fe {
					st.MinorityLookups++
				}
				ref = a.Next
			}
		}
	}
	return st
}

// DensityGatherRange is the first half of the optimized density pass over
// owned cells [lo, hi): every resident–resident pair anchored here — owned
// pairs whose canonical owner (the side with the smaller owned index) is in
// the range, plus every pair with a ghost partner — is evaluated exactly
// once through the fused pair/density lookup, and its results are appended
// to the pair stream for the later rounds. Per chunk, an acceptance walk
// parks each accepted pair's r in its slot (an alloy slot also its two
// species), and then eam.PairDensityRecords evaluates the chunk's slots in
// place, in blocks: the lookups' divisions start from loaded r values
// instead of waiting on the walk's branches, loads and square root, and a
// block locates all its entries before it evaluates any, so their
// divisions overlap.
// Acceptance is decided here, once: a site's mask bits are the pairs it
// holds, and the reduces trust them, so the resident–resident coincidences
// they would have met are counted here, for both sides when both are owned
// centrals, and recorded per chunk for the pair round. A chunk whose row
// records come out different bumps its rowGen, which is what tells the
// density reduce to rebuild the reverse index over them. [lo, hi) spans
// whole chunks, as ForcePool's rounds do; the range writes only those
// chunks' buffers and records. A barrier must separate it from any reduce
// pass.
func (ff *ForceField) DensityGatherRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	cut2 := ff.Cutoff * ff.Cutoff
	words := ff.maskWords
	sf := ff.slotFloats
	for lo < hi {
		// Owned indexes run cell by cell, basis innermost: cell lo's sites
		// are 2*lo and 2*lo+1.
		c := ff.chunkOf(2 * lo)
		_, end := s.Box.SpanCells(ForceChunks, c)
		end = min(end, hi)
		buf := ff.stream[c]
		tag := uint64(c) << locShift
		n := 0        // floats of buf in use
		var met int64 // coincidences over the chunk's sites
		var changed uint64
		s.Box.EachOwnedCellRange(lo, end, func(cd lattice.Coord, local int) {
			oi := int(ff.ownedIdx[local])
			rec := ff.row(oi)
			changed |= rec[0] ^ (tag | uint64(n))
			rec[0] = tag | uint64(n)
			mask := rec[1:]
			if s.IsVacancy(local) {
				for _, w := range mask {
					changed |= w
				}
				clear(mask)
				return
			}
			st.Atoms++
			pos := s.R[local]
			typ := s.Type[local]
			deltas := s.Deltas(cd.B)
			tight := ff.Tight[cd.B]
			st.Visits += int64(tight) + 1
			// The pairs whose partner owns them are left to the partner.
			for w, lower := range ff.lowerMask[oi*words : (oi+1)*words] {
				var held uint64
				for m := ^lower; m != 0; m &= m - 1 {
					k := w<<6 | bits.TrailingZeros64(m)
					if k >= tight {
						break
					}
					j := local + int(deltas[k])
					if s.IsVacancy(j) {
						continue
					}
					r2 := pos.Sub(s.R[j]).Norm2()
					if r2 >= cut2 {
						continue
					}
					if r2 == 0 {
						met++
						if ff.ownedIdx[j] >= 0 {
							met++ // the partner's side of the encounter
						}
						continue
					}
					tj := s.Type[j]
					if n+sf > len(buf) {
						buf = ff.growStream(c, n)
					}
					// Parked for the block evaluator, which overwrites it.
					slot := buf[n : n+sf : n+sf]
					slot[slotPhi] = math.Sqrt(r2)
					if sf > slotHead {
						slot[slotFab] = float64(typ)
						slot[slotDfab] = float64(tj)
					}
					n += sf
					held |= m & -m
					st.Pairs++
					evals := eam.PairDensityEvals(typ, tj)
					st.Lookups += evals
					if typ != units.Fe || tj != units.Fe {
						st.MinorityLookups += evals
					}
				}
				changed |= mask[w] ^ held
				mask[w] = held
			}
		})
		ff.Pot.PairDensityRecords(buf[:n])
		if changed != 0 {
			ff.rowGen[c]++
		}
		ff.coincident[c] = met
		st.Coincident += met
		lo = end
	}
	return st
}

// depGen returns the sum of rowGen over the chunks chunk c's reverse index
// reads. The counters only grow, so the sum moves whenever one of them does.
func (ff *ForceField) depGen(c int) uint64 {
	var g uint64
	for d := ff.deps[c]; d != 0; d &= d - 1 {
		g += ff.rowGen[bits.TrailingZeros64(d)]
	}
	return g
}

// indexPartners rebuilds chunk c's part of the reverse index over its owned
// cells [lo, end): for each tight slot whose lower partner holds the pair,
// the site's revMask bit and, in the chunk's list, the location of the
// partner's slot. It reads only row records, which the gather round wrote.
func (ff *ForceField) indexPartners(s *neighbor.Store, c, lo, end int) {
	words := ff.maskWords
	locs := ff.revLoc[c]
	nl := 0 // entries of locs in use
	s.Box.EachOwnedCellRange(lo, end, func(cd lattice.Coord, local int) {
		oi := int(ff.ownedIdx[local])
		ff.revStart[oi] = int32(nl)
		rmask := ff.revMask[oi*words : (oi+1)*words]
		clear(rmask)
		if s.IsVacancy(local) {
			return
		}
		deltas := s.Deltas(cd.B)
		rev := ff.revIdx[cd.B]
		for w, lower := range ff.lowerMask[oi*words : (oi+1)*words] {
			for m := lower; m != 0; m &= m - 1 {
				k := w<<6 | bits.TrailingZeros64(m)
				// We are the partner's "b" side.
				if oj := ff.ownedIdx[local+int(deltas[k])]; ff.holds(oj, rev[k]) {
					if nl == len(locs) {
						locs = ff.growRevLoc(c, nl)
					}
					locs[nl] = ff.partnerLoc(oj, rev[k])
					nl++
					rmask[w] |= m & -m
				}
			}
		}
	})
	ff.revUsed[c] = int32(nl)
}

// DensityReduceRange is the second half of the optimized density pass:
// every owned atom accumulates its density in the reference enumeration
// order — streamed values for resident partners (its own row, read in order
// with a cursor, when it owns the pair or the partner is a ghost; the
// partner's slot, read through the reverse index, otherwise), inline
// evaluations for run-away-involved pairs. Which resident pairs exist is
// the gather's mask bits, not re-derived: no partner position is loaded for
// them. A chunk first rebuilds its part of the reverse index when a row it
// indexes changed since the last rebuild (indexPartners); on an unchanged
// crystal it rebuilds nothing and walks own|reverse bits exactly as
// ForceReduceRange does. [lo, hi) spans whole chunks, as in the gather.
func (ff *ForceField) DensityReduceRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	cut2 := ff.Cutoff * ff.Cutoff
	words := ff.maskWords
	sf := ff.slotFloats

	// chain adds to the density rho of a central at pos the contributions
	// of the run-away chain at site j (excluding selfRef). Accumulators go
	// in and out by value, so they stay in registers.
	chain := func(pos vec.V, typ units.Element, j int, selfRef int32, rho float64) float64 {
		for ref := s.Head[j]; ref != neighbor.NoRunaway; {
			a := s.Runaway(ref)
			if ref != selfRef {
				r2 := pos.Sub(a.R).Norm2()
				if r2 == 0 {
					st.Coincident++
				} else if r2 < cut2 {
					f, _ := ff.Pot.Density(typ, a.Type, math.Sqrt(r2))
					rho += f
					st.Pairs++
					st.Lookups++
					if typ != units.Fe || a.Type != units.Fe {
						st.MinorityLookups++
					}
				}
			}
			ref = a.Next
		}
		return rho
	}

	for lo < hi {
		c := ff.chunkOf(2 * lo)
		_, end := s.Box.SpanCells(ForceChunks, c)
		end = min(end, hi)
		if g := ff.depGen(c); g != ff.revSeen[c] || int(ff.revUsed[c]) > len(ff.revLoc[c]) {
			ff.indexPartners(s, c, lo, end)
			ff.revSeen[c] = g
			ff.rebuilds.Inc()
		}
		own := ff.stream[c]
		locs := ff.revLoc[c]
		nl := 0 // entries of locs read
		s.Box.EachOwnedCellRange(lo, end, func(cd lattice.Coord, local int) {
			deltas := s.Deltas(cd.B)
			tight := ff.Tight[cd.B]
			// With no run-away chain within the site's wide reach (the
			// store's per-site index), only the tight prefix can hold
			// partners: the wide-offset chain scan is skipped for this site.
			// This is the paper's "extra overhead can be ignored" property
			// made literal.
			near := s.ChainNear(local)
			if !near {
				deltas = deltas[:tight]
			}
			if !s.IsVacancy(local) {
				st.Atoms++
				st.Visits += int64(len(deltas)) + 1
				pos := s.R[local]
				typ := s.Type[local]
				oi := int(ff.ownedIdx[local])
				rec := ff.row(oi)
				cur := int(rec[0] & locFloats)
				rmask := ff.revMask[oi*words : (oi+1)*words]
				var rho float64
				// Near a chain, the chain terms of every offset interleave
				// with the resident pairs: before the pair at tight slot k
				// come those of the offsets below k.
				next := 0
				chainsTo := func(to int, rho float64) float64 {
					for ; next < to; next++ {
						if j := local + int(deltas[next]); s.Head[j] != neighbor.NoRunaway {
							rho = chain(pos, typ, j, neighbor.NoRunaway, rho)
						}
					}
					return rho
				}
				if near {
					rho = chain(pos, typ, local, neighbor.NoRunaway, rho)
				}
				for w, ownW := range rec[1:] {
					for m := ownW | rmask[w]; m != 0; m &= m - 1 {
						if near {
							rho = chainsTo(w<<6|bits.TrailingZeros64(m), rho)
						}
						if ownW&(m&-m) != 0 {
							rho += own[cur+slotFab]
							cur += sf
						} else {
							rho += ff.slotAt(locs[nl])[ff.slotFba]
							nl++
						}
						st.Pairs++
					}
				}
				if near {
					rho = chainsTo(len(deltas), rho)
				}
				s.Rho[local] = rho
			}
			// Run-away centrals: full inline iteration, as in the reference
			// (a site that anchors a chain is near one, so deltas is the
			// wide table).
			for selfRef := s.Head[local]; selfRef != neighbor.NoRunaway; {
				a := s.Runaway(selfRef)
				st.Atoms++
				st.Visits += int64(len(deltas)) + 1
				pos, typ := a.R, a.Type
				rho := chain(pos, typ, local, selfRef, 0)
				if !s.IsVacancy(local) {
					r2 := pos.Sub(s.R[local]).Norm2()
					if r2 == 0 {
						st.Coincident++
					} else if r2 < cut2 {
						f, _ := ff.Pot.Density(typ, s.Type[local], math.Sqrt(r2))
						rho += f
						st.Pairs++
						st.Lookups++
						if typ != units.Fe || s.Type[local] != units.Fe {
							st.MinorityLookups++
						}
					}
				}
				for _, dlt := range deltas {
					j := local + int(dlt)
					if !s.IsVacancy(j) {
						r2 := pos.Sub(s.R[j]).Norm2()
						if r2 == 0 {
							st.Coincident++
						} else if r2 < cut2 {
							f, _ := ff.Pot.Density(typ, s.Type[j], math.Sqrt(r2))
							rho += f
							st.Pairs++
							st.Lookups++
							if typ != units.Fe || s.Type[j] != units.Fe {
								st.MinorityLookups++
							}
						}
					}
					if s.Head[j] != neighbor.NoRunaway {
						rho = chain(pos, typ, j, neighbor.NoRunaway, rho)
					}
				}
				a.Rho = rho
				selfRef = a.Next
			}
		})
		lo = end
	}
	return st
}

// ForcePairRange is the optimized force pass's pair round over owned cells
// [lo, hi), after the fill: for every slot the gather streamed — each
// resident pair once, from its owning side a — it forms the pair's force on
// a, v = −(scalar/r)·d with d = R_a − R_b, and writes v over the slot's
// floats 1–3. The force on b is −v bitwise, which is what lets the force
// reduce only sum: pairScalar is symmetric, d and −d give the same r², and
// s·(−d) = −(s·d) exactly. Each product is rounded on its own, so v is what
// the reference kernel's per-side vec.V.MulAdd adds. The range also reports
// the gather's coincidences as the force pass's, for each chunk whose first
// cell it covers. Writes only the buffers of the chunks the range covers.
func (ff *ForceField) ForcePairRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	sf := ff.slotFloats
	for lo < hi {
		c := ff.chunkOf(2 * lo)
		first, end := s.Box.SpanCells(ForceChunks, c)
		end = min(end, hi)
		if lo == first {
			st.Coincident += ff.coincident[c]
		}
		buf := ff.stream[c]
		s.Box.EachOwnedCellRange(lo, end, func(cd lattice.Coord, local int) {
			rec := ff.row(int(ff.ownedIdx[local]))
			n := int(rec[0] & locFloats)
			deltas := s.Deltas(cd.B)
			pos := s.R[local]
			typ := s.Type[local]
			rho, dFc := s.Rho[local], s.DFdRho[local]
			for w, m := range rec[1:] {
				for ; m != 0; m &= m - 1 {
					j := local + int(deltas[w<<6|bits.TrailingZeros64(m)])
					d := pos.Sub(s.R[j])
					r := math.Sqrt(d.Norm2())
					slot := buf[n : n+sf : n+sf]
					scalar := pairScalar(slot[slotDphi], dFc, slot[slotDfab], s.DFdRho[j], slot[ff.slotDfba],
						typ, s.Type[j], rho, s.Rho[j])
					k := -scalar / r
					slot[slotFab] = float64(k * d.X)
					slot[slotDfab] = float64(k * d.Y)
					slot[slotDphi] = float64(k * d.Z)
					n += sf
					st.Vectors++
				}
			}
		})
		lo = end
	}
	return st
}

// ForceReduceRange is the optimized force pass's reduce over owned cells
// [lo, hi). After the pair round every streamed slot holds its pair's φ
// and force vector v, and FillEmbeddingRange has precomputed every local
// atom's F(ρ), so a resident pair costs two loads and four additions: the
// owning side adds v, the partner side subtracts it, both in the reference
// enumeration order. The masks say which tight slots hold a pair — the
// site's own row (its record's mask) or a partner's (revMask, located
// through the reverse index) — so no partner position, owned index or
// vacancy is read for resident pairs, and a site with no chain near walks
// only its set bits. Run-away-involved pairs are evaluated inline through the fused
// lookup, interleaved in the k-walk of the sites near a chain.
func (ff *ForceField) ForceReduceRange(s *neighbor.Store, lo, hi int) (OpStats, float64) {
	var st OpStats
	var energy float64
	cut2 := ff.Cutoff * ff.Cutoff
	words := ff.maskWords
	sf := ff.slotFloats

	// inline evaluation of one run-away-involved pair side: central at pos
	// (species typ, embedding derivative dFc) against partner q, added to
	// the central's force f and energy e (in and out by value, as in the
	// density reduce's chain).
	inline := func(pos vec.V, typ units.Element, dFc, rho float64,
		q vec.V, qtyp units.Element, qdF, qrho float64, f vec.V, e float64) (vec.V, float64) {
		d := pos.Sub(q)
		r2 := d.Norm2()
		if r2 == 0 {
			st.Coincident++
			return f, e
		}
		if r2 >= cut2 {
			return f, e
		}
		r := math.Sqrt(r2)
		phi, dphi, _, dfab, _, dfba := ff.Pot.PairDensity(typ, qtyp, r)
		scalar := pairScalar(dphi, dFc, dfab, qdF, dfba, typ, qtyp, rho, qrho)
		f = f.MulAdd(-scalar/r, d)
		e += float64(0.5 * phi)
		st.Pairs++
		evals := eam.PairDensityEvals(typ, qtyp)
		st.Lookups += evals
		if typ != units.Fe || qtyp != units.Fe {
			st.MinorityLookups += evals
		}
		return f, e
	}

	// chain accumulates the run-away partners anchored at site j.
	chain := func(pos vec.V, typ units.Element, dFc, rho float64,
		j int, selfRef int32, f vec.V, e float64) (vec.V, float64) {
		for ref := s.Head[j]; ref != neighbor.NoRunaway; {
			a := s.Runaway(ref)
			if ref != selfRef {
				f, e = inline(pos, typ, dFc, rho, a.R, a.Type, a.DFdRho, a.Rho, f, e)
			}
			ref = a.Next
		}
		return f, e
	}

	s.Box.EachOwnedCellRange(lo, hi, func(c lattice.Coord, local int) {
		deltas := s.Deltas(c.B)
		tight := ff.Tight[c.B]
		// Same per-site wide-scan skip as DensityReduceRange.
		near := s.ChainNear(local)
		if !near {
			deltas = deltas[:tight]
		}
		if !s.IsVacancy(local) {
			st.Atoms++
			st.Visits += int64(len(deltas)) + 1
			oi := int(ff.ownedIdx[local])
			rec := ff.row(oi)
			own := ff.stream[rec[0]>>locShift]
			cur := int(rec[0] & locFloats)
			locs := ff.revLoc[rec[0]>>locShift][ff.revStart[oi]:]
			mask := rec[1:]
			rmask := ff.revMask[oi*words : (oi+1)*words]
			pos, typ := s.R[local], s.Type[local]
			rho, dFc := s.Rho[local], s.DFdRho[local]
			e := s.EmbedE[local]
			f := vec.Zero
			// Near a chain, the chain terms of every offset interleave with
			// the resident pairs: before the pair at tight slot k come
			// those of the offsets below k.
			next := 0
			chainsTo := func(to int, f vec.V, e float64) (vec.V, float64) {
				for ; next < to; next++ {
					if j := local + int(deltas[next]); s.Head[j] != neighbor.NoRunaway {
						f, e = chain(pos, typ, dFc, rho, j, neighbor.NoRunaway, f, e)
					}
				}
				return f, e
			}
			if near {
				f, e = chain(pos, typ, dFc, rho, local, neighbor.NoRunaway, f, e)
			}
			for w, ownW := range mask {
				for m := ownW | rmask[w]; m != 0; m &= m - 1 {
					if near {
						f, e = chainsTo(w<<6|bits.TrailingZeros64(m), f, e)
					}
					var slot []float64
					if ownW&(m&-m) != 0 {
						slot = own[cur : cur+slotHead : cur+slotHead]
						cur += sf
						f = f.Add(vec.V{X: slot[slotFab], Y: slot[slotDfab], Z: slot[slotDphi]})
					} else {
						slot = ff.slotAt(locs[0])[:slotHead:slotHead]
						locs = locs[1:]
						f = f.Sub(vec.V{X: slot[slotFab], Y: slot[slotDfab], Z: slot[slotDphi]})
					}
					e += float64(0.5 * slot[slotPhi])
					st.Pairs++
				}
			}
			if near {
				f, e = chainsTo(len(deltas), f, e)
			}
			s.F[local] = f
			energy += e
		}
		// Run-away centrals: full inline iteration over the wide table.
		for selfRef := s.Head[local]; selfRef != neighbor.NoRunaway; {
			a := s.Runaway(selfRef)
			st.Atoms++
			st.Visits += int64(len(deltas)) + 1
			pos, typ := a.R, a.Type
			rho, dFc := a.Rho, a.DFdRho
			e := a.EmbedE
			f := vec.Zero
			f, e = chain(pos, typ, dFc, rho, local, selfRef, f, e)
			if !s.IsVacancy(local) {
				f, e = inline(pos, typ, dFc, rho,
					s.R[local], s.Type[local], s.DFdRho[local], s.Rho[local], f, e)
			}
			for _, dlt := range deltas {
				j := local + int(dlt)
				if !s.IsVacancy(j) {
					f, e = inline(pos, typ, dFc, rho,
						s.R[j], s.Type[j], s.DFdRho[j], s.Rho[j], f, e)
				}
				if s.Head[j] != neighbor.NoRunaway {
					f, e = chain(pos, typ, dFc, rho, j, neighbor.NoRunaway, f, e)
				}
			}
			a.F = f
			energy += e
			selfRef = a.Next
		}
	})
	return st, energy
}

// KineticEnergy returns the owned atoms' kinetic energy in eV.
func KineticEnergy(s *neighbor.Store) float64 {
	var ke float64
	s.Box.EachOwned(func(_ lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			ke += float64(0.5 * s.Type[local].Mass() * s.Vel[local].Norm2())
		}
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			ke += float64(0.5 * a.Type.Mass() * a.Vel.Norm2())
		})
	})
	return ke
}

// CountOwnedRunaways returns the number of run-away atoms anchored at owned
// sites (the pool also holds ghost copies, which do not count).
func CountOwnedRunaways(s *neighbor.Store) int {
	n := 0
	s.Box.EachOwned(func(_ lattice.Coord, local int) {
		s.EachRunaway(local, func(_ int32, _ *neighbor.Runaway) { n++ })
	})
	return n
}

// CountOwnedAtoms returns the number of owned atoms (resident + run-away).
func CountOwnedAtoms(s *neighbor.Store) int {
	n := 0
	s.Box.EachOwned(func(_ lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			n++
		}
		s.EachRunaway(local, func(_ int32, _ *neighbor.Runaway) { n++ })
	})
	return n
}
