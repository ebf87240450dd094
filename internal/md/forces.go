package md

import (
	"math"
	"math/bits"

	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
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
// pass, where each pair is computed once.
type OpStats struct {
	Atoms   int64 // central atoms processed
	Pairs   int64 // interacting pairs accepted (within the true cutoff)
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
	s.Visits += other.Visits
	s.Lookups += other.Lookups
	s.MinorityLookups += other.MinorityLookups
	s.Coincident += other.Coincident
}

// Pair-stream slot layout of the optimized kernel: the density gather pass
// stores, per accepted resident pair, the fused evaluation results that the
// two reduce passes (density, then force, after the ghost ρ exchange)
// consume. Values are directional with respect to the *computing* side a:
// fab is the density a's atom receives from b's, fba the reverse.
const (
	slotFab  = 0 // f_ab(r)
	slotFba  = 1 // f_ba(r)
	slotPhi  = 2 // φ_ab(r)
	slotDphi = 3 // dφ/dr
	slotDfab = 4 // df_ab/dr
	slotDfba = 5 // df_ba/dr

	slotFloats = 6
)

// ForceField evaluates EAM densities and forces over a lattice neighbor
// list. The "tight" prefix of the (distance-sorted) offset table covers all
// possible lattice-resident pairs (cutoff + skin); the full "wide" table is
// walked only for run-away chains, which is the paper's "extra overhead can
// be ignored" property.
//
// The kernel evaluates each resident–resident pair once — a gather round
// computes the fused pair/density tables for every pair whose canonical
// owner (or ghost partner) anchors it and appends the results to the pair
// stream; after a barrier, reduce rounds accumulate both sides from the
// stream in the reference enumeration order. The reference kernel, which
// evaluates every pair from both sides, is the test-side oracle this one is
// bit-identical to (reference_test.go, DESIGN.md §13).
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
	chunkOf  []uint8    // owned index -> the force chunk whose range holds it

	// The pair stream: only the pairs that exist are stored. stream[c] holds
	// the slots chunk c's sites own, slotFloats each, in enumeration order
	// (site by site, tight slot by tight slot). A site's row starts at float
	// rowStart[oi] of its chunk's buffer and holds one slot per set bit of
	// its maskWords words of rowMask, in bit order. A gather chunk writes
	// only its own buffer and its own sites' index entries.
	stream    [ForceChunks][]float64
	rowStart  []int32
	rowMask   []uint64
	maskWords int // mask words per owned site: ceil(max tight prefix / 64)
}

// streamSlack is the headroom of a chunk's buffer over its perfect-crystal
// slot count, in 1/streamSlack of that count: thermal motion moves few pairs
// across the cutoff, and a cascade core that needs more grows its chunk.
const streamSlack = 8

// NewForceField computes the tight prefixes for the store's offset table
// and builds the optimized kernel's static indexes: the owned-order map,
// the reverse-offset table (the slot at which a pair's canonical owner
// streamed it, seen from the partner), and the pair stream's per-site index
// and per-chunk buffers, sized from the geometry.
func NewForceField(s *neighbor.Store, pot *eam.Potential, skin float64) *ForceField {
	ff := &ForceField{Pot: pot, Cutoff: pot.Cutoff, rounds: &productionRounds}
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

	ff.chunkOf = make([]uint8, next)
	ff.rowStart = make([]int32, next)
	ff.rowMask = make([]uint64, int(next)*ff.maskWords)
	// Each chunk's buffer holds what its sites own in the perfect crystal —
	// the in-cutoff tight slots whose partner does not own the pair — plus
	// slack.
	for c := range ff.stream {
		lo, hi := s.Box.SpanCells(ForceChunks, c)
		slots := 0
		s.Box.EachOwnedCellRange(lo, hi, func(cd lattice.Coord, local int) {
			oi := ff.ownedIdx[local]
			ff.chunkOf[oi] = uint8(c)
			deltas := s.Deltas(cd.B)
			for k, o := range s.Tab.PerBase[cd.B][:ff.Tight[cd.B]] {
				if o.R >= pot.Cutoff {
					break
				}
				if oj := ff.ownedIdx[local+int(deltas[k])]; oj < 0 || oj > oi {
					slots++
				}
			}
		})
		ff.stream[c] = make([]float64, (slots+slots/streamSlack)*slotFloats)
	}
	return ff
}

// growStream doubles chunk c's buffer, keeping its first n floats. Only a
// gather whose chunk outgrew the perfect-crystal sizing (a cascade core)
// gets here, so steady state allocates nothing.
func (ff *ForceField) growStream(c, n int) []float64 {
	grown := make([]float64, max(2*len(ff.stream[c]), 64*slotFloats))
	copy(grown, ff.stream[c][:n])
	ff.stream[c] = grown
	return grown
}

// rowLen returns the number of slots owned site o holds.
func (ff *ForceField) rowLen(o int) int {
	n := 0
	for _, w := range ff.rowMask[o*ff.maskWords : (o+1)*ff.maskWords] {
		n += bits.OnesCount64(w)
	}
	return n
}

// partnerSlot returns the slot owned site o streamed for its tight slot k,
// or nil when o holds none there (the pair was not accepted).
func (ff *ForceField) partnerSlot(o, k int32) []float64 {
	m := ff.rowMask[int(o)*ff.maskWords : (int(o)+1)*ff.maskWords]
	word, bit := k>>6, uint(k&63)
	if m[word]>>bit&1 == 0 {
		return nil
	}
	at := bits.OnesCount64(m[word] & (1<<bit - 1))
	for _, w := range m[:word] {
		at += bits.OnesCount64(w)
	}
	base := int(ff.rowStart[o]) + at*slotFloats
	return ff.stream[ff.chunkOf[o]][base : base+slotFloats : base+slotFloats]
}

// MemoryBytes returns the heap footprint of the kernel statics and the pair
// stream at its current capacity.
func (ff *ForceField) MemoryBytes() int {
	n := 4*(len(ff.ownedIdx)+len(ff.revIdx[0])+len(ff.revIdx[1])+len(ff.rowStart)) +
		len(ff.chunkOf) + 8*len(ff.rowMask)
	for _, buf := range ff.stream {
		n += 8 * cap(buf)
	}
	return n
}

// pairScalar combines the pair-potential derivative with the two embedding
// terms in a canonical order, so both sides of a pair sum the three terms
// identically and obtain a bitwise-equal force scalar: the side whose
// (species, density) key is smaller contributes its term first; if the keys
// are equal the two terms are themselves bitwise equal and the order cannot
// matter. tc/tp are the central's and partner's terms dF·df.
func pairScalar(dphi, tc, tp float64, ctyp, ptyp units.Element, crho, prho float64) float64 {
	if ptyp < ctyp || (ptyp == ctyp && prho < crho) {
		return dphi + tp + tc
	}
	return dphi + tc + tp
}

// FillEmbeddingRange precomputes F(ρ) and F'(ρ) for every local atom —
// resident or run-away, ghosts included — in the local-site range [lo, hi):
// one embedding evaluation per atom instead of the reference kernel's one
// per accepted pair. It runs after the density exchange; DFdRho/EmbedE are
// derived state and are never exchanged — each rank recomputes its ghosts'
// values from the exchanged densities. Disjoint site ranges write disjoint
// state (run-away chains are anchored at exactly one site).
func (ff *ForceField) FillEmbeddingRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	for i := lo; i < hi; i++ {
		if !s.IsVacancy(i) {
			v, dv := ff.Pot.Embed(s.Type[i], s.Rho[i])
			s.EmbedE[i] = v
			s.DFdRho[i] = dv
			st.Lookups++
			if s.Type[i] != units.Fe {
				st.MinorityLookups++
			}
		}
		for ref := s.Head[i]; ref != neighbor.NoRunaway; {
			a := s.Runaway(ref)
			v, dv := ff.Pot.Embed(a.Type, a.Rho)
			a.EmbedE = v
			a.DFdRho = dv
			st.Lookups++
			if a.Type != units.Fe {
				st.MinorityLookups++
			}
			ref = a.Next
		}
	}
	return st
}

// DensityGatherRange is the first half of the optimized density pass over
// owned cells [lo, hi): every resident–resident pair anchored here — owned
// pairs whose canonical owner (the side with the smaller owned index) is in
// the range, plus every pair with a ghost partner — is evaluated exactly
// once through the fused PairDensity lookup, and all six results are
// appended to the pair stream for the two reduce passes. Acceptance is
// decided here, once: a site's mask bits are the pairs it holds, and the
// density reduce trusts them, so the resident–resident coincidences it would
// have met are counted here, for both sides when both are owned centrals.
// Writes only the buffers and index entries of the chunks the range covers;
// a range that starts inside a chunk continues after the row of the site
// before it. A barrier must separate it from any reduce pass.
func (ff *ForceField) DensityGatherRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	cut2 := ff.Cutoff * ff.Cutoff
	words := ff.maskWords
	for lo < hi {
		// Owned indexes run cell by cell, basis innermost: cell lo's sites
		// are 2*lo and 2*lo+1.
		c := int(ff.chunkOf[2*lo])
		first, end := s.Box.SpanCells(ForceChunks, c)
		end = min(end, hi)
		buf := ff.stream[c]
		n := 0 // floats of buf in use
		if prev := 2*lo - 1; lo > first {
			n = int(ff.rowStart[prev]) + ff.rowLen(prev)*slotFloats
		}
		s.Box.EachOwnedCellRange(lo, end, func(cd lattice.Coord, local int) {
			oi := ff.ownedIdx[local]
			ff.rowStart[oi] = int32(n)
			mask := ff.rowMask[int(oi)*words : (int(oi)+1)*words]
			clear(mask)
			if s.IsVacancy(local) {
				return
			}
			st.Atoms++
			pos := s.R[local]
			typ := s.Type[local]
			deltas := s.Deltas(cd.B)
			tight := ff.Tight[cd.B]
			st.Visits += int64(tight) + 1
			for k := 0; k < tight; k++ {
				j := local + int(deltas[k])
				if s.IsVacancy(j) {
					continue
				}
				oj := ff.ownedIdx[j]
				if oj >= 0 && oj < oi {
					continue // the partner owns this pair and computes it
				}
				d := pos.Sub(s.R[j])
				r2 := d.Norm2()
				if r2 >= cut2 {
					continue
				}
				if r2 == 0 {
					st.Coincident++
					if oj >= 0 {
						st.Coincident++ // the partner's side of the encounter
					}
					continue
				}
				tj := s.Type[j]
				phi, dphi, fab, dfab, fba, dfba := ff.Pot.PairDensity(typ, tj, math.Sqrt(r2))
				if n+slotFloats > len(buf) {
					buf = ff.growStream(c, n)
				}
				slot := buf[n : n+slotFloats : n+slotFloats]
				slot[slotFab] = fab
				slot[slotFba] = fba
				slot[slotPhi] = phi
				slot[slotDphi] = dphi
				slot[slotDfab] = dfab
				slot[slotDfba] = dfba
				n += slotFloats
				mask[k>>6] |= 1 << uint(k&63)
				st.Pairs++
				evals := eam.PairDensityEvals(typ, tj)
				st.Lookups += evals
				if typ != units.Fe || tj != units.Fe {
					st.MinorityLookups += evals
				}
			}
		})
		lo = end
	}
	return st
}

// DensityReduceRange is the second half of the optimized density pass:
// every owned atom accumulates its density in the reference enumeration
// order — streamed values for resident partners (its own row, read in order
// with a cursor, when it owns the pair or the partner is a ghost; the
// partner's reverse-offset slot otherwise), inline evaluations for
// run-away-involved pairs. Which resident pairs exist is the gather's mask
// bits, not re-derived: no partner position is loaded for them.
func (ff *ForceField) DensityReduceRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	cut2 := ff.Cutoff * ff.Cutoff
	words := ff.maskWords
	// With no run-away atoms anywhere in the local store (the defect-free
	// common case, and a global property so every chunking sees the same
	// value), only the tight prefix can hold partners: the wide-offset
	// chain scan — the dominant per-site iteration cost — is skipped
	// entirely. This is the paper's "extra overhead can be ignored"
	// property made literal.
	hasRun := s.NumRunaways() > 0

	// density contribution to a central at pos from the run-away chain at
	// site j (excluding selfRef).
	chain := func(pos vec.V, typ units.Element, j int, selfRef int32, rho *float64) {
		for ref := s.Head[j]; ref != neighbor.NoRunaway; {
			a := s.Runaway(ref)
			if ref != selfRef {
				r2 := pos.Sub(a.R).Norm2()
				if r2 == 0 {
					st.Coincident++
				} else if r2 < cut2 {
					f, _ := ff.Pot.Density(typ, a.Type, math.Sqrt(r2))
					*rho += f
					st.Pairs++
					st.Lookups++
					if typ != units.Fe || a.Type != units.Fe {
						st.MinorityLookups++
					}
				}
			}
			ref = a.Next
		}
	}

	s.Box.EachOwnedCellRange(lo, hi, func(c lattice.Coord, local int) {
		deltas := s.Deltas(c.B)
		tight := ff.Tight[c.B]
		rev := ff.revIdx[c.B]
		if !hasRun {
			deltas = deltas[:tight]
		}
		if !s.IsVacancy(local) {
			st.Atoms++
			st.Visits += int64(len(deltas)) + 1
			pos := s.R[local]
			typ := s.Type[local]
			oi := ff.ownedIdx[local]
			own := ff.stream[ff.chunkOf[oi]]
			cur := int(ff.rowStart[oi])
			mask := ff.rowMask[int(oi)*words : (int(oi)+1)*words]
			var rho float64
			if hasRun {
				chain(pos, typ, local, neighbor.NoRunaway, &rho)
			}
			for k, dlt := range deltas {
				j := local + int(dlt)
				if k < tight {
					if oj := ff.ownedIdx[j]; oj >= 0 && oj < oi {
						// The partner owns the pair: read its slot for
						// the reverse offset; we are the "b" side.
						if slot := ff.partnerSlot(oj, rev[k]); slot != nil {
							rho += slot[slotFba]
							st.Pairs++
						}
					} else if mask[k>>6]>>uint(k&63)&1 != 0 {
						rho += own[cur+slotFab]
						cur += slotFloats
						st.Pairs++
					}
				}
				if hasRun && s.Head[j] != neighbor.NoRunaway {
					chain(pos, typ, j, neighbor.NoRunaway, &rho)
				}
			}
			s.Rho[local] = rho
		}
		// Run-away centrals: full inline iteration, as in the reference.
		for selfRef := s.Head[local]; selfRef != neighbor.NoRunaway; {
			a := s.Runaway(selfRef)
			st.Atoms++
			st.Visits += int64(len(deltas)) + 1
			pos, typ := a.R, a.Type
			var rho float64
			chain(pos, typ, local, selfRef, &rho)
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
					chain(pos, typ, j, neighbor.NoRunaway, &rho)
				}
			}
			a.Rho = rho
			selfRef = a.Next
		}
	})
	return st
}

// ForceReduceRange is the optimized force pass over owned cells [lo, hi).
// The pair stream still holds every resident pair's fused evaluation from
// the density gather (positions do not change between the two passes of one
// force computation), and FillEmbeddingRange has precomputed every local
// atom's F(ρ)/F'(ρ), so resident pairs need no table evaluations at all:
// each side reads the streamed derivatives, forms the canonical force scalar
// — bitwise equal on both sides — and accumulates in the reference
// enumeration order. Run-away-involved pairs are evaluated inline through
// the fused lookup.
func (ff *ForceField) ForceReduceRange(s *neighbor.Store, lo, hi int) (OpStats, float64) {
	var st OpStats
	var energy float64
	cut2 := ff.Cutoff * ff.Cutoff
	// Same wide-scan skip as DensityReduceRange: no run-aways anywhere
	// means no partner beyond the tight prefix and no chains to probe.
	hasRun := s.NumRunaways() > 0

	// inline evaluation of one run-away-involved pair side: central at pos
	// (species typ, embedding derivative dFc) against partner q.
	inline := func(pos vec.V, typ units.Element, dFc, rho float64,
		q vec.V, qtyp units.Element, qdF, qrho float64, f *vec.V, e *float64) {
		d := pos.Sub(q)
		r2 := d.Norm2()
		if r2 == 0 {
			st.Coincident++
			return
		}
		if r2 >= cut2 {
			return
		}
		r := math.Sqrt(r2)
		phi, dphi, _, dfab, _, dfba := ff.Pot.PairDensity(typ, qtyp, r)
		scalar := pairScalar(dphi, dFc*dfab, qdF*dfba, typ, qtyp, rho, qrho)
		*f = f.MulAdd(-scalar/r, d)
		*e += 0.5 * phi
		st.Pairs++
		evals := eam.PairDensityEvals(typ, qtyp)
		st.Lookups += evals
		if typ != units.Fe || qtyp != units.Fe {
			st.MinorityLookups += evals
		}
	}

	// chain accumulates the run-away partners anchored at site j.
	chain := func(pos vec.V, typ units.Element, dFc, rho float64,
		j int, selfRef int32, f *vec.V, e *float64) {
		for ref := s.Head[j]; ref != neighbor.NoRunaway; {
			a := s.Runaway(ref)
			if ref != selfRef {
				inline(pos, typ, dFc, rho, a.R, a.Type, a.DFdRho, a.Rho, f, e)
			}
			ref = a.Next
		}
	}

	s.Box.EachOwnedCellRange(lo, hi, func(c lattice.Coord, local int) {
		deltas := s.Deltas(c.B)
		tight := ff.Tight[c.B]
		rev := ff.revIdx[c.B]
		if !hasRun {
			deltas = deltas[:tight]
		}
		if !s.IsVacancy(local) {
			st.Atoms++
			st.Visits += int64(len(deltas)) + 1
			pos := s.R[local]
			typ := s.Type[local]
			rho := s.Rho[local]
			dFc := s.DFdRho[local]
			oi := ff.ownedIdx[local]
			own := ff.stream[ff.chunkOf[oi]]
			cur := int(ff.rowStart[oi])
			e := s.EmbedE[local]
			f := vec.Zero
			if hasRun {
				chain(pos, typ, dFc, rho, local, neighbor.NoRunaway, &f, &e)
			}
			for k, dlt := range deltas {
				j := local + int(dlt)
				if k < tight && !s.IsVacancy(j) {
					d := pos.Sub(s.R[j])
					r2 := d.Norm2()
					if r2 == 0 {
						st.Coincident++
					} else if r2 < cut2 {
						r := math.Sqrt(r2)
						// Locate the pair's slot and our direction in it:
						// dfc is the density derivative toward the central,
						// dfp toward the partner.
						var slot []float64
						var dfc, dfp float64
						if oj := ff.ownedIdx[j]; oj >= 0 && oj < oi {
							slot = ff.partnerSlot(oj, rev[k])
							dfc, dfp = slot[slotDfba], slot[slotDfab]
						} else {
							slot = own[cur : cur+slotFloats : cur+slotFloats]
							cur += slotFloats
							dfc, dfp = slot[slotDfab], slot[slotDfba]
						}
						phi, dphi := slot[slotPhi], slot[slotDphi]
						scalar := pairScalar(dphi, dFc*dfc, s.DFdRho[j]*dfp,
							typ, s.Type[j], rho, s.Rho[j])
						f = f.MulAdd(-scalar/r, d)
						e += 0.5 * phi
						st.Pairs++
					}
				}
				if hasRun && s.Head[j] != neighbor.NoRunaway {
					chain(pos, typ, dFc, rho, j, neighbor.NoRunaway, &f, &e)
				}
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
			chain(pos, typ, dFc, rho, local, selfRef, &f, &e)
			if !s.IsVacancy(local) {
				inline(pos, typ, dFc, rho,
					s.R[local], s.Type[local], s.DFdRho[local], s.Rho[local], &f, &e)
			}
			for _, dlt := range deltas {
				j := local + int(dlt)
				if !s.IsVacancy(j) {
					inline(pos, typ, dFc, rho,
						s.R[j], s.Type[j], s.DFdRho[j], s.Rho[j], &f, &e)
				}
				if s.Head[j] != neighbor.NoRunaway {
					chain(pos, typ, dFc, rho, j, neighbor.NoRunaway, &f, &e)
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
			ke += 0.5 * s.Type[local].Mass() * s.Vel[local].Norm2()
		}
		s.EachRunaway(local, func(_ int32, a *neighbor.Runaway) {
			ke += 0.5 * a.Type.Mass() * a.Vel.Norm2()
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
