package kmc

import (
	"math"

	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
)

// Occupancy codes. KMC is on-lattice: every site is a vacancy or an atom of
// one of the supported species (the AKMC "sites" of the paper; Cu enables
// the alloy path and the copper-precipitation scenario).
const (
	Vacant uint8 = 0
	Atom   uint8 = 1 // iron
	CuAtom uint8 = 2 // copper
)

// numSpecies is the number of occupancy codes (including Vacant).
const numSpecies = 3

// elementOf maps an occupancy code to its element; only valid for atoms.
func elementOf(occ uint8) units.Element {
	if occ == CuAtom {
		return units.Cu
	}
	return units.Fe
}

// shellTables holds the EAM pair and density values precomputed per offset
// of the neighbor table — the on-lattice specialization: atoms sit on ideal
// sites, so only a handful of distinct separations occur and every table
// query collapses to an indexed load ("#3: Compute EAM potential for each
// atom" at on-lattice cost).
//
// The pair term depends on both species; in the Finnis-Sinclair form the
// density contribution depends only on the source species, which is what
// keeps the incremental ρ maintenance simple.
type shellTables struct {
	tab *lattice.OffsetTable
	// phi[a][b][basis][k]: pair energy between species codes a and b at
	// offset k from a central site of the given basis.
	phi [numSpecies][numSpecies][2][]float64
	// f[src][basis][k]: density contributed by a source atom of the given
	// species code.
	f [numSpecies][2][]float64
	// The kernels' layout of the same values, padded so that the occupancy
	// code of the far site indexes them without a branch: phiPad[a][basis]
	// [k][t] is phi[a][t][basis][k] and fPad[basis][k][t] is f[t][basis][k],
	// both +0 where t is Vacant or a species the potential was not built
	// with. A sum that starts at +0 keeps its bits when +0 is added (it can
	// never reach −0), so adding the padding is adding nothing.
	phiPad [numSpecies][2][][4]float64
	fPad   [2][][4]float64
}

func newShellTables(pot *eam.Potential, tab *lattice.OffsetTable) *shellTables {
	st := &shellTables{tab: tab}
	species := []uint8{Atom}
	for _, e := range pot.Elements {
		if e == units.Cu {
			species = append(species, CuAtom)
		}
	}
	for b := 0; b < 2; b++ {
		offs := tab.PerBase[b]
		st.fPad[b] = make([][4]float64, len(offs))
		for _, sa := range species {
			st.f[sa][b] = make([]float64, len(offs))
			st.phiPad[sa][b] = make([][4]float64, len(offs))
			for _, sb := range species {
				st.phi[sa][sb][b] = make([]float64, len(offs))
			}
		}
		for k, o := range offs {
			for _, sa := range species {
				fv, _ := pot.Density(units.Fe, elementOf(sa), o.R)
				st.f[sa][b][k] = fv
				st.fPad[b][k][sa] = fv
				for _, sb := range species {
					pv, _ := pot.Pair(elementOf(sa), elementOf(sb), o.R)
					st.phi[sa][sb][b][k] = pv
					st.phiPad[sa][b][k][sb] = pv
				}
			}
		}
	}
	return st
}

// fval returns the density contribution of a source site with the given
// occupancy code at offset k (zero for vacancies and for species the
// potential was not built with).
func (st *shellTables) fval(occ uint8, basis, k int) float64 {
	return st.fPad[basis][k][occ&3]
}

// energetics evaluates swap energy differences over the occupancy state.
type energetics struct {
	pot    *eam.Potential
	shells *shellTables
	// cache maps (species, exact bits of ρ) to F_species(ρ), direct-mapped.
	// On a lattice ρ is a sum over a few occupancy patterns of the shell,
	// so the embedding terms of a run take few distinct values (24–29 on
	// kmc-anneal, ~100 on a campaign's cascade debris) and nearly every
	// lookup hits. A hit returns the bits Pot.Embed returned for the same
	// inputs, so nothing is ever invalidated or checkpointed, and the zero
	// entry (species Vacant, never looked up) is a miss.
	cache [1 << embedCacheBits]embedEntry
}

// embedCacheBits is log2 of the embedding cache's entry count: on a
// campaign's KMC stage 2⁸ entries miss ~9 % of the lookups, 2¹⁰ 0.04 %,
// little more than each key's first lookup (DESIGN §8).
const embedCacheBits = 10

// embedEntry is one cache slot: the full key and the value.
type embedEntry struct {
	bits uint64 // math.Float64bits(ρ)
	val  float64
	occ  uint8
}

// embed returns F_a(ρ) for an atom of species code a, bit for bit what
// Pot.Embed returns.
func (e *energetics) embed(a uint8, rho float64) float64 {
	bits := math.Float64bits(rho)
	c := &e.cache[(bits^uint64(a))*0x9E3779B97F4A7C15>>(64-embedCacheBits)]
	if c.bits != bits || c.occ != a {
		v, _ := e.pot.Embed(elementOf(a), rho)
		*c = embedEntry{bits: bits, val: v, occ: a}
	}
	return c.val
}

// hopSite is one bystander of a vacancy hop s→n: a site within the
// interaction shell of s, of n, or of both, whose density the hop shifts.
// d is its flat index delta from s; shift is its row of the basis's shift
// table (State.shifts). s and n themselves are not bystanders.
type hopSite struct {
	d     int32
	shift int32
}

// swapDeltaE returns the total-energy change of moving the atom at site n
// into the vacancy at site s (both given as local indices with their lattice
// coordinates; n must be a first-shell neighbor of s). occ and rho are the
// current local state; rho must be valid for every site within the
// interaction cutoff of s or n.
//
// Only s and n change occupancy, so with the moving atom's species m:
//
//	ΔE_pair  = Σ_j φ_{m,tj}(r_sj) − Σ_j φ_{m,tj}(r_nj)   (j ≠ s,n occupied)
//	ΔE_embed = Σ_i [F_{ti}(ρ_i ± f_m) − F_{ti}(ρ_i)]     (i occupied near s or n)
//	         + F_m(ρ'_atom at s) − F_m(ρ_atom at n)
//
// The pair loops read the padded tables, so a vacant j adds +0 and needs no
// branch; s is vacant, and n is skipped by splitting the loop around its
// offset h, which is n's index in both the shell and the first shell. The
// bystanders i come from the hop's precomputed stencil (State.hops), in
// ascending site order, each with its density shift f_m(r_is) − f_m(r_in)
// tabulated, so the sum is reproducible across protocols and nothing is
// collected, sorted or allocated per call.
func (e *energetics) swapDeltaE(st *State, s, n int, cs, cn lattice.Coord) float64 {
	occ, rho := st.Occ, st.Rho
	m := occ[n] // species of the moving atom
	sh := e.shells
	bs, bn := cs.B, cn.B
	h := 0
	for st.shell1[bs][h] != int32(n-s) {
		h++
	}

	// Around the destination s: the pair gains, and the density the moving
	// atom will sit in (contributions depend on the *sources* around it).
	var dPair, rhoAfter float64
	ds := st.deltas[bs]
	phi, f := sh.phiPad[m][bs][:len(ds)], sh.fPad[bs][:len(ds)]
	for k, d := range ds[:h] {
		t := occ[s+int(d)] & 3
		dPair += phi[k][t]
		rhoAfter += f[k][t]
	}
	for k := h + 1; k < len(ds); k++ {
		t := occ[s+int(ds[k])] & 3
		dPair += phi[k][t]
		rhoAfter += f[k][t]
	}
	// Around the origin n: the pair losses.
	dn := st.deltas[bn]
	phi = sh.phiPad[m][bn][:len(dn)]
	for k, d := range dn {
		dPair -= phi[k][occ[n+int(d)]&3]
	}

	// Embedding changes of the bystanders: every occupied site near s gains
	// f_m(r_is), every occupied site near n loses f_m(r_in), a site near
	// both does both.
	shift := st.shifts[m][bs]
	var dEmbed float64
	for _, b := range st.hops[bs][h] {
		i := s + int(b.d)
		if t := occ[i]; t != Vacant {
			dEmbed += e.embed(t, rho[i]+shift[b.shift]) - e.embed(t, rho[i])
		}
	}

	// The moving atom itself: before, embedded at n (ρ at n excludes n
	// itself by construction); after, at s with n vacated.
	dEmbed += e.embed(m, rhoAfter) - e.embed(m, rho[n])
	return dPair + dEmbed
}

// hopRate returns the transition rate of a hop with energy difference dE,
// using the kinetically-resolved activation barrier ΔE* = Em + dE/2,
// floored at a small positive value so rates stay finite and positive.
func hopRate(nu, em, kBT, dE float64) float64 {
	barrier := em + dE/2
	if barrier < 0.01 {
		barrier = 0.01
	}
	return nu * math.Exp(-barrier/kBT)
}
