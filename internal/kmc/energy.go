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
		for _, sa := range species {
			st.f[sa][b] = make([]float64, len(offs))
			for _, sb := range species {
				st.phi[sa][sb][b] = make([]float64, len(offs))
			}
		}
		for k, o := range offs {
			for _, sa := range species {
				fv, _ := pot.Density(units.Fe, elementOf(sa), o.R)
				st.f[sa][b][k] = fv
				for _, sb := range species {
					pv, _ := pot.Pair(elementOf(sa), elementOf(sb), o.R)
					st.phi[sa][sb][b][k] = pv
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
	f := st.f[occ][basis]
	if f == nil {
		return 0
	}
	return f[k]
}

// energetics evaluates swap energy differences over the occupancy state.
type energetics struct {
	pot    *eam.Potential
	shells *shellTables
	// memo caches, per local site, the embedding energy of the site as it
	// stands: F_occ(rho), keyed on exactly those two inputs. An entry whose
	// key no longer matches Occ/Rho simply misses, so nothing ever
	// invalidates it, and the zero value (occ = Vacant, never looked up) is
	// a miss — a zeroed allocation is a valid empty memo. It holds derived
	// values only and is not checkpointed.
	memo []embedMemo
}

type embedMemo struct {
	rho, val float64
	occ      uint8
}

// embed returns F_a(ρ) for an atom of species code a.
func (e *energetics) embed(a uint8, rho float64) float64 {
	v, _ := e.pot.Embed(elementOf(a), rho)
	return v
}

// embedAt returns F_a(ρ) for local site i holding species a at density rho
// — the site's current, unchanged state — through the memo. The value is
// what embed returns for the same inputs, bit for bit.
func (e *energetics) embedAt(i int, a uint8, rho float64) float64 {
	m := &e.memo[i]
	if m.occ != a || m.rho != rho {
		*m = embedMemo{rho: rho, val: e.embed(a, rho), occ: a}
	}
	return m.val
}

// hopSite is one bystander of a vacancy hop s→n: a site within the
// interaction shell of s, of n, or of both. d is its flat index delta from
// s; ks and kn are its offset indices in the shells around s and n, -1
// where it lies outside that shell. s and n themselves are not bystanders.
type hopSite struct {
	d      int32
	ks, kn int16
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
// The bystanders i come from the hop's precomputed stencil (State.hops), in
// ascending site order, so the sum is reproducible across protocols and
// nothing is collected, sorted or allocated per call.
//
//mdvet:hot
func (e *energetics) swapDeltaE(st *State, s, n int, cs, cn lattice.Coord) float64 {
	occ, rho := st.Occ, st.Rho
	m := occ[n] // species of the moving atom
	sh := e.shells
	bs, bn := cs.B, cn.B

	// Around the destination s: the pair gains, and the density the moving
	// atom will sit in (contributions depend on the *sources* around it).
	var dPair, rhoAfter float64
	for k, d := range st.deltas[bs] {
		j := s + int(d)
		if t := occ[j]; j != n && t != Vacant {
			dPair += sh.phi[m][t][bs][k]
			rhoAfter += sh.f[t][bs][k]
		}
	}
	// Around the origin n: the pair losses.
	for k, d := range st.deltas[bn] {
		j := n + int(d)
		if t := occ[j]; j != s && t != Vacant {
			dPair -= sh.phi[m][t][bn][k]
		}
	}

	// Embedding changes of the bystanders: every occupied site near s gains
	// f_m(r_is), every occupied site near n loses f_m(r_in), a site near
	// both does both.
	h := 0
	for st.shell1[bs][h] != int32(n-s) {
		h++
	}
	fs, fn := sh.f[m][bs], sh.f[m][bn]
	var dEmbed float64
	for _, b := range st.hops[bs][h] {
		i := s + int(b.d)
		t := occ[i]
		if t == Vacant {
			continue
		}
		delta := 0.0
		if b.ks >= 0 {
			delta += fs[b.ks]
		}
		if b.kn >= 0 {
			delta -= fn[b.kn]
		}
		if delta != 0 {
			dEmbed += e.embed(t, rho[i]+delta) - e.embedAt(i, t, rho[i])
		}
	}

	// The moving atom itself: before, embedded at n (ρ at n excludes n
	// itself by construction); after, at s with n vacated.
	dEmbed += e.embed(m, rhoAfter) - e.embedAt(n, m, rho[n])
	return dPair + dEmbed
}

// dependencyReach returns the Chebyshev cell radius within which an
// occupancy change can alter the outcome of swapDeltaE for a vacancy — the
// exact invalidation radius of the incremental event-rate cache. The hop
// target sits one cell from the vacancy; the phi pair shells and the
// embedding bystanders extend another `reach` cells (occupancy read
// directly, radius reach+1); and each bystander's ρ sums occupancy a
// further `reach` cells out (radius 2*reach+1, the ghost width). The
// maximum, 2*reach+1, is therefore both necessary and sufficient.
func (e *energetics) dependencyReach(reach int) int { return 2*reach + 1 }

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
