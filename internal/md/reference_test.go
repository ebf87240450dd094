package md

import (
	"math"

	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// The reference kernel: the full-neighbor, per-neighbor-lookup EAM kernel of
// the paper (§2.1, the kernel Figure 9 measures), which evaluates every pair
// from both sides in one round per pass. It is the oracle the production
// kernel (forces.go) is bit-identical to; the tests below run it through the
// same ForcePool, with and without a CPEKernel attached, by giving one
// ForceField its round table.

// referenceRounds is the oracle's round table, with the historical
// single-pass CPE cost specs.
var referenceRounds = kernelRounds{
	density: []round{{
		spec: passSpec{tables: 1, inBytes: streamInDensity, outBytes: streamOutDens, flopsPer: flopsPairDensity},
		work: noEnergy((*ForceField).DensitiesRange),
	}},
	force: []round{{
		spec: passSpec{tables: 3, inBytes: streamInForce, outBytes: streamOutForce, flopsPer: flopsPairForce},
		work: (*ForceField).ForcesRange,
	}},
}

// useReferenceKernel switches one rank to the oracle and recomputes the
// forces NewRank produced, so the whole trajectory — initial forces included
// — runs under it. Collective, like computeForces.
func useReferenceKernel(r *Rank) {
	r.FF.rounds = &referenceRounds
	r.computeForces()
}

// centralKind distinguishes the two kinds of central atom.
type centralKind int

const (
	residentCentral centralKind = iota
	runawayCentral
)

// candidate is one potential interaction partner.
type candidate struct {
	pos vec.V
	typ units.Element
	rho float64
}

// eachCandidate enumerates every atom that can possibly be within the cutoff
// of a central atom whose home (lattice site for residents, anchor for
// run-aways) is the local site `home` with the given basis. Enumeration
// order is deterministic. Returns the number of sites visited.
//
// withRho controls whether neighbor densities are copied into the
// candidates: the density pass must pass false, both because it does not
// need them and because neighbor ρ values are concurrently being written by
// other CPE workers during that pass.
func (ff *ForceField) eachCandidate(s *neighbor.Store, home int, basis int8,
	kind centralKind, selfRef int32, withRho bool, fn func(c candidate)) int64 {

	rhoOf := func(rho *float64) float64 {
		if withRho {
			return *rho
		}
		return 0
	}
	visits := int64(1)
	// Atoms chained at the home site (excluding the central itself).
	s.EachRunaway(home, func(ref int32, a *neighbor.Runaway) {
		if kind == runawayCentral && ref == selfRef {
			return
		}
		fn(candidate{pos: a.R, typ: a.Type, rho: rhoOf(&a.Rho)})
	})
	// The resident atom at the anchor site is a partner of a run-away
	// central (a resident central *is* that atom).
	if kind == runawayCentral && !s.IsVacancy(home) {
		fn(candidate{pos: s.R[home], typ: s.Type[home], rho: rhoOf(&s.Rho[home])})
	}

	deltas := s.Deltas(basis)
	tight := ff.Tight[basis]
	for k, d := range deltas {
		j := home + int(d)
		visits++
		// Lattice-resident partner: residents only need the tight prefix;
		// run-away centrals can reach further.
		if (k < tight || kind == runawayCentral) && !s.IsVacancy(j) {
			fn(candidate{pos: s.R[j], typ: s.Type[j], rho: rhoOf(&s.Rho[j])})
		}
		// Run-away partners chained anywhere within the wide table.
		if s.Head[j] != neighbor.NoRunaway {
			s.EachRunaway(j, func(_ int32, a *neighbor.Runaway) {
				fn(candidate{pos: a.R, typ: a.Type, rho: rhoOf(&a.Rho)})
			})
		}
	}
	return visits
}

// DensitiesRange is the reference density kernel restricted to owned cells
// [lo, hi); disjoint ranges write disjoint state, so the CPE kernel runs
// them concurrently.
func (ff *ForceField) DensitiesRange(s *neighbor.Store, lo, hi int) OpStats {
	var st OpStats
	cut2 := ff.Cutoff * ff.Cutoff
	s.Box.EachOwnedCellRange(lo, hi, func(c lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			st.Atoms++
			pos := s.R[local]
			typ := s.Type[local]
			var rho float64
			st.Visits += ff.eachCandidate(s, local, c.B, residentCentral, 0, false, func(cd candidate) {
				r2 := pos.Sub(cd.pos).Norm2()
				if r2 == 0 {
					st.Coincident++
					return
				}
				if r2 >= cut2 {
					return
				}
				f, _ := ff.Pot.Density(typ, cd.typ, math.Sqrt(r2))
				rho += f
				st.Pairs++
				st.Lookups++
				if typ != units.Fe || cd.typ != units.Fe {
					st.MinorityLookups++
				}
			})
			s.Rho[local] = rho
		}
		s.EachRunaway(local, func(ref int32, a *neighbor.Runaway) {
			st.Atoms++
			pos, typ := a.R, a.Type
			var rho float64
			st.Visits += ff.eachCandidate(s, local, c.B, runawayCentral, ref, false, func(cd candidate) {
				r2 := pos.Sub(cd.pos).Norm2()
				if r2 == 0 {
					st.Coincident++
					return
				}
				if r2 >= cut2 {
					return
				}
				f, _ := ff.Pot.Density(typ, cd.typ, math.Sqrt(r2))
				rho += f
				st.Pairs++
				st.Lookups++
				if typ != units.Fe || cd.typ != units.Fe {
					st.MinorityLookups++
				}
			})
			a.Rho = rho
		})
	})
	return st
}

// ForcesRange is the reference force kernel restricted to owned cells
// [lo, hi). Per central atom it issues one embedding evaluation, and per
// accepted pair four interpolation evaluations: the pair term, both density
// directions, and the partner's embedding derivative (all counted in
// OpStats.Lookups — the density-direction evaluations and the partner
// embedding term are what the optimized kernel's pair cache and
// fill pass eliminate).
func (ff *ForceField) ForcesRange(s *neighbor.Store, lo, hi int) (OpStats, float64) {
	var st OpStats
	var energy float64
	cut2 := ff.Cutoff * ff.Cutoff

	// force of one central atom given its state.
	one := func(home int, basis int8, kind centralKind, ref int32,
		pos vec.V, typ units.Element, rho float64) (vec.V, float64) {

		embedE, dFc := ff.Pot.Embed(typ, rho)
		st.Lookups++
		if typ != units.Fe {
			st.MinorityLookups++
		}
		e := embedE
		f := vec.Zero
		st.Visits += ff.eachCandidate(s, home, basis, kind, ref, true, func(cd candidate) {
			d := pos.Sub(cd.pos)
			r2 := d.Norm2()
			if r2 == 0 {
				st.Coincident++
				return
			}
			if r2 >= cut2 {
				return
			}
			r := math.Sqrt(r2)
			phi, dphi := ff.Pot.Pair(typ, cd.typ, r)
			_, dfij := ff.Pot.Density(typ, cd.typ, r)
			_, dfji := ff.Pot.Density(cd.typ, typ, r)
			_, dFj := ff.Pot.Embed(cd.typ, cd.rho)
			scalar := pairScalar(dphi, dFc*dfij, dFj*dfji, typ, cd.typ, rho, cd.rho)
			f = f.MulAdd(-scalar/r, d)
			e += 0.5 * phi
			st.Pairs++
			st.Lookups += 4
			if typ != units.Fe || cd.typ != units.Fe {
				st.MinorityLookups += 3
			}
			if cd.typ != units.Fe {
				st.MinorityLookups++
			}
		})
		return f, e
	}

	s.Box.EachOwnedCellRange(lo, hi, func(c lattice.Coord, local int) {
		if !s.IsVacancy(local) {
			st.Atoms++
			f, e := one(local, c.B, residentCentral, 0,
				s.R[local], s.Type[local], s.Rho[local])
			s.F[local] = f
			energy += e
		}
		s.EachRunaway(local, func(ref int32, a *neighbor.Runaway) {
			st.Atoms++
			f, e := one(local, c.B, runawayCentral, ref, a.R, a.Type, a.Rho)
			a.F = f
			energy += e
		})
	})
	return st, energy
}
