package eam

import (
	"fmt"

	"mdkmc/internal/units"
)

// Mode selects how the potential is evaluated. The values are recorded in
// md.Config.Hash, so they are never renumbered.
type Mode int

const (
	// Analytic evaluates the underlying closed-form functions directly;
	// the ground truth the tables are checked against.
	Analytic Mode = iota
	// Compacted evaluates through the compacted value tables with on-the-fly
	// coefficient reconstruction (the paper's optimization, 39 KB/table).
	Compacted
)

func (m Mode) String() string {
	switch m {
	case Analytic:
		return "analytic"
	case Compacted:
		return "compacted"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Potential is the complete EAM parametrization for a set of species: pair
// and density tables for every species pair, and an embedding table per
// species. The rMin..Cutoff range covers the short-range ZBL core needed by
// cascade collisions. A built Potential is never written to: Shared hands
// one instance to every rank and job of the process.
type Potential struct {
	Mode     Mode
	Cutoff   float64
	RMin     float64
	Elements []units.Element

	pair  [units.NumElements][units.NumElements]*Table
	dens  [units.NumElements][units.NumElements]*Table
	embed [units.NumElements]*Table

	points int // table segments, the resolution Shared keys on
	rhoMax float64
}

// tableRMin is the smallest tabulated separation (Å). Distances of closest
// approach at the keV cascade energies simulated here stay well above it.
const tableRMin = 0.05

// NewFe builds the single-species iron potential with the given evaluation
// mode and table resolution (use TablePoints for the paper's layout). Each
// call builds fresh tables; the engines take theirs from Shared.
func NewFe(mode Mode, points int) *Potential {
	return build(mode, points, []units.Element{units.Fe})
}

// NewFeCu builds the two-species iron-copper alloy potential, the path that
// needs multiple interpolation tables per kind ("Taking the Fe-Cu alloy as
// an example, there are three kinds of electron cloud density tables").
func NewFeCu(mode Mode, points int) *Potential {
	return build(mode, points, []units.Element{units.Fe, units.Cu})
}

// CutoffOf returns the interaction cutoff in Å of a potential over the given
// element set — the largest pair cutoff, what Potential.Cutoff holds — without
// building any table.
func CutoffOf(elems ...units.Element) float64 {
	var cutoff float64
	for _, a := range elems {
		for _, b := range elems {
			if c := CutoffFor(a, b); c > cutoff {
				cutoff = c
			}
		}
	}
	return cutoff
}

func build(mode Mode, points int, elems []units.Element) *Potential {
	p := &Potential{Mode: mode, RMin: tableRMin, Elements: elems, Cutoff: CutoffOf(elems...), points: points}
	// ρ range: several times the perfect-crystal density leaves room for
	// the strongly compressed environments inside a cascade core.
	for _, a := range elems {
		rho := EquilibriumDensity(a, units.LatticeConstantFe)
		if 8*rho > p.rhoMax {
			p.rhoMax = 8 * rho
		}
	}
	for _, a := range elems {
		for _, b := range elems {
			a, b := a, b
			p.pair[a][b] = NewTable(func(r float64) float64 {
				v, _ := PairAnalytic(a, b, r)
				return v
			}, tableRMin, p.Cutoff, points)
			p.dens[a][b] = NewTable(func(r float64) float64 {
				v, _ := DensityAnalytic(a, b, r)
				return v
			}, tableRMin, p.Cutoff, points)
		}
		a := a
		p.embed[a] = NewTable(func(rho float64) float64 {
			v, _ := EmbedAnalytic(a, rho)
			return v
		}, 0, p.rhoMax, points)
	}
	return p
}

// Pair returns φ_ab(r) and its derivative.
func (p *Potential) Pair(a, b units.Element, r float64) (v, dv float64) {
	if r >= p.Cutoff {
		return 0, 0
	}
	if p.Mode == Analytic {
		return PairAnalytic(a, b, r)
	}
	return p.pair[a][b].Eval(r)
}

// Density returns f_ab(r) — the density a neighbor of species b contributes
// at a host of species a — and its derivative.
func (p *Potential) Density(a, b units.Element, r float64) (v, dv float64) {
	if r >= p.Cutoff {
		return 0, 0
	}
	if p.Mode == Analytic {
		return DensityAnalytic(a, b, r)
	}
	return p.dens[a][b].Eval(r)
}

// PairDensity is the fused per-pair evaluation of the force kernel's three
// r-indexed lookups: φ_ab(r) with its derivative, plus both directed
// density contributions f_ab(r) (a neighbor of species b seen from a host
// of species a) and f_ba(r). All pair and density tables are built on the
// same [RMin, Cutoff] grid, so the segment index (x-X0)/Dx — and whether
// the segment is interior — is computed once and reused across the three
// tables; for a == b the two density directions are the same table and are
// evaluated once. Every returned value is bitwise identical to the
// corresponding separate Pair/Density call, and to what PairDensityRecords
// (block.go) returns for the pair.
func (p *Potential) PairDensity(a, b units.Element, r float64) (phi, dphi, fab, dfab, fba, dfba float64) {
	if r >= p.Cutoff {
		return
	}
	if p.Mode == Analytic {
		phi, dphi = PairAnalytic(a, b, r)
		fab, dfab = DensityAnalytic(a, b, r)
		if a == b {
			fba, dfba = fab, dfab
		} else {
			fba, dfba = DensityAnalytic(b, a, r)
		}
		return
	}
	pt, dt := p.pair[a][b], p.dens[a][b]
	i, u := pt.locate(r)
	if pt.interior(i) {
		phi, dphi = pt.innerSeg(i, u)
		fab, dfab = dt.innerSeg(i, u)
	} else {
		phi, dphi = pt.edgeSeg(i, u)
		fab, dfab = dt.edgeSeg(i, u)
	}
	if a == b {
		fba, dfba = fab, dfab
	} else {
		fba, dfba = p.dens[b][a].evalSeg(i, u)
	}
	return
}

// PairDensityEvals returns the number of interpolation-table evaluations one
// PairDensity call issues for the species pair (the OpStats bookkeeping of
// the fused kernel): the pair table plus one density table when the two
// directions coincide, two otherwise.
func PairDensityEvals(a, b units.Element) int64 {
	if a == b {
		return 2
	}
	return 3
}

// Embed returns F_a(ρ) and its derivative.
func (p *Potential) Embed(a units.Element, rho float64) (v, dv float64) {
	if p.Mode == Analytic {
		return EmbedAnalytic(a, rho)
	}
	return p.embed[a].Eval(rho)
}

// RhoMax returns the upper bound of the embedding table's density range.
func (p *Potential) RhoMax() float64 { return p.rhoMax }

// TableBytes returns the per-table memory of the compacted layout the
// potential holds and of the traditional 7-coefficient-row layout it replaces
// (LAMMPS, CoMD), both at the potential's resolution — the quantities
// compared against the 64 KB local store in §2.1.2.
func (p *Potential) TableBytes() (compacted, traditional int) {
	t := p.pair[p.Elements[0]][p.Elements[0]]
	return t.Bytes(), 7 * 8 * t.N()
}
