package eam

import "mdkmc/internal/units"

// BlockLen is the number of entries a block evaluator stages at once. A
// block's segment indexes and fractions live on the stack (768 B), and 64
// entries put dozens of independent divisions in flight: a per-call lookup
// is a chain of divisions — locate, then the node derivatives, then the
// derivative's scale — a few hundred instructions long, so consecutive
// calls barely overlap in an out-of-order window.
const BlockLen = 64

// Pair records are the in-place format of PairDensityRecords, one record per
// pair. On entry a record holds r at RecPhi and, in an alloy record, the two
// species a and b (as float64) at RecFab and RecDFab; on return it holds
// what PairDensity(a, b, r) returns, at the offsets below. A record of a
// single-species potential is RecFloats floats long and keeps one density
// direction (f_ba is f_ab bitwise); an alloy record is RecFloatsAlloy long.
const (
	RecPhi  = 0 // φ_ab(r)
	RecFab  = 1 // f_ab(r)
	RecDFab = 2 // df_ab/dr
	RecDPhi = 3 // dφ_ab/dr
	RecFba  = 4 // f_ba(r), alloy records only
	RecDFba = 5 // df_ba/dr, alloy records only

	RecFloats      = 4
	RecFloatsAlloy = 6
)

// RecordFloats returns the length of one of the potential's pair records:
// RecFloats for a single-species potential, RecFloatsAlloy otherwise.
func (p *Potential) RecordFloats() int {
	if len(p.Elements) > 1 {
		return RecFloatsAlloy
	}
	return RecFloats
}

// PairDensityRecords evaluates, in place, every pair record of buf, which
// holds whole records of RecordFloats floats; every result is bit for bit
// what PairDensity returns. It works in two stages per block of BlockLen
// records: first it locates every record's segment on the grid all pair
// and density tables share (one division each, independent of each other),
// then it evaluates the tables for every record through the segment kernel
// PairDensity runs. An analytic potential evaluates record by record.
func (p *Potential) PairDensityRecords(buf []float64) {
	rf := p.RecordFloats()
	if p.Mode == Analytic {
		for ; len(buf) >= rf; buf = buf[rf:] {
			rec := buf[:rf:rf]
			a, b := p.recordSpecies(rec)
			phi, dphi, fab, dfab, fba, dfba := p.PairDensity(a, b, rec[RecPhi])
			rec[RecPhi], rec[RecFab], rec[RecDFab], rec[RecDPhi] = phi, fab, dfab, dphi
			if rf == RecFloatsAlloy {
				rec[RecFba], rec[RecDFba] = fba, dfba
			}
		}
		return
	}
	grid := p.pair[p.Elements[0]][p.Elements[0]]
	var seg [BlockLen]int32
	var frac [BlockLen]float64
	for len(buf) >= rf {
		m := min(len(buf)/rf, BlockLen)
		for k := range seg[:m] {
			i, u := grid.locate(buf[k*rf+RecPhi])
			seg[k], frac[k] = int32(i), u
		}
		if rf == RecFloatsAlloy {
			p.alloyRecords(buf[:m*rf], seg[:m], frac[:m])
		} else {
			p.singleRecords(buf[:m*rf], seg[:m], frac[:m])
		}
		buf = buf[m*rf:]
	}
}

// recordSpecies returns the species pair of a pair record: the potential's
// one element twice, or what an alloy record holds.
func (p *Potential) recordSpecies(rec []float64) (a, b units.Element) {
	if len(rec) == RecFloatsAlloy {
		return units.Element(rec[RecFab]), units.Element(rec[RecDFab])
	}
	return p.Elements[0], p.Elements[0]
}

// singleRecords is the second stage of PairDensityRecords over one block of
// a single-species potential's records, located at seg and frac: the
// tables are the same for every record, and so is whether the segment is
// interior.
func (p *Potential) singleRecords(buf []float64, seg []int32, frac []float64) {
	e := p.Elements[0]
	pt, dt := p.pair[e][e], p.dens[e][e]
	for k, i := range seg {
		rec := buf[k*RecFloats : k*RecFloats+RecFloats : k*RecFloats+RecFloats]
		if rec[RecPhi] >= p.Cutoff {
			clear(rec)
			continue
		}
		i, u := int(i), frac[k]
		if pt.interior(i) {
			rec[RecPhi], rec[RecDPhi] = pt.innerSeg(i, u)
			rec[RecFab], rec[RecDFab] = dt.innerSeg(i, u)
		} else {
			rec[RecPhi], rec[RecDPhi] = pt.edgeSeg(i, u)
			rec[RecFab], rec[RecDFab] = dt.edgeSeg(i, u)
		}
	}
}

// alloyRecords is the second stage of PairDensityRecords over one block of
// alloy records, located at seg and frac: each record names its species.
func (p *Potential) alloyRecords(buf []float64, seg []int32, frac []float64) {
	for k, i := range seg {
		rec := buf[k*RecFloatsAlloy : k*RecFloatsAlloy+RecFloatsAlloy : k*RecFloatsAlloy+RecFloatsAlloy]
		a, b := p.recordSpecies(rec)
		if rec[RecPhi] >= p.Cutoff {
			clear(rec)
			continue
		}
		i, u := int(i), frac[k]
		rec[RecPhi], rec[RecDPhi] = p.pair[a][b].evalSeg(i, u)
		rec[RecFab], rec[RecDFab] = p.dens[a][b].evalSeg(i, u)
		if a == b {
			rec[RecFba], rec[RecDFba] = rec[RecFab], rec[RecDFab]
		} else {
			rec[RecFba], rec[RecDFba] = p.dens[b][a].evalSeg(i, u)
		}
	}
}

// EmbedBlock sets v[k], dv[k] to what Embed(a[k], rho[k]) returns, bit for
// bit, for every k < len(rho); a, v and dv must be at least as long as rho.
// It stages like PairDensityRecords: all locates of a block, then all
// segment evaluations.
func (p *Potential) EmbedBlock(a []units.Element, rho, v, dv []float64) {
	a, v, dv = a[:len(rho)], v[:len(rho)], dv[:len(rho)]
	if p.Mode == Analytic {
		for k, x := range rho {
			v[k], dv[k] = p.Embed(a[k], x)
		}
		return
	}
	var seg [BlockLen]int32
	var frac [BlockLen]float64
	for len(rho) > 0 {
		m := min(len(rho), BlockLen)
		for k, x := range rho[:m] {
			i, u := p.embed[a[k]].locate(x)
			seg[k], frac[k] = int32(i), u
		}
		for k := range rho[:m] {
			v[k], dv[k] = p.embed[a[k]].evalSeg(int(seg[k]), frac[k])
		}
		a, rho, v, dv = a[m:], rho[m:], v[m:], dv[m:]
	}
}
