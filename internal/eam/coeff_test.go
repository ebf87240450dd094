package eam

import (
	"testing"

	"mdkmc/internal/units"
)

// CoeffTable is the *traditional* interpolation-table layout used by LAMMPS
// and CoMD and contrasted in the paper: one row of 7 precomputed
// coefficients per segment — columns 3-6 the cubic's coefficients, columns
// 0-2 the coefficients of its derivative (~273 KB at 5000 rows, too large
// for the 64 KB local store). The simulation evaluates only the compacted
// Table; this layout is the oracle the compacted one is checked against.
type CoeffTable struct {
	X0 float64
	Dx float64
	C  [][7]float64
}

// BuildCoeff expands a compacted table into the traditional coefficient
// layout. Both layouts then evaluate to bit-comparable results, which is the
// cross-validation property the tests rely on.
func BuildCoeff(t *Table) *CoeffTable {
	n := t.N()
	ct := &CoeffTable{X0: t.X0, Dx: t.Dx, C: make([][7]float64, n)}
	for i := 0; i < n; i++ {
		s0, s1 := t.S[i], t.S[i+1]
		d0 := t.nodeDeriv(i) * t.Dx
		d1 := t.nodeDeriv(i+1) * t.Dx
		delta := s1 - s0
		c2 := 3*delta - 2*d0 - d1
		c3 := d0 + d1 - 2*delta
		// Cubic in u: s0 + d0 u + c2 u² + c3 u³ (columns 3-6),
		// derivative in u: d0 + 2 c2 u + 3 c3 u² (columns 0-2).
		ct.C[i] = [7]float64{d0, 2 * c2, 3 * c3, s0, d0, c2, c3}
	}
	return ct
}

// Eval returns the value and derivative at x from the precomputed
// coefficients.
func (ct *CoeffTable) Eval(x float64) (v, dv float64) {
	s := (x - ct.X0) / ct.Dx
	n := len(ct.C)
	var i int
	var u float64
	switch {
	case s <= 0:
		i, u = 0, 0
	case s >= float64(n):
		i, u = n-1, 1
	default:
		i = int(s)
		u = s - float64(i)
	}
	c := &ct.C[i]
	v = c[3] + u*(c[4]+u*(c[5]+u*c[6]))
	dv = (c[0] + u*(c[1]+u*c[2])) / ct.Dx
	return
}

// BenchmarkAblationTableCompaction contrasts evaluation through the two
// table layouts (identical results; the compacted layout trades arithmetic
// for 7x less memory).
func BenchmarkAblationTableCompaction(b *testing.B) {
	pot := NewFe(Compacted, TablePoints)
	fe := units.Fe
	compacted, traditional := pot.TableBytes()
	pair, dens := BuildCoeff(pot.pair[fe][fe]), BuildCoeff(pot.dens[fe][fe])
	for _, l := range []struct {
		name       string
		bytes      int
		pair, dens func(float64) (float64, float64)
	}{
		{"traditional", traditional, pair.Eval, dens.Eval},
		{"compacted", compacted, pot.pair[fe][fe].Eval, pot.dens[fe][fe].Eval},
	} {
		b.Run(l.name, func(b *testing.B) {
			r := 2.2
			for i := 0; i < b.N; i++ {
				_, _ = l.pair(r)
				_, _ = l.dens(r)
				r += 1e-7
				if r > 3.3 {
					r = 2.2
				}
			}
			b.ReportMetric(float64(l.bytes), "table-bytes")
		})
	}
}
