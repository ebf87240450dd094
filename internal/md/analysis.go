package md

import (
	"math"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
)

// DefectStats summarizes the point-defect population of the simulation in
// Wigner-Seitz terms: a lattice site missing its atom is a vacancy, an atom
// anchored away from an empty home (chained as a run-away) pairs with one.
type DefectStats struct {
	Vacancies int
	Runaways  int // displaced atoms (interstitial population)
	// FrenkelPairs is min(Vacancies, Runaways): complete vacancy-
	// interstitial pairs.
	FrenkelPairs int
	// MaxDisplacement is the largest displacement of any resident atom from
	// its lattice site (Å).
	MaxDisplacement float64
}

// Defects returns the global defect statistics (collective).
func (r *Rank) Defects() DefectStats {
	var maxDisp2 float64
	vac := float64(r.Store.CountVacancies())
	run := float64(CountOwnedRunaways(r.Store))
	r.Box.EachOwned(func(c lattice.Coord, local int) {
		if r.Store.IsVacancy(local) {
			return
		}
		d2 := r.Store.R[local].Sub(r.L.Position(c)).Norm2()
		if d2 > maxDisp2 {
			maxDisp2 = d2
		}
	})
	tot := r.Comm.Allreduce(mpi.Sum, vac, run)
	mx := r.Comm.Allreduce(mpi.Max, maxDisp2)
	st := DefectStats{
		Vacancies:       int(tot[0] + 0.5),
		Runaways:        int(tot[1] + 0.5),
		MaxDisplacement: math.Sqrt(mx[0]),
	}
	st.FrenkelPairs = st.Vacancies
	if st.Runaways < st.Vacancies {
		st.FrenkelPairs = st.Runaways
	}
	return st
}
