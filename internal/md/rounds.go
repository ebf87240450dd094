package md

import (
	"mdkmc/internal/neighbor"
)

// rangeFunc is the physics of one round over a contiguous range — owned
// cells or local sites, per the round — returning the operation counts and
// the range's share of the potential energy.
type rangeFunc func(ff *ForceField, s *neighbor.Store, lo, hi int) (OpStats, float64)

// round is one barrier-separated sweep of a force computation: all
// ForceChunks chunks of a round complete before any chunk of the next one
// starts, which is what lets a round read state the previous round wrote —
// the gather/reduce split of the kernel (DESIGN.md §13). Disjoint ranges of
// one round write disjoint state (the concurrency contract on
// neighbor.Store), so ForcePool runs them concurrently.
type round struct {
	spec passSpec // what the CPE cost model charges for the round
	// localSites makes the round span every local site, ghosts included,
	// instead of the owned cells.
	localSites bool
	work       rangeFunc
}

// chunk runs chunk i of the round's ForceChunks-way split and returns its
// operation counts and energy share, charging the cost model (nil = none)
// for the lattice sites the chunk streamed.
func (rd *round) chunk(ff *ForceField, s *neighbor.Store, i int, cost *CPEKernel) (OpStats, float64) {
	lo, hi := s.Box.SpanCells(ForceChunks, i)
	sites := 2 * (hi - lo)
	if rd.localSites {
		lo, hi = s.Box.SpanLocalSites(ForceChunks, i)
		sites = hi - lo
	}
	st, e := rd.work(ff, s, lo, hi)
	cost.chargeChunk(i, rd.spec, sites, st)
	return st, e
}

// kernelRounds says which rounds a force computation consists of: the
// density pass, then — after the ghost ρ exchange — the force pass. ForcePool
// executes whatever table its ForceField carries.
type kernelRounds struct {
	density, force []round
}

// noEnergy adapts a round that contributes no potential energy.
func noEnergy(f func(ff *ForceField, s *neighbor.Store, lo, hi int) OpStats) rangeFunc {
	return func(ff *ForceField, s *neighbor.Store, lo, hi int) (OpStats, float64) {
		return f(ff, s, lo, hi), 0
	}
}

// productionRounds is the kernel every run executes. The gather round
// preloads all three fused tables (pair + both density directions) and
// appends one 6-float slot per unique pair to the pair stream; the reduce
// rounds read the values back — one density float per pair side in the density
// reduce, the four force floats in the force reduce — instead of
// re-evaluating tables. The fill round streams only ρ and type in and
// F(ρ)/F'(ρ) out, with one embedding evaluation per site and no pair work
// at all.
var productionRounds = kernelRounds{
	density: []round{
		{spec: passSpec{tables: 3, inBytes: streamInDensity, perPairOut: slotFloats * 8, flopsPer: flopsPairDensity},
			work: noEnergy((*ForceField).DensityGatherRange)},
		{spec: passSpec{tables: 1, inBytes: streamInDensity, outBytes: streamOutDens, perPairIn: 8, flopsPer: 1},
			work: noEnergy((*ForceField).DensityReduceRange)},
	},
	force: []round{
		{spec: passSpec{tables: 1, inBytes: 16, outBytes: 16},
			localSites: true, work: noEnergy((*ForceField).FillEmbeddingRange)},
		{spec: passSpec{tables: 3, inBytes: streamInForce, outBytes: streamOutForce, perPairIn: 4 * 8, flopsPer: flopsPairForce},
			work: (*ForceField).ForceReduceRange},
	},
}
