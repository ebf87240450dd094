package md

import (
	"fmt"
	"runtime"
	"testing"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// BenchmarkMDStep measures one velocity-Verlet step — two force passes plus
// ghost protocol and relinking — on the 20³-cell box (16,000 atoms,
// compacted 5000-point tables, 600 K) for the serial reference and the
// worker pool (`make bench-md`; numbers recorded in EXPERIMENTS.md). The
// equivalence tests prove every worker count produces bit-identical
// results, so this measures wall-clock only. The cascade cases add a 1 keV
// PKA and start timing once it has run away, so the wide walk of the sites
// near its chain is in the step; they report the share of owned sites that
// walk it (near-share).
func BenchmarkMDStep(b *testing.B) {
	for _, cascade := range []bool{false, true} {
		for _, workers := range benchWorkerCounts() {
			name := fmt.Sprintf("workers=%d", workers)
			if cascade {
				name = "cascade/" + name
			}
			b.Run(name, func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Cells = [3]int{20, 20, 20}
				cfg.Temperature = 600
				cfg.Workers = workers
				if cascade {
					cfg.PKA = &PKA{Energy: 1000}
				}
				w := mpi.NewWorld(1)
				w.Run(func(c *mpi.Comm) {
					r, err := NewRank(cfg, c)
					if err != nil {
						panic(err)
					}
					for cascade && CountOwnedRunaways(r.Store) == 0 {
						if r.StepCount == 20 {
							b.Errorf("no run-away after %d steps of a 1 keV PKA", r.StepCount)
							return
						}
						r.Step()
					}
					reg := telemetry.New(c.Rank())
					r.Pool.AttachTelemetry(reg)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r.Step()
					}
					b.StopTimer()
					b.ReportMetric(busyImbalance(poolMetric(b, reg, "md/pool/force-busy")), "imbalance")
					// What TestRankMemoryPerAtom pins, after the steps.
					b.ReportMetric(float64(r.MemoryBytes())/float64(CountOwnedAtoms(r.Store)), "B/atom")
					if cascade {
						near := 0
						r.Box.EachOwned(func(_ lattice.Coord, local int) {
							if r.Store.ChainNear(local) {
								near++
							}
						})
						b.ReportMetric(float64(near)/float64(r.Box.NumOwnedSites()), "near-share")
					}
				})
			})
		}
	}
}

// benchWorkerCounts is {1, 4, NumCPU} deduplicated: the serial reference,
// the acceptance point, and whatever the host offers.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n > 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}
