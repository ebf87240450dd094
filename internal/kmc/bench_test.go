package kmc

import (
	"testing"

	"mdkmc/internal/mpi"
)

// BenchmarkKMCCycle contrasts the incremental event-rate cache against the
// full-rescan reference on a 20^3-cell box, at the paper-like vacancy
// concentration (1e-4) and at 10x (1e-3), where the rescan's
// O(events x vacancies) structure dominates. Trajectories are bit-identical
// between the two modes; only the cost differs.
func BenchmarkKMCCycle(b *testing.B) {
	for _, conc := range []struct {
		name string
		c    float64
	}{{"conc-1e-4", 1e-4}, {"conc-1e-3", 1e-3}} {
		for _, mode := range []struct {
			name   string
			rescan bool
		}{{"incremental", false}, {"full-rescan", true}} {
			conc, mode := conc, mode
			b.Run(conc.name+"/"+mode.name, func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Cells = [3]int{20, 20, 20}
				cfg.VacancyConcentration = conc.c
				w := mpi.NewWorld(1)
				w.Run(func(c *mpi.Comm) {
					st, err := NewState(cfg, c)
					if err != nil {
						b.Fatal(err)
					}
					st.fullRescan = mode.rescan
					b.ReportAllocs()
					b.ResetTimer()
					events := 0
					for i := 0; i < b.N; i++ {
						events += st.Cycle()
					}
					b.StopTimer()
					b.ReportMetric(float64(events)/float64(b.N), "events/cycle")
				})
			})
		}
	}
}
