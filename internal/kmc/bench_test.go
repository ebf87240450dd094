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

// annealConfig is the 2-rank on-demand box of the kmc-anneal benchmark
// workload: 32×16×16 cells at vacancy concentration 4e-3.
func annealConfig() Config {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{32, 16, 16}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Protocol = OnDemand
	cfg.VacancyConcentration = 4e-3
	return cfg
}

// BenchmarkNewState builds the kmc-anneal world's states: per iteration one
// 2-rank world, every rank's NewState. Past the first iteration eam.Shared
// hands out the built potential, so this times the rank-dependent work.
func BenchmarkNewState(b *testing.B) {
	cfg := annealConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mpi.NewWorld(cfg.Ranks()).Run(func(c *mpi.Comm) {
			if _, err := NewState(cfg, c); err != nil {
				b.Error(err)
			}
		})
	}
}

// BenchmarkInitRho contrasts initRho with the full scan it replaced on one
// kmc-anneal rank, dilute and at Cu 0.5 (Validate's maximum), where nearly
// every site is within the shell of a non-Fe site.
func BenchmarkInitRho(b *testing.B) {
	for _, tc := range []struct {
		name string
		cu   float64
	}{{"dilute", 0}, {"Cu-0.5", 0.5}} {
		cfg := annealConfig()
		cfg.CuConcentration = tc.cu
		var st *State
		mpi.NewWorld(cfg.Ranks()).Run(func(c *mpi.Comm) {
			s, err := NewState(cfg, c)
			if err != nil {
				b.Fatal(err)
			}
			if c.Rank() == 0 {
				st = s
			}
		})
		b.Run(tc.name+"/perfect-crystal", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st.initRho()
			}
		})
		b.Run(tc.name+"/full-scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st.Rho = initRhoRef(st)
			}
		})
	}
}
