package kmc

import (
	"bytes"
	"fmt"
	"testing"

	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
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
// 2-rank world, every rank's NewState, under each protocol. Past the first
// iteration eam.Shared hands out the built potential, so this times the
// rank-dependent work; the traditional protocol's 16 dense ghost classes
// make its halo.Build the larger share.
func BenchmarkNewState(b *testing.B) {
	for _, proto := range []Protocol{OnDemand, Traditional} {
		b.Run(proto.String(), func(b *testing.B) {
			cfg := annealConfig()
			cfg.Protocol = proto
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mpi.NewWorld(cfg.Ranks()).Run(func(c *mpi.Comm) {
					if _, err := NewState(cfg, c); err != nil {
						b.Error(err)
					}
				})
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

// BenchmarkKMCEventCost is the per-event cost of the rate engine on one
// rank as the subdomain grows (ROADMAP item 21): 16³, 64³ and 96³ cells at
// vacancy concentration 4e-3, timed after 200 warm-up cycles. It runs whole
// cycles until b.N events have executed (a cycle executes about one on
// one rank, sometimes none). Besides µs per executed event it reports, per
// event, the ΔE evaluations (kmc/hop-evaluations) and the cache entries
// read by the sector sums and the selection walk (kmc/rate-visits), which
// do not depend on the host.
func BenchmarkKMCEventCost(b *testing.B) {
	for _, cells := range []int{16, 64, 96} {
		cfg := DefaultConfig()
		cfg.Cells = [3]int{cells, cells, cells}
		cfg.VacancyConcentration = 4e-3
		cfg.Seed = 3
		var st *State
		mpi.NewWorld(1).Run(func(c *mpi.Comm) {
			s, err := NewState(cfg, c)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				s.Cycle()
			}
			st = s
		})
		b.Run(fmt.Sprintf("cells-%d", cells), func(b *testing.B) {
			var evals, visits telemetry.Counter
			st.tel.hopEvals, st.tel.visits = &evals, &visits
			events := 0
			for events < b.N {
				events += st.Cycle()
			}
			b.StopTimer()
			per := func(n int64) float64 { return float64(n) / float64(events) }
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(events), "µs/event")
			b.ReportMetric(per(evals.Value()), "evals/event")
			b.ReportMetric(per(visits.Value()), "visits/event")
		})
	}
}

// BenchmarkRankFile times Save into memory and Restore from it on rank 0 of
// the kmc-anneal world (32×16×16 cells on 2×1×1, ghosts included), ten
// cycles in.
func BenchmarkRankFile(b *testing.B) {
	cfg := annealConfig()
	var st *State
	mpi.NewWorld(cfg.Ranks()).Run(func(c *mpi.Comm) {
		s, err := NewState(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			s.Cycle()
		}
		if c.Rank() == 0 {
			st = s
		}
	})
	var file bytes.Buffer
	if err := st.Save(&file); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			file.Reset()
			if err := st.Save(&file); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(file.Len())/float64(len(st.Occ)), "B/site")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := st.Restore(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
