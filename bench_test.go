// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 9-17) plus the ablation benches called out in DESIGN.md §5.
// Each figure bench exercises the real implementation at laptop scale and
// reports the figure's headline quantity as a custom metric; the
// paper-scale series are printed by cmd/figures.
//
// Run with:
//
//	go test -bench=. -benchmem
package mdkmc_test

import (
	"strconv"
	"testing"

	"mdkmc"
	"mdkmc/internal/eam"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/neighbor"
	"mdkmc/internal/perf"
	"mdkmc/internal/rng"
	"mdkmc/internal/units"
	"mdkmc/internal/vec"
)

// ---------- Figure 9: MD optimization ablation ----------

func BenchmarkFig09MDOptimizations(b *testing.B) {
	variants := []md.KernelVariant{
		md.VariantTraditional, md.VariantCompacted,
		md.VariantCompactedReuse, md.VariantFull,
	}
	for _, v := range variants {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			cfg := md.DefaultConfig()
			// Large enough that each CPE's slab spans several LDM blocks,
			// so the reuse and double-buffer variants differ.
			cfg.Cells = [3]int{24, 24, 24}
			cfg.Temperature = 600
			w := mpi.NewWorld(1)
			w.Run(func(c *mpi.Comm) {
				rank, err := md.NewRank(cfg, c)
				if err != nil {
					b.Fatal(err)
				}
				rank.Kernel = md.NewCPEKernel(rank.FF, v)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rank.Step()
				}
				b.StopTimer()
				b.ReportMetric(rank.Kernel.StepTime/float64(b.N)*1e6,
					"virtual-us/step")
				ops, bytes := rank.Kernel.CG.TotalDMA()
				b.ReportMetric(float64(ops)/float64(1), "dma-ops/last-pass")
				b.ReportMetric(float64(bytes), "dma-bytes/last-pass")
			})
		})
	}
}

// ---------- Figures 10/11: MD strong and weak scaling ----------

func benchMDScaling(b *testing.B, cells, grid [3]int) {
	cfg := md.DefaultConfig()
	cfg.Cells = cells
	cfg.Grid = grid
	cfg.TablePoints = 1000
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		rank, err := md.NewRank(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			rank.Step()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
			b.ReportMetric(float64(cfg.NumAtoms())*float64(b.N), "atom-steps")
		}
	})
}

func BenchmarkFig10MDStrongScaling(b *testing.B) {
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		g := g
		b.Run(benchName("ranks", g[0]*g[1]*g[2]), func(b *testing.B) {
			benchMDScaling(b, [3]int{12, 12, 12}, g)
		})
	}
}

func BenchmarkFig11MDWeakScaling(b *testing.B) {
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		g := g
		b.Run(benchName("ranks", g[0]*g[1]*g[2]), func(b *testing.B) {
			benchMDScaling(b, [3]int{8 * g[0], 8 * g[1], 8 * g[2]}, g)
		})
	}
}

// ---------- Figures 12/13: KMC communication ----------

func benchKMCComm(b *testing.B, proto kmc.Protocol) {
	cfg := kmc.DefaultConfig()
	cfg.Cells = [3]int{22, 22, 11}
	cfg.Grid = [3]int{2, 2, 1}
	cfg.VacancyConcentration = 5e-4
	cfg.Protocol = proto
	w := mpi.NewWorld(cfg.Ranks())
	stats := make([]mpi.Stats, cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		base := st.Stats()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			st.Cycle()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
		s := st.Stats()
		stats[c.Rank()] = mpi.Stats{
			BytesSent: s.BytesSent - base.BytesSent,
			MsgsSent:  s.MsgsSent - base.MsgsSent,
		}
	})
	var bytes, msgs int64
	for _, s := range stats {
		bytes += s.BytesSent
		msgs += s.MsgsSent
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "comm-bytes/cycle")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/cycle")
	// The Figure 13 conversion: alpha-beta network time per cycle.
	t := perf.DefaultCommTime
	b.ReportMetric((t.Alpha*float64(msgs)+t.Beta*float64(bytes))/float64(b.N)*1e6,
		"modeled-comm-us/cycle")
}

func BenchmarkFig12KMCCommVolume(b *testing.B) {
	for _, proto := range []kmc.Protocol{kmc.Traditional, kmc.OnDemand} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) { benchKMCComm(b, proto) })
	}
}

func BenchmarkFig13KMCCommTime(b *testing.B) {
	for _, proto := range []kmc.Protocol{kmc.Traditional, kmc.OnDemand, kmc.OnDemandOneSided} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) { benchKMCComm(b, proto) })
	}
}

// ---------- Figures 14/15: KMC scaling ----------

func benchKMCScaling(b *testing.B, cells, grid [3]int) {
	cfg := kmc.DefaultConfig()
	cfg.Cells = cells
	cfg.Grid = grid
	cfg.VacancyConcentration = 1e-3
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			st.Cycle()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkFig14KMCStrongScaling(b *testing.B) {
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		g := g
		b.Run(benchName("ranks", g[0]*g[1]*g[2]), func(b *testing.B) {
			benchKMCScaling(b, [3]int{22, 22, 11}, g)
		})
	}
}

func BenchmarkFig15KMCWeakScaling(b *testing.B) {
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}} {
		g := g
		b.Run(benchName("ranks", g[0]*g[1]*g[2]), func(b *testing.B) {
			benchKMCScaling(b, [3]int{11 * g[0], 11 * g[1], 11 * g[2]}, g)
		})
	}
}

// ---------- Figure 16: coupled weak scaling ----------

func BenchmarkFig16CoupledWeakScaling(b *testing.B) {
	for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}} {
		g := g
		b.Run(benchName("ranks", g[0]*g[1]*g[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := mdkmc.CoupledConfig{
					MD: func() md.Config {
						m := md.DefaultConfig()
						m.Cells = [3]int{8 * g[0], 8 * g[1], 8 * g[2]}
						m.Grid = g
						m.Steps = 20
						m.Dt = 2e-4
						m.Temperature = 300
						m.TablePoints = 500
						m.PKA = &md.PKA{Energy: 150}
						return m
					}(),
					KMCCycles: 5,
					Protocol:  kmc.OnDemand,
				}
				if _, err := mdkmc.RunCoupled(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- Figure 17: vacancy clustering ----------

func BenchmarkFig17VacancyClustering(b *testing.B) {
	cfg := kmc.DefaultConfig()
	cfg.Cells = [3]int{14, 14, 14}
	cfg.VacancyConcentration = 0.004
	var clustered float64
	for i := 0; i < b.N; i++ {
		res, err := mdkmc.RunKMC(cfg, 40, 0)
		if err != nil {
			b.Fatal(err)
		}
		clustered = res.Clusters.ClusteredFraction
	}
	b.ReportMetric(100*clustered, "clustered-%")
}

// ---------- Ablation benches (DESIGN.md §5) ----------

// BenchmarkAblationRunawayLists contrasts O(N) chained run-away pairing with
// the O(N^2) flat-array scan of the earlier design the paper improves on.
func BenchmarkAblationRunawayLists(b *testing.B) {
	l := lattice.New(16, 16, 16, units.LatticeConstantFe)
	tab := l.NeighborOffsets(3.6 + md.WideMargin)
	g, _ := lattice.NewGrid(l, 1, 1, 1)
	const n = 300 // run-away atoms
	r := rng.New(5)
	b.Run("chained", func(b *testing.B) {
		s := neighbor.NewStore(g.Box(0, tab.MaxCellReach()), tab, units.Fe)
		var anchors []int
		for i := 0; i < n; i++ {
			c := l.Coord(r.Intn(l.NumSites()))
			local := s.Box.LocalIndex(c)
			p := l.Position(c).Add(vec.V{X: 0.8})
			s.AddRunaway(local, neighbor.Runaway{ID: int64(i + 1), R: p})
			anchors = append(anchors, local)
		}
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			// Pair search: for each run-away, scan chains around its anchor.
			pairs := 0
			for _, a := range anchors {
				c := s.Box.GlobalCoord(a)
				for _, d := range s.Deltas(c.B) {
					j := a + int(d)
					if s.Head[j] != neighbor.NoRunaway {
						s.EachRunaway(j, func(_ int32, _ *neighbor.Runaway) { pairs++ })
					}
				}
			}
			_ = pairs
		}
	})
	b.Run("flat-array", func(b *testing.B) {
		// The pre-paper design: all run-aways in one array, O(N^2) pairing.
		pos := make([]vec.V, n)
		for i := range pos {
			pos[i] = l.Position(l.Coord(r.Intn(l.NumSites())))
		}
		cut2 := 3.6 * 3.6
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			pairs := 0
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && l.MinImage(pos[i], pos[j]).Norm2() < cut2 {
						pairs++
					}
				}
			}
			_ = pairs
		}
	})
}

// BenchmarkAblationTableCompaction contrasts evaluation through the two
// table layouts (identical results; the compacted layout trades arithmetic
// for 7x less memory).
func BenchmarkAblationTableCompaction(b *testing.B) {
	pot := eam.NewFe(eam.Compacted, eam.TablePoints)
	for _, mode := range []eam.Mode{eam.Traditional, eam.Compacted} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			p := pot.WithMode(mode)
			compacted, traditional := p.TableBytes()
			r := 2.2
			for i := 0; i < b.N; i++ {
				_, _ = p.Pair(units.Fe, units.Fe, r)
				_, _ = p.Density(units.Fe, units.Fe, r)
				r += 1e-7
				if r > 3.3 {
					r = 2.2
				}
			}
			if mode == eam.Compacted {
				b.ReportMetric(float64(compacted), "table-bytes")
			} else {
				b.ReportMetric(float64(traditional), "table-bytes")
			}
		})
	}
}

// BenchmarkAblationOneSidedKMC isolates the message-count benefit of the
// one-sided window over two-sided probe messaging.
func BenchmarkAblationOneSidedKMC(b *testing.B) {
	for _, proto := range []kmc.Protocol{kmc.OnDemand, kmc.OnDemandOneSided} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			cfg := kmc.DefaultConfig()
			cfg.Cells = [3]int{22, 11, 11}
			cfg.Grid = [3]int{2, 1, 1}
			cfg.VacancyConcentration = 2e-4
			cfg.Protocol = proto
			w := mpi.NewWorld(cfg.Ranks())
			var msgs int64
			w.Run(func(c *mpi.Comm) {
				st, err := kmc.NewState(cfg, c)
				if err != nil {
					b.Fatal(err)
				}
				base := st.Stats().MsgsSent
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for i := 0; i < b.N; i++ {
					st.Cycle()
				}
				c.Barrier()
				if c.Rank() == 0 {
					b.StopTimer()
					msgs = st.Stats().MsgsSent - base
				}
			})
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/cycle")
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// BenchmarkAblationAlloyTables contrasts the two minority-table strategies
// of §2.1.2 on an Fe-25%Cu alloy: the adopted dominant-resident layout vs
// the rejected register-communication distribution.
func BenchmarkAblationAlloyTables(b *testing.B) {
	for _, strat := range []md.AlloyTableStrategy{
		md.AlloyDominantResident, md.AlloyDistributedTables,
	} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			cfg := md.DefaultConfig()
			cfg.Cells = [3]int{12, 12, 12}
			cfg.CuFraction = 0.25
			cfg.Temperature = 600
			w := mpi.NewWorld(1)
			w.Run(func(c *mpi.Comm) {
				rank, err := md.NewRank(cfg, c)
				if err != nil {
					b.Fatal(err)
				}
				rank.Kernel = md.NewCPEKernel(rank.FF, md.VariantFull)
				rank.Kernel.Alloy = strat
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rank.Step()
				}
				b.StopTimer()
				b.ReportMetric(rank.Kernel.StepTime/float64(b.N)*1e6, "virtual-us/step")
			})
		})
	}
}

// BenchmarkAblationLDMConfiguration contrasts the two LDM configurations of
// §2.1.2: the user-controlled buffer the paper adopts vs the
// software-emulated cache.
func BenchmarkAblationLDMConfiguration(b *testing.B) {
	for _, cache := range []bool{false, true} {
		name := "user-controlled-buffer"
		if cache {
			name = "software-emulated-cache"
		}
		cache := cache
		b.Run(name, func(b *testing.B) {
			cfg := md.DefaultConfig()
			cfg.Cells = [3]int{12, 12, 12}
			cfg.Temperature = 600
			w := mpi.NewWorld(1)
			w.Run(func(c *mpi.Comm) {
				rank, err := md.NewRank(cfg, c)
				if err != nil {
					b.Fatal(err)
				}
				rank.Kernel = md.NewCPEKernel(rank.FF, md.VariantFull)
				rank.Kernel.SoftwareCache = cache
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rank.Step()
				}
				b.StopTimer()
				b.ReportMetric(rank.Kernel.StepTime/float64(b.N)*1e6, "virtual-us/step")
			})
		})
	}
}
