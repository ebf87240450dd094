package kmc

import (
	"testing"

	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// runWithTelemetry runs cycles of cfg on a fresh world with a registry
// attached per rank and returns the cross-rank aggregated report.
func runWithTelemetry(t *testing.T, cfg Config, cycles int) *telemetry.Report {
	t.Helper()
	regs := make([]*telemetry.Registry, cfg.Ranks())
	for i := range regs {
		regs[i] = telemetry.New(i)
	}
	var rep *telemetry.Report
	w := mpi.NewWorld(cfg.Ranks())
	w.Run(func(c *mpi.Comm) {
		st, err := NewState(cfg, c)
		if err != nil {
			panic(err)
		}
		st.AttachTelemetry(regs[c.Rank()])
		for i := 0; i < cycles; i++ {
			st.Cycle()
		}
		r, err := telemetry.Aggregate(c, regs[c.Rank()])
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			rep = r
		}
	})
	return rep
}

// TestRateRefreshesPerEvent pins what the read footprint saves, measured on
// the kmc-anneal benchmark shape: at most 2.1 rate-cache refreshes per
// executed event, where invalidating the whole cube of ghost-width cells
// refreshes 4.2.
func TestRateRefreshesPerEvent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{32, 16, 16}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Protocol = OnDemand
	cfg.VacancyConcentration = 4e-3
	cfg.Seed = 1
	rep := runWithTelemetry(t, cfg, 2000)
	events, refreshes := rep.CounterSum("kmc/events"), rep.CounterSum("kmc/rate-refreshes")
	if events == 0 {
		t.Fatal("no event executed")
	}
	per := float64(refreshes) / float64(events)
	t.Logf("%d refreshes for %d events: %.2f per event", refreshes, events, per)
	if per > 2.1 {
		t.Errorf("%.2f rate refreshes per event (%d for %d events), want at most 2.1", per, refreshes, events)
	}
}

// TestRateWorkPerEvent pins, on the same kmc-anneal shape, what per-hop
// staleness and the kept sector sums save per executed event: at most 13.5
// ΔE evaluations (kmc/hop-evaluations; 13.19 here, where recomputing every
// hop of a touched entry makes 14.71), and at most 12 rate-cache entries
// read by the sector sums and the selection walk (kmc/rate-visits; 9.8
// here, where re-summing every sector at every call reads 84.3).
func TestRateWorkPerEvent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cells = [3]int{32, 16, 16}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Protocol = OnDemand
	cfg.VacancyConcentration = 4e-3
	cfg.Seed = 1
	rep := runWithTelemetry(t, cfg, 2000)
	events := rep.CounterSum("kmc/events")
	if events == 0 {
		t.Fatal("no event executed")
	}
	evals := float64(rep.CounterSum("kmc/hop-evaluations")) / float64(events)
	visits := float64(rep.CounterSum("kmc/rate-visits")) / float64(events)
	t.Logf("per event over %d events: %.2f ΔE evaluations, %.1f rate-cache visits", events, evals, visits)
	if evals > 13.5 {
		t.Errorf("%.2f ΔE evaluations per event, want at most 13.5", evals)
	}
	if visits > 12 {
		t.Errorf("%.1f rate-cache visits per event, want at most 12", visits)
	}
}

// TestMeasuredOnDemandBytesBelowBand reproduces the Figure 12 contrast from
// measured telemetry counters alone: on a 2-rank split with the paper-like
// sparse vacancy concentration, the on-demand protocol's dirty-site flush
// moves strictly fewer bytes than the traditional protocol's full put-band
// exchange of the same trajectory.
func TestMeasuredOnDemandBytesBelowBand(t *testing.T) {
	cfg := testConfig()
	cfg.Cells = [3]int{22, 11, 11}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.VacancyConcentration = 5e-4
	const cycles = 5

	cfg.Protocol = Traditional
	trad := runWithTelemetry(t, cfg, cycles)
	cfg.Protocol = OnDemand
	od := runWithTelemetry(t, cfg, cycles)

	band := trad.CounterSum("kmc/ghost/band-bytes")
	dirty := od.CounterSum("kmc/ghost/dirty-bytes")
	if band == 0 {
		t.Fatal("traditional run recorded no band bytes")
	}
	if dirty == 0 {
		t.Fatal("on-demand run recorded no dirty bytes")
	}
	if dirty >= band {
		t.Errorf("on-demand dirty bytes %d not below traditional band bytes %d", dirty, band)
	}

	// Each protocol must only drive its own path's counters.
	if n := trad.CounterSum("kmc/ghost/dirty-bytes"); n != 0 {
		t.Errorf("traditional run recorded %d dirty bytes", n)
	}
	if n := od.CounterSum("kmc/ghost/band-bytes"); n != 0 {
		t.Errorf("on-demand run recorded %d band bytes", n)
	}

	// Same trajectory on both protocols: identical measured event counts.
	if te, oe := trad.CounterSum("kmc/events"), od.CounterSum("kmc/events"); te != oe {
		t.Errorf("event counters diverge across protocols: traditional %d, on-demand %d", te, oe)
	}

	// The phase spans must cover the sweep structure exactly: one cycle span
	// per cycle per rank, one sector span per sector visit.
	for _, rep := range []*telemetry.Report{trad, od} {
		if rep.Metric("kmc/cycle") == nil || rep.Metric("kmc/sector") == nil {
			t.Fatal("report is missing the cycle/sector phase timers")
		}
		if n := rep.Metric("kmc/cycle").Count; n != int64(cycles*2) {
			t.Errorf("cycle span count %d, want %d (%d cycles x 2 ranks)", n, cycles*2, cycles)
		}
		if n := rep.Metric("kmc/sector").Count; n != int64(cycles*8*2) {
			t.Errorf("sector span count %d, want %d (%d cycles x 8 sectors x 2 ranks)", n, cycles*8*2, cycles)
		}
	}
}
