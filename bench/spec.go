package main

// The benchmark's names are declared once, here. BENCHMARK.json repeats the
// workload and metric lists for the acceptance driver; bench_test.go fails
// when the two disagree.

// Workload names. Later issues cite them, so they are final.
const (
	wlMDBulk    = "md-bulk"
	wlMDCascade = "md-cascade"
	wlKMCAnneal = "kmc-anneal"
	wlCampaign  = "campaign-ckpt"
	wlServeMix  = "serve-mix"
)

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlMDBulk, "plain 1-rank 1-worker MD on a perfect crystal: kernel-bound baseline; halo and migration work must not move it"},
	{wlMDCascade, "2-rank 2 keV cascade: run-aways, relink/migration, wide scan and a real 2-rank halo exchange (pack, send, unpack)"},
	{wlKMCAnneal, "2-rank on-demand atomistic KMC on dilute random vacancies: sector sweep, sync, flush, allocation; no MD runs"},
	{wlCampaign, "coupled campaign driver with MD-to-KMC handoff on clustered debris and the checkpoint write path every 5 steps"},
	{wlServeMix, "job server over HTTP, closed loop, 2 clients: scheduler, ledger, SSE, and preempt/resume through checkpoint reads"},
}

// metricSpec declares one metric. Bound is set on end-to-end metrics only.
// Exact marks counts that must repeat exactly for one seed; On lists the
// workloads whose traced run measures a per-layer metric (empty = all) —
// elsewhere the metric is printed as 0, meaning "layer not exercised".
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
	On     []string
}

// End-to-end metrics, measured with tracing off, every one on every
// workload. work_per_s counts the workload's own unit of work: atom-steps
// (md-*), KMC events (kmc-anneal), campaign iterations (campaign-ckpt),
// finished jobs (serve-mix).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var (
	onMD       = []string{wlMDBulk, wlMDCascade}
	onBulk     = []string{wlMDBulk}
	onCascade  = []string{wlMDCascade}
	onKMC      = []string{wlKMCAnneal}
	onCampaign = []string{wlCampaign}
	onServe    = []string{wlServeMix}
	onSim      = []string{wlMDBulk, wlMDCascade, wlKMCAnneal, wlCampaign}
	onTwoRank  = []string{wlMDCascade, wlKMCAnneal}
	onKMCStage = []string{wlKMCAnneal, wlCampaign}
	onMDStage  = []string{wlMDBulk, wlMDCascade, wlCampaign}
)

// Per-layer metrics, measured in the traced run. The prefix before the first
// dot is the layer (module) name; "tel." metrics are the program's own
// telemetry spans, summed over ranks, as a share of their summed parent span.
var perLayer = []metricSpec{
	{Name: "eam.table_build_ms", Unit: "ms", Better: "lower", On: onBulk},
	{Name: "eam.pair_density_ns", Unit: "ns", Better: "lower", On: onBulk},
	{Name: "eam.table_bytes", Unit: "B", Better: "lower", Exact: true, On: onBulk},

	{Name: "neighbor.store_build_ms", Unit: "ms", Better: "lower", On: onBulk},
	{Name: "neighbor.store_bytes_per_site", Unit: "B", Better: "lower", Exact: true, On: onBulk},

	{Name: "md.atom_steps_per_s", Unit: "1/s", Better: "higher", On: onMD},
	{Name: "md.new_rank_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.step_ms_p50", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.step_ms_p98", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.density_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.force_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.ghost_pos_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.ghost_rho_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.step_rest_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.pairs_per_step", Unit: "count", Better: "lower", Exact: true, On: onMD},
	{Name: "md.lookups_per_step", Unit: "count", Better: "lower", Exact: true, On: onMD},
	{Name: "md.allocs_per_step", Unit: "count", Better: "lower", On: onMD},
	{Name: "md.save_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.restore_ms", Unit: "ms", Better: "lower", On: onMD},
	{Name: "md.ckpt_bytes_per_atom", Unit: "B", Better: "lower", Exact: true, On: onMD},
	{Name: "md.pool_speedup", Unit: "ratio", Better: "higher", On: onBulk},

	{Name: "mpi.pingpong_64k_us", Unit: "us", Better: "lower", On: onTwoRank},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower", On: onTwoRank},
	{Name: "mpi.msgs_per_step", Unit: "count", Better: "lower", Exact: true, On: onMD},
	{Name: "mpi.bytes_per_step", Unit: "B", Better: "lower", Exact: true, On: onMD},

	{Name: "kmc.events_per_s", Unit: "1/s", Better: "higher", On: onKMC},
	{Name: "kmc.new_state_ms", Unit: "ms", Better: "lower", On: onKMC},
	{Name: "kmc.cycle_us_p50", Unit: "us", Better: "lower", On: onKMC},
	{Name: "kmc.cycle_us_p99", Unit: "us", Better: "lower", On: onKMC},
	{Name: "kmc.events_per_cycle", Unit: "count", Better: "higher", Exact: true, On: onKMC},
	{Name: "kmc.msgs_per_cycle", Unit: "count", Better: "lower", Exact: true, On: onKMC},
	{Name: "kmc.bytes_per_cycle", Unit: "B", Better: "lower", Exact: true, On: onKMC},
	{Name: "kmc.alloc_bytes_per_cycle", Unit: "B", Better: "lower", On: onKMC},
	{Name: "kmc.ondemand_bytes_share", Unit: "ratio", Better: "lower", Exact: true, On: onKMC},
	{Name: "kmc.save_ms", Unit: "ms", Better: "lower", On: onKMC},
	{Name: "kmc.restore_ms", Unit: "ms", Better: "lower", On: onKMC},

	{Name: "okmc.step_us", Unit: "us", Better: "lower", On: onServe},

	{Name: "couple.snapshot_ms", Unit: "ms", Better: "lower", On: onCascade},
	{Name: "couple.snapshot_bytes", Unit: "B", Better: "lower", Exact: true, On: onCascade},
	{Name: "couple.restore_ms", Unit: "ms", Better: "lower", On: onCascade},
	{Name: "couple.reshard_restore_ms", Unit: "ms", Better: "lower", On: onCascade},
	{Name: "couple.ckpt_overhead_share", Unit: "ratio", Better: "lower", On: onCampaign},
	{Name: "couple.iterations_per_s", Unit: "1/s", Better: "higher", On: onCampaign},

	{Name: "cluster.vacancies_ms", Unit: "ms", Better: "lower", On: onCampaign},

	{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher", On: onServe},
	{Name: "serve.job_latency_p50_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.job_latency_p95_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.preempt_resume_s", Unit: "s", Better: "lower", On: onServe},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.status_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.evict_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.requeue_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.ledger_bytes", Unit: "B", Better: "lower", On: onServe},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Exact: true, On: onServe},

	{Name: "telemetry.span_ns", Unit: "ns", Better: "lower", On: onBulk},
	{Name: "telemetry.overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "sunway.virtual_us_per_step", Unit: "us", Better: "lower", Exact: true, On: onBulk},
	{Name: "sunway.dma_bytes_per_step", Unit: "B", Better: "lower", Exact: true, On: onBulk},

	{Name: "tel.md.density_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.md.force_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.md.relink_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.md.ghost_pos_wait_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.md.ghost_rho_wait_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.md.ghost_pack_unpack_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.md.migrate_share", Unit: "ratio", Better: "lower", On: onMDStage},
	{Name: "tel.kmc.sync_share", Unit: "ratio", Better: "lower", On: onKMCStage},
	{Name: "tel.kmc.sector_share", Unit: "ratio", Better: "lower", On: onKMCStage},
	{Name: "tel.kmc.flush_share", Unit: "ratio", Better: "lower", On: onKMCStage},
	{Name: "tel.couple.md_stage_share", Unit: "ratio", Better: "lower", On: onCampaign},
	{Name: "tel.couple.kmc_stage_share", Unit: "ratio", Better: "lower", On: onCampaign},
	{Name: "tel.couple.checkpoint_share", Unit: "ratio", Better: "lower", On: onCampaign},
	{Name: "tel.unattributed_share", Unit: "ratio", Better: "lower", On: onSim},

	{Name: "fail_share", Unit: "ratio", Better: "lower", Exact: true},
}

// measuredOn reports whether the traced run of workload wl measures m.
func (m metricSpec) measuredOn(wl string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, w := range m.On {
		if w == wl {
			return true
		}
	}
	return false
}
