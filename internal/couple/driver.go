package couple

// The run driver (DESIGN.md §10): the checkpoint / fault / preempt /
// telemetry scaffold every run shares, owned once. A run is opened (restart
// manifest, coordinator, fault plan, telemetry set, world), executed on every
// rank, and closed with the collective telemetry report; in between, the MD
// and KMC stages advance their engine and hand every step/cycle to boundary,
// the one place a run can be snapshotted, killed by an injected fault, or
// evicted. MD, KMC, coupled and campaign runs are compositions of these
// pieces and own nothing of the scaffold themselves.

import (
	"fmt"
	"io"
	"slices"

	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// RunOption customizes a RunMD / RunKMC call.
type RunOption func(*telemetry.Options)

// WithTelemetry attaches the observability layer to the run; the result's
// Telemetry field then carries the end-of-run report.
func WithTelemetry(opts telemetry.Options) RunOption {
	return func(o *telemetry.Options) { *o = opts }
}

func applyRunOptions(opts []RunOption) telemetry.Options {
	var o telemetry.Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// run is one open run: the scaffold state shared by every rank.
type run struct {
	co      *Coordinator // nil: checkpointing off
	man     *Manifest    // nil: fresh start
	set     *telemetry.Set
	world   *mpi.World
	preempt *Preemptor
}

// open is the run opening. It resolves the restart manifest — refusing one
// written by a stage this kind of run cannot resume — and builds the
// coordinator, the telemetry set and the world, arming ck's fault plan. A
// rank-count mismatch is not an error: the manifest records the source
// topology and the engines' restart call re-shards (DESIGN.md §14).
func open(ck Checkpoint, hash string, ranks int, tel telemetry.Options, stages ...string) (*run, error) {
	d := &run{preempt: ck.Preempt}
	var err error
	if ck.Dir != "" {
		if ck.Restart {
			if d.man, err = Latest(ck.Dir, hash); err != nil {
				return nil, err
			}
			if d.man != nil && !slices.Contains(stages, d.man.Stage) {
				return nil, fmt.Errorf("couple: checkpoint %d holds a %q-stage snapshot, this run resumes only %q",
					d.man.Seq, d.man.Stage, stages)
			}
		}
		if d.co, err = NewCoordinator(ck, hash); err != nil {
			return nil, err
		}
	}
	if d.set, err = telemetry.NewSet(ranks, tel); err != nil {
		return nil, err
	}
	if d.co != nil {
		d.co.set = d.set
	}
	d.world = mpi.NewWorld(ranks)
	d.world.InjectFault(ck.Faults...)
	return d, nil
}

// exec runs body on every rank of the world, then the end-of-run tail: the
// collective telemetry aggregation, stored through report and written to the
// JSONL sink by rank 0. The tail runs after body has captured its comm
// counters, so the aggregation's own traffic stays out of both. Rank
// failures — a failed constructor, an invariant panic, an injected fault —
// surface as an ordinary error (the world aborts and the first cause wins).
func (d *run) exec(report **telemetry.Report, body func(c *mpi.Comm, reg *telemetry.Registry) error) error {
	defer d.set.Close()
	return d.world.RunE(func(c *mpi.Comm) error {
		reg := d.set.Rank(c.Rank())
		c.AttachTelemetry(reg)
		if err := body(c, reg); err != nil {
			return err
		}
		// Every rank enters the aggregation or none does: set is identical
		// across ranks (nil when telemetry is disabled).
		if d.set == nil {
			return nil
		}
		rep, err := telemetry.Aggregate(c, reg)
		if err != nil || c.Rank() != 0 {
			return err
		}
		*report = rep
		return d.set.WriteReport(rep)
	})
}

// stagePoint is what a boundary needs to know about the stage it cuts: how
// its snapshots, fault points and flush labels are named, and how to save it.
type stagePoint struct {
	stage string // manifest stage
	point string // fault-injection point
	label string // telemetry flush label format, taking the boundary number
	topo  Topology
	save  func(io.Writer) error
	md    *MDSummary            // KMC stage of a coupled run
	camp  func() *CampaignState // campaign runs; built only when a snapshot is written
}

// mdPoint describes an MD stage stepping rank.
func mdPoint(rank *md.Rank) *stagePoint {
	return &stagePoint{
		stage: StageMD, point: mpi.PointMDStep, label: "md-step-%d",
		topo: Topology{Grid: rank.Cfg.Grid, Cuts: rank.Grid.Cuts()}, save: rank.Save,
	}
}

// snapshot collectively commits the stage's state as of boundary k.
func (d *run) snapshot(c *mpi.Comm, p *stagePoint, k int) error {
	var camp *CampaignState
	if p.camp != nil {
		camp = p.camp()
	}
	return d.co.snapshot(c, p.stage, k, p.topo, p.md, camp, p.save)
}

// boundary is the fixed sequence after step/cycle k of a stage: cadence
// snapshot, telemetry flush, fault point, then yield. On the stage's last
// boundary nothing is left to resume, so the snapshot and the yield are
// skipped and the run falls through to normal completion. Every guard is
// rank-uniform, keeping the collectives inside in lockstep.
func (d *run) boundary(c *mpi.Comm, p *stagePoint, k int, last bool) error {
	if !last && d.co.Due(k) {
		if err := d.snapshot(c, p, k); err != nil {
			return err
		}
	}
	if c.Rank() == 0 && d.set.FlushDue(k) {
		if err := d.set.Flush(fmt.Sprintf(p.label, k)); err != nil {
			return err
		}
	}
	c.FaultPoint(p.point, k)
	if last {
		return nil
	}
	return d.yield(c, p, k)
}

// yield is the preemption half of a boundary: a collective poll of the
// eviction request and, when it is raised, one final snapshot (with a
// coordinator configured) and ErrPreempted. Without a preemptor it costs
// nothing — no collective is entered.
func (d *run) yield(c *mpi.Comm, p *stagePoint, k int) error {
	if d.preempt == nil || !d.preempt.Poll(c) {
		return nil
	}
	if d.co != nil {
		if err := d.snapshot(c, p, k); err != nil {
			return err
		}
	}
	return ErrPreempted
}

// mdRank builds this rank's MD engine and, on a restart, loads the manifest
// into it.
func (d *run) mdRank(c *mpi.Comm, reg *telemetry.Registry, cfg md.Config) (*md.Rank, error) {
	rank, err := md.NewRank(cfg, c)
	if err != nil {
		return nil, err
	}
	rank.AttachTelemetry(reg)
	if d.man != nil {
		src, err := d.man.shards(rank.L)
		if err != nil {
			return nil, err
		}
		if err := rank.RestoreResharded(src); err != nil {
			return nil, err
		}
		if err := d.man.resumesAt(rank.StepCount); err != nil {
			return nil, err
		}
	}
	return rank, nil
}

// mdStage steps rank from local step rank.StepCount-offset to its configured
// step count. Boundaries are numbered offset+step: 0 for a plain MD stage,
// the steps of the completed iterations for a campaign's global counter.
func (d *run) mdStage(c *mpi.Comm, rank *md.Rank, p *stagePoint, offset int) error {
	steps := rank.Cfg.Steps
	for i := rank.StepCount - offset; i < steps; i++ {
		rank.Step()
		if err := d.boundary(c, p, offset+i+1, i+1 == steps); err != nil {
			return err
		}
	}
	return nil
}

// kmcState builds this rank's KMC engine and, when the restart manifest is a
// KMC-stage one, loads it.
func (d *run) kmcState(c *mpi.Comm, reg *telemetry.Registry, kcfg kmc.Config) (*kmc.State, error) {
	st, err := kmc.NewState(kcfg, c)
	if err != nil {
		return nil, err
	}
	st.AttachTelemetry(reg)
	if d.man != nil && d.man.Stage == StageKMC {
		src, err := d.man.shards(st.L)
		if err != nil {
			return nil, err
		}
		if err := st.RestoreResharded(src); err != nil {
			return nil, err
		}
		if err := d.man.resumesAt(st.Cycles); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// kmcStage cycles st until cycles cycles have run or the MC clock reaches
// tThreshold, whichever first, and returns the final state — a different one
// than st when the rebalancer (rb.Every, coupled runs) moved the slab cuts.
// summary rides in every snapshot's manifest (coupled runs).
func (d *run) kmcStage(c *mpi.Comm, reg *telemetry.Registry, st *kmc.State, cycles int, tThreshold float64,
	summary *MDSummary, rb Rebalance) (*kmc.State, error) {
	p := &stagePoint{
		stage: StageKMC, point: mpi.PointKMCCycle, label: "kmc-cycle-%d",
		topo: Topology{Grid: st.Cfg.Grid, Cuts: st.Grid.Cuts()}, save: st.Save, md: summary,
	}
	// Both stop conditions are rank-uniform: the MC clock advances by the
	// globally reduced time step.
	done := func() bool { return st.Cycles >= cycles || st.Time >= tThreshold }
	for !done() {
		st.Cycle()
		if rb.Every > 0 && st.Cycles%rb.Every == 0 && st.Cycles < cycles {
			var err error
			if st, err = rebalanceKMC(c, reg, st, st.Cfg); err != nil {
				return nil, err
			}
			p.topo.Cuts, p.save = st.Grid.Cuts(), st.Save
		}
		if err := d.boundary(c, p, st.Cycles, done()); err != nil {
			return nil, err
		}
	}
	return st, nil
}
