package couple

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// The boundary contract of the run driver, checked once over every entry
// point. All cases share one small box; the writer runs on two ranks and the
// elastic resume on one.
var (
	contractCells = [3]int{16, 8, 8}
	writerGrid    = [3]int{2, 1, 1}
	reshardGrid   = [3]int{1, 1, 1}
)

const (
	contractSteps  = 12
	contractCycles = 8
)

// outcome is what a contract case reports of one run: its physics (compared
// with reflect.DeepEqual, so comm counters and telemetry are stripped), the
// vacancy census a re-shard must conserve, and rank 0's comm counters.
type outcome struct {
	physics   any
	vacancies int
	comm      mpi.Stats
}

// runFn executes one entry point on grid with the runtime machinery given.
type runFn func(grid [3]int, ck Checkpoint, p *Preemptor, tel telemetry.Options) (outcome, error)

func contractMD() md.Config {
	cfg := md.DefaultConfig()
	cfg.Cells = contractCells
	cfg.Temperature = 300
	cfg.Dt = 2e-4
	cfg.Steps = contractSteps
	cfg.TablePoints = 500
	return cfg
}

func contractKMC() kmc.Config {
	cfg := kmc.DefaultConfig()
	cfg.Cells = contractCells
	cfg.VacancyConcentration = 0.004
	return cfg
}

func contractCoupled() Config {
	mcfg := contractMD()
	mcfg.PKA = &md.PKA{Energy: 300}
	return Config{MD: mcfg, KMCCycles: contractCycles, Protocol: kmc.OnDemand}
}

func contractCampaign() Config {
	cfg := Config{MD: contractMD(), KMCCycles: 4, Protocol: kmc.OnDemand}
	cfg.Campaign = CampaignSpec{Iters: 2, DoseIncrement: 2e-3, Energy: 300}
	return cfg
}

func runMDCase(grid [3]int, ck Checkpoint, p *Preemptor, tel telemetry.Options) (outcome, error) {
	cfg := contractMD()
	cfg.Grid = grid
	ck.Preempt = p
	res, err := RunMD(cfg, ck, WithTelemetry(tel))
	if err != nil {
		return outcome{}, err
	}
	o := outcome{vacancies: res.Vacancies, comm: res.Comm}
	res.Comm, res.Telemetry = mpi.Stats{}, nil
	o.physics = *res
	return o, nil
}

func runKMCCase(grid [3]int, ck Checkpoint, p *Preemptor, tel telemetry.Options) (outcome, error) {
	cfg := contractKMC()
	cfg.Grid = grid
	ck.Preempt = p
	res, err := RunKMC(cfg, contractCycles, 0, ck, WithTelemetry(tel))
	if err != nil {
		return outcome{}, err
	}
	o := outcome{vacancies: res.Vacancies, comm: res.Comm}
	res.Comm, res.Telemetry = mpi.Stats{}, nil
	o.physics = *res
	return o, nil
}

func runCoupledCase(grid [3]int, ck Checkpoint, p *Preemptor, tel telemetry.Options) (outcome, error) {
	cfg := contractCoupled()
	ck.Preempt = p
	cfg.MD.Grid, cfg.Checkpoint, cfg.Telemetry = grid, ck, tel
	res, err := Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{vacancies: res.VacanciesKMC, comm: res.CommStats}
	res.CommStats, res.Telemetry = mpi.Stats{}, nil
	o.physics = *res
	return o, nil
}

func runCampaignCase(grid [3]int, ck Checkpoint, p *Preemptor, tel telemetry.Options) (outcome, error) {
	cfg := contractCampaign()
	ck.Preempt = p
	cfg.MD.Grid, cfg.Checkpoint, cfg.Telemetry = grid, ck, tel
	res, err := RunCampaign(cfg)
	if err != nil {
		return outcome{}, err
	}
	// The re-shard conserves what the MD side produced; the anneal follows
	// the new decomposition's KMC streams.
	o := outcome{comm: res.CommStats}
	for _, row := range res.Ledger {
		o.vacancies += row.NewVacancies
	}
	res.CommStats, res.Telemetry = mpi.Stats{}, nil
	o.physics = *res
	return o, nil
}

// requestAt arms telemetry so that p is requested during the flush labelled
// label. The flush runs on rank 0 inside the boundary, ahead of the poll, so
// the request is seen at exactly that boundary — no goroutine races.
func requestAt(p *Preemptor, label string) telemetry.Options {
	return telemetry.Options{Enabled: true, FlushEvery: 1, OnFlush: func(l string) {
		if l == label {
			p.Request()
		}
	}}
}

func TestBoundaryContract(t *testing.T) {
	mdCfg, kmcCfg, coupledCfg, campaignCfg := contractMD(), contractKMC(), contractCoupled(), contractCampaign()
	// RunKMC's stop conditions join its digest, in the format manifests on
	// disk already carry.
	kmcHash := KMCRunHash(kmcCfg, contractCycles, 0)
	if want := fmt.Sprintf("%s|cycles=%d|tthr=+Inf", kmcCfg.Hash(), contractCycles); kmcHash != want {
		t.Fatalf("KMCRunHash = %q, want %q: manifests of earlier runs would no longer load", kmcHash, want)
	}
	midIteration := func(t *testing.T, man *Manifest) {
		if man.Campaign.Iter != 1 || man.Campaign.Pending == nil {
			t.Errorf("mid-iteration manifest iter=%d pending=%v, want iter 1 with the pending injection",
				man.Campaign.Iter, man.Campaign.Pending != nil)
		}
	}
	atIterationBoundary := func(t *testing.T, man *Manifest) {
		if man.Campaign.Iter != 1 || man.Campaign.Pending != nil || len(man.Campaign.Trajectory) != 1 {
			t.Errorf("boundary manifest iter=%d pending=%v rows=%d, want iter 1, no pending, 1 ledger row",
				man.Campaign.Iter, man.Campaign.Pending != nil, len(man.Campaign.Trajectory))
		}
	}

	cases := []struct {
		name  string
		run   runFn
		hash  string
		at    string // flush label of the boundary the request is raised at
		stage string // manifest the eviction must leave behind
		step  int
		final string // the run's last boundary: a request there completes normally
		polls int64  // boundaries an armed-but-idle preemptor polls
		check func(*testing.T, *Manifest)
	}{
		{name: "md", run: runMDCase, hash: mdCfg.Hash(),
			at: "md-step-5", stage: StageMD, step: 5,
			final: "md-step-12", polls: contractSteps - 1},
		{name: "kmc", run: runKMCCase, hash: kmcHash,
			at: "kmc-cycle-3", stage: StageKMC, step: 3,
			final: "kmc-cycle-8", polls: contractCycles - 1},
		{name: "coupled/md-stage", run: runCoupledCase, hash: coupledCfg.Hash(),
			at: "md-step-5", stage: StageMD, step: 5,
			final: "kmc-cycle-8", polls: contractSteps - 1 + contractCycles - 1},
		// The MD stage's last boundary does not yield; the request is honored
		// at the first boundary of the KMC stage.
		{name: "coupled/handoff", run: runCoupledCase, hash: coupledCfg.Hash(),
			at: "md-step-12", stage: StageKMC, step: 1,
			final: "kmc-cycle-8", polls: contractSteps - 1 + contractCycles - 1},
		{name: "coupled/kmc-stage", run: runCoupledCase, hash: coupledCfg.Hash(),
			at: "kmc-cycle-3", stage: StageKMC, step: 3,
			final: "kmc-cycle-8", polls: contractSteps - 1 + contractCycles - 1},
		{name: "campaign/mid-iteration", run: runCampaignCase, hash: campaignCfg.Hash(),
			at: "campaign-step-17", stage: StageCampaign, step: 17, check: midIteration,
			final: "campaign-step-24", polls: 2*(contractSteps-1) + 1},
		// Iteration 0's last MD step defers its yield past the anneal.
		{name: "campaign/iteration-boundary", run: runCampaignCase, hash: campaignCfg.Hash(),
			at: "campaign-step-12", stage: StageCampaign, step: 12, check: atIterationBoundary,
			final: "campaign-step-24", polls: 2*(contractSteps-1) + 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			straight, err := tc.run(writerGrid, Checkpoint{}, nil, telemetry.Options{})
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			// A request at boundary k evicts there, leaving a manifest at k.
			ck := Checkpoint{Dir: t.TempDir(), Every: 1000}
			p := &Preemptor{}
			if _, err := tc.run(writerGrid, ck, p, requestAt(p, tc.at)); !errors.Is(err, ErrPreempted) {
				t.Fatalf("request at %s returned %v, want ErrPreempted", tc.at, err)
			}
			man, err := Latest(ck.Dir, tc.hash)
			if err != nil || man == nil {
				t.Fatalf("no snapshot after the eviction: %v", err)
			}
			if man.Stage != tc.stage || man.Step != tc.step {
				t.Fatalf("evicted at stage=%q step=%d, want %s step %d", man.Stage, man.Step, tc.stage, tc.step)
			}
			if tc.check != nil {
				tc.check(t, man)
			}

			// Resume: bit-identical on the writer's grid, to completion on a
			// re-sharded one.
			ck.Restart = true
			resumed, err := tc.run(writerGrid, ck, nil, telemetry.Options{})
			if err != nil {
				t.Fatalf("same-grid resume: %v", err)
			}
			if !reflect.DeepEqual(resumed.physics, straight.physics) {
				t.Errorf("resumed run diverged from the uninterrupted one:\n%+v\nvs\n%+v", resumed.physics, straight.physics)
			}
			elastic, err := tc.run(reshardGrid, ck, nil, telemetry.Options{})
			if err != nil {
				t.Fatalf("re-sharded resume: %v", err)
			}
			if elastic.vacancies != straight.vacancies {
				t.Errorf("re-sharded resume ended with %d vacancies, uninterrupted run with %d",
					elastic.vacancies, straight.vacancies)
			}

			// A request on the run's final boundary completes normally.
			p = &Preemptor{}
			last, err := tc.run(writerGrid, Checkpoint{Dir: t.TempDir(), Every: 1000}, p, requestAt(p, tc.final))
			if err != nil {
				t.Fatalf("request at the final boundary %s: %v, want normal completion", tc.final, err)
			}
			if !p.Requested() {
				t.Fatalf("final boundary %s never flushed: the request was not raised", tc.final)
			}
			if !reflect.DeepEqual(last.physics, straight.physics) {
				t.Errorf("run with a final-boundary request diverged from the uninterrupted one")
			}

			// Without a preemptor no boundary enters the Poll collective: an
			// armed-but-idle one costs exactly one Allreduce per yielding
			// boundary, and nothing else differs.
			idle, err := tc.run(writerGrid, Checkpoint{}, &Preemptor{}, telemetry.Options{})
			if err != nil {
				t.Fatalf("idle-preemptor run: %v", err)
			}
			want := straight.comm
			want.Add(mpi.Stats{MsgsSent: tc.polls, BytesSent: 8 * tc.polls, MsgsRecv: tc.polls, BytesRecv: 8 * tc.polls})
			if idle.comm != want {
				t.Errorf("idle preemptor comm %+v, want the nil-preemptor %+v plus %d polls", idle.comm, straight.comm, tc.polls)
			}
		})
	}
}

// TestPreemptAtTimeThresholdCompletes: a KMC stage that reaches its MC-time
// threshold is finished, whatever its cycle budget says — a request raised
// on that cycle must fall through to normal completion, in the standalone
// and the coupled KMC stage alike.
func TestPreemptAtTimeThresholdCompletes(t *testing.T) {
	const stopAt = 4
	label := fmt.Sprintf("kmc-cycle-%d", stopAt)

	t.Run("kmc", func(t *testing.T) {
		short, err := RunKMC(contractKMC(), stopAt, 0, Checkpoint{})
		if err != nil {
			t.Fatal(err)
		}
		p := &Preemptor{}
		res, err := RunKMC(contractKMC(), contractCycles, short.MCTime, Checkpoint{Dir: t.TempDir(), Preempt: p},
			WithTelemetry(requestAt(p, label)))
		if err != nil {
			t.Fatalf("request on the threshold cycle: %v, want normal completion", err)
		}
		if res.Cycles != stopAt || !p.Requested() {
			t.Fatalf("stopped after %d cycles (requested=%v), want the threshold stop at %d", res.Cycles, p.Requested(), stopAt)
		}
	})
	t.Run("coupled", func(t *testing.T) {
		cfg := contractCoupled()
		cfg.KMCCycles = stopAt
		short, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg = contractCoupled()
		cfg.TThreshold = short.MCTime
		cfg.Checkpoint = Checkpoint{Dir: t.TempDir()}
		cfg.Checkpoint.Preempt = &Preemptor{}
		cfg.Telemetry = requestAt(cfg.Checkpoint.Preempt, label)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("request on the threshold cycle: %v, want normal completion", err)
		}
		if res.KMCCycles != stopAt || !cfg.Checkpoint.Preempt.Requested() {
			t.Fatalf("stopped after %d cycles (requested=%v), want the threshold stop at %d", res.KMCCycles, cfg.Checkpoint.Preempt.Requested(), stopAt)
		}
	})
}
