package mdkmc_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mdkmc"
)

// TestConcurrentWorldsAreIsolated is the contract the job server (cmd/
// mdserve) stands on: several mpi.Worlds stepping concurrently in one
// process share nothing — no abort flags, no telemetry registries, no RNG
// streams. Three simultaneous runs with different seeds must each match
// their own sequential reference bit for bit, and a fault killing one world
// must leave its neighbors untouched.
func TestConcurrentWorldsAreIsolated(t *testing.T) {
	mkCfg := func(seed uint64) mdkmc.MDConfig {
		cfg := mdkmc.DefaultMDConfig()
		cfg.Cells = [3]int{6, 6, 6}
		cfg.Steps = 30
		cfg.TablePoints = 500
		cfg.Seed = seed
		cfg.PKA = &mdkmc.PKA{Energy: 100}
		cfg.Grid = [3]int{2, 1, 1} // two ranks per world: collectives in play
		return cfg
	}
	// physics keys the deterministic scalars a run must reproduce.
	physics := func(res *mdkmc.MDResult) string {
		return fmt.Sprintf("atoms=%d steps=%d kin=%v pot=%v T=%v vac=%d",
			res.Atoms, res.Steps, res.Kinetic, res.Potential, res.Temperature, res.Vacancies)
	}

	seeds := []uint64{3, 5, 11}
	refs := make([]string, len(seeds))
	for i, seed := range seeds {
		res, err := mdkmc.RunMD(mkCfg(seed))
		if err != nil {
			t.Fatalf("sequential reference seed %d: %v", seed, err)
		}
		refs[i] = physics(res)
	}

	// The same three runs concurrently, with telemetry live in each world
	// and a fourth fault-rigged world dying alongside them.
	got := make([]string, len(seeds))
	tels := make([]*mdkmc.TelemetryReport, len(seeds))
	errs := make([]error, len(seeds))
	var faultErr error
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			res, err := mdkmc.RunMDCheckpointed(mkCfg(seed), mdkmc.Checkpoint{},
				mdkmc.WithTelemetry(mdkmc.TelemetryOptions{Enabled: true}))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = physics(res)
			tels[i] = res.Telemetry
		}(i, seed)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		faults, err := mdkmc.ParseFaults("md-step:0:5")
		if err != nil {
			faultErr = err
			return
		}
		_, faultErr = mdkmc.RunMDCheckpointed(mkCfg(99), mdkmc.Checkpoint{Faults: faults})
	}()
	wg.Wait()

	// The rigged world died with ITS fault — no one else's abort flag.
	var inj mdkmc.InjectedFault
	if !errors.As(faultErr, &inj) {
		t.Fatalf("fault-rigged world returned %v, want its injected fault", faultErr)
	}
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("world seed %d caught a neighbor's fault: %v", seed, errs[i])
		}
		if got[i] != refs[i] {
			t.Errorf("world seed %d diverged under concurrency:\nsequential: %s\nconcurrent: %s",
				seed, refs[i], got[i])
		}
	}
	if !reflect.DeepEqual(refs, got) {
		t.Errorf("concurrent worlds not bit-identical to sequential runs:\n%v\nvs\n%v", refs, got)
	}

	// Each world kept its own telemetry registry: per-world step counts,
	// not a process-global blend.
	for i, rep := range tels {
		if rep == nil {
			t.Fatalf("world %d returned no telemetry report", i)
		}
		if rep.Ranks != 2 {
			t.Errorf("world %d telemetry spans %d ranks, want its own 2", i, rep.Ranks)
		}
	}
}
