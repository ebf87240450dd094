package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRunEReturnsFirstError: a rank returning an error must unblock peers
// waiting in collectives and surface the error to the caller.
func TestRunEReturnsFirstError(t *testing.T) {
	w := NewWorld(3)
	boom := fmt.Errorf("construction failed on rank 1")
	done := make(chan error, 1)
	go func() {
		done <- w.RunE(func(c *Comm) error {
			if c.Rank() == 1 {
				return boom
			}
			c.Barrier() // would deadlock forever without the abort wakeup
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("RunE error = %v, want %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunE deadlocked on a rank error")
	}
}

// TestRunENilOnSuccess: no failures, nil error, all ranks ran.
func TestRunENilOnSuccess(t *testing.T) {
	w := NewWorld(4)
	ran := make([]bool, 4)
	if err := w.RunE(func(c *Comm) error {
		ran[c.Rank()] = true
		c.Barrier()
		return nil
	}); err != nil {
		t.Fatalf("RunE = %v", err)
	}
	for r, ok := range ran {
		if !ok {
			t.Errorf("rank %d did not run", r)
		}
	}
}

// TestRunEConvertsPanic: a rank that panics (rather than returning an
// error) yields the RankPanic as the error, unwrappable to the cause.
func TestRunEConvertsPanic(t *testing.T) {
	w := NewWorld(2)
	cause := fmt.Errorf("invariant violated")
	err := w.RunE(func(c *Comm) error {
		if c.Rank() == 0 {
			panic(cause)
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	var rp RankPanic
	if !errors.As(err, &rp) || rp.Rank != 0 {
		t.Fatalf("error %v does not carry the panicking rank", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not unwrap to the cause", err)
	}
}

// TestFaultPointKillsArmedRank: an armed fault point kills exactly the
// chosen rank at the chosen step; survivors blocked in Recv are unwound and
// the injected fault is identifiable via errors.As.
func TestFaultPointKillsArmedRank(t *testing.T) {
	w := NewWorld(3)
	w.InjectFault(Fault{Rank: 2, Point: PointKMCCycle, Step: 4})
	steps := make([]int, 3)
	err := w.RunE(func(c *Comm) error {
		for s := 1; s <= 10; s++ {
			c.Barrier()
			c.FaultPoint(PointKMCCycle, s)
			steps[c.Rank()] = s
		}
		return nil
	})
	var inj InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("RunE error %v is not an InjectedFault", err)
	}
	if inj.Rank != 2 || inj.Point != PointKMCCycle || inj.Step != 4 {
		t.Errorf("fault fired at %+v, want rank 2 %s 4", inj, PointKMCCycle)
	}
	if steps[2] != 3 {
		t.Errorf("rank 2 completed %d steps, want 3 before the step-4 fault", steps[2])
	}
}

// TestFaultPointUnarmedIsNoop: the same world without a plan runs clean.
func TestFaultPointUnarmedIsNoop(t *testing.T) {
	w := NewWorld(2)
	if err := w.RunE(func(c *Comm) error {
		for s := 1; s <= 5; s++ {
			c.FaultPoint(PointMDStep, s)
		}
		return nil
	}); err != nil {
		t.Fatalf("unarmed fault point fired: %v", err)
	}
}

func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("md-step:1:30, kmc-cycle:0:7")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{{Rank: 1, Point: "md-step", Step: 30}, {Rank: 0, Point: "kmc-cycle", Step: 7}}
	if len(fs) != 2 || fs[0] != want[0] || fs[1] != want[1] {
		t.Errorf("parsed %+v, want %+v", fs, want)
	}
	if fs[0].String() != "md-step:1:30" {
		t.Errorf("String() = %q", fs[0].String())
	}
	if got, err := ParseFaults("  "); err != nil || got != nil {
		t.Errorf("blank plan: %v, %v", got, err)
	}
	for _, bad := range []string{"md-step:1", "p:-1:3", "p:x:3", "p:1:x", ":1:3", "md-stpe:0:5"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("malformed fault %q accepted", bad)
		}
	}
}
