package workflow

import (
	"errors"
	"testing"

	asset "repro"
	"repro/internal/race"
)

func newReaping(t *testing.T, cfg asset.Config) *asset.Manager {
	t.Helper()
	cfg.ReapTerminated = true
	m, err := asset.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestReapedStepFailureCompensates: under ReapTerminated a step whose body
// fails is gone before anyone could ask Commit about it. The workflow used to
// hear ErrUnknownTxn then, took it for an infrastructure error and returned
// without compensating; it now hears the body's own abort.
func TestReapedStepFailureCompensates(t *testing.T) {
	m := newReaping(t, asset.Config{})
	ok := func(*asset.Tx) error { return nil }
	for i := 0; i < 1000; i++ {
		undone := 0
		undo := func(*asset.Tx) error { undone++; return nil }
		res, err := New("trip").
			Alternatives("flight", Task{Name: "delta", Action: fail("full")}, Task{Name: "united", Action: ok, Compensate: undo}).
			Step(Task{Name: "car", Action: fail("none left")}).Optional().
			Step(Task{Name: "hotel", Action: fail("no rooms"), Compensate: undo}).
			Run(m)
		if err != nil || res.FailedStep != "hotel" || undone != 1 || len(res.Compensated) != 1 || res.Compensated[0] != "united" {
			t.Fatalf("round %d: result %+v, err %v, %d compensations run; want hotel failed and united compensated", i, res, err, undone)
		}
	}
}

// TestRaceBeginFailureAbortsAll: a competitor shed at the admission gate
// fails the race, and no competitor stays behind — not the one already
// running with nobody to commit it, nor the one never begun, which would
// hold its place against MaxTransactions for good.
func TestRaceBeginFailureAbortsAll(t *testing.T) {
	m := newReaping(t, asset.Config{MaxLive: 1})
	release := make(chan struct{})
	defer close(release)
	parked := Task{Name: "parked", Action: func(*asset.Tx) error { <-release; return nil }}
	_, err := New("race").Race("car", parked, parked, parked).Run(m)
	if !errors.Is(err, asset.ErrOverload) {
		t.Fatalf("race through a gate of one = %v, want ErrOverload", err)
	}
	if active := m.Active(); len(active) != 0 {
		t.Fatalf("transactions still active after the failed race: %v", active)
	}
	if left := m.Transactions(); len(left) != 0 {
		t.Fatalf("transactions left behind by the failed race: %+v", left)
	}
}

// workflow3AllocBudget is what a workflow of three single-task steps may
// allocate on top of its three transaction descriptors: the Workflow with its
// steps and their tasks inside, the result, and its list of steps. 6 measured
// (the parent, with a closure and a channel per step, a slice per step and
// slices grown an element at a time: 24).
const workflow3AllocBudget = 8

func TestWorkflowAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := newReaping(t, asset.Config{})
	noop := func(*asset.Tx) error { return nil }
	run := func() {
		res, err := New("w").
			Step(Task{Name: "a", Action: noop, Compensate: noop}).
			Step(Task{Name: "b", Action: noop, Compensate: noop}).
			Step(Task{Name: "c", Action: noop}).
			Run(m)
		if err != nil || len(res.Steps) != 3 {
			t.Fatal(res, err)
		}
	}
	run() // warm the free lists
	got := testing.AllocsPerRun(500, run)
	t.Logf("three-step workflow: %.1f objects", got)
	if got > workflow3AllocBudget {
		t.Errorf("three-step workflow: %.1f objects, budget %d", got, workflow3AllocBudget)
	}
}
