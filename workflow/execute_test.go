package workflow

import (
	"errors"
	"testing"

	asset "repro"
	"repro/internal/race"
)

func openManager(t *testing.T, cfg asset.Config) *asset.Manager {
	t.Helper()
	m, err := asset.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestReapedStepFailureCompensates: a step whose body fails is reaped
// before anyone could ask Commit about it. The workflow used to hear
// ErrUnknownTxn then, took it for an infrastructure error and returned
// without compensating; it now hears the body's own abort.
func TestReapedStepFailureCompensates(t *testing.T) {
	m := newMem(t)
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
// stay live for good and keep the manager from a quiescent checkpoint.
func TestRaceBeginFailureAbortsAll(t *testing.T) {
	m := openManager(t, asset.Config{MaxLive: 1})
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

// workflow3AllocBudget is what a workflow of three single-task steps
// allocates on a manager that recycles its transaction descriptors: the
// Workflow with its steps and their tasks inside, the result, and its list of
// steps, 3 measured and pinned (6 with a descriptor per step; 24 before that,
// with a closure and a channel per step, a slice per step and slices grown an
// element at a time).
//
// A workflow whose hotel step fails after the flight committed, so that
// the flight is compensated, allocates 7, measured and pinned: the same
// under the hand-written compensation loop that models.Compensate replaced.
const (
	workflow3AllocBudget           = 3
	workflowCompensatedAllocBudget = 7
)

func TestWorkflowAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := newMem(t)
	noop := func(*asset.Tx) error { return nil }
	errNoRooms := errors.New("no rooms")
	noRooms := func(*asset.Tx) error { return errNoRooms }
	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"three-step workflow", func() {
			res, err := New("w").
				Step(Task{Name: "a", Action: noop, Compensate: noop}).
				Step(Task{Name: "b", Action: noop, Compensate: noop}).
				Step(Task{Name: "c", Action: noop}).
				Run(m)
			if err != nil || len(res.Steps) != 3 {
				t.Fatal(res, err)
			}
		}, workflow3AllocBudget},
		{"compensated workflow", func() {
			res, err := New("trip").
				Step(Task{Name: "flight", Action: noop, Compensate: noop}).
				Step(Task{Name: "hotel", Action: noRooms}).
				Run(m)
			if err != nil || len(res.Compensated) != 1 {
				t.Fatal(res, err)
			}
		}, workflowCompensatedAllocBudget},
	} {
		tc.run() // warm the free lists
		got := testing.AllocsPerRun(500, tc.run)
		t.Logf("%s: %.1f objects", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.1f objects, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
