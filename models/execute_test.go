package models

import (
	"context"
	"errors"
	"runtime"
	"testing"

	asset "repro"
	"repro/internal/race"
)

// The models that begin a transaction and then only wait for it run its body
// on their caller (Manager.Execute). These tests hold what that must not
// change and what it fixes.

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

// TestAtomicStartsNoGoroutine: ten thousand atomic transactions leave the
// goroutine count where it was, and no body ever sees one more.
func TestAtomicStartsNoGoroutine(t *testing.T) {
	m := newReaping(t, asset.Config{})
	before := runtime.NumGoroutine()
	peak := before
	body := func(*asset.Tx) error {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
		return nil
	}
	for i := 0; i < 10_000; i++ {
		if err := Atomic(m, body); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before || peak > before {
		t.Fatalf("goroutines: %d before, %d at peak inside a body, %d after; want level", before, peak, after)
	}
}

// TestAtomicPanicLeavesCallerStanding: the body runs on the caller now, and a
// panic in it is still an abort, not the caller's end.
func TestAtomicPanicLeavesCallerStanding(t *testing.T) {
	m := newMem(t)
	oid := seed(t, m, []byte("v0"))
	err := Atomic(m, func(tx *asset.Tx) error {
		if err := tx.Write(oid, []byte("dirty")); err != nil {
			return err
		}
		panic("kaboom")
	})
	if !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("Atomic of a panicking body = %v, want ErrAborted", err)
	}
	if got := readObj(t, m, oid); got != "v0" {
		t.Fatalf("object = %q after a panicked body, want its write rolled back", got)
	}
}

// TestReapedFailureIsStillAFailure: under ReapTerminated a body that fails is
// gone before anyone could ask Commit about it. The models used to hear
// ErrUnknownTxn then, which is no step failure; they now hear the body.
func TestReapedFailureIsStillAFailure(t *testing.T) {
	m := newReaping(t, asset.Config{})
	bodyErr := errors.New("card declined")
	failing := func(*asset.Tx) error { return bodyErr }
	ok := func(*asset.Tx) error { return nil }
	for i := 0; i < 1000; i++ {
		if err := Atomic(m, failing); !errors.Is(err, bodyErr) || errors.Is(err, asset.ErrUnknownTxn) {
			t.Fatalf("round %d: Atomic = %v, want the body's error", i, err)
		}
		compensated := false
		res, err := NewSaga(m).
			Step("reserve", ok, func(*asset.Tx) error { compensated = true; return nil }).
			Step("charge", failing, nil).
			Run()
		if err != nil || res.FailedStep != "charge" || !compensated {
			t.Fatalf("round %d: saga = %+v, %v, compensated = %v; want a compensated failure at charge", i, res, err, compensated)
		}
		if got, err := Contingent(m, failing, ok); got != 1 || err != nil {
			t.Fatalf("round %d: Contingent = %d, %v, want the second alternative", i, got, err)
		}
	}
	// The step's error as Run reports it, through the saga's retry engine.
	err := asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 1}, failing)
	if !errors.Is(err, bodyErr) {
		t.Fatalf("Run = %v, want the body's error", err)
	}
}

// TestDistributedComponentWaitsOnSibling: one component waits for the other
// (Tx.Wait) whichever of them Distributed runs on its own goroutine. No
// commit driver is about while the bodies run, so none can hang the group's
// own commit-wait edge on the waited-for component and turn the sibling's
// wait into a cycle.
func TestDistributedComponentWaitsOnSibling(t *testing.T) {
	m := newMem(t)
	for _, waiterLast := range []bool{false, true} {
		tid := make(chan asset.TID, 1)
		var waited error
		waiter := func(tx *asset.Tx) error {
			waited = tx.Wait(<-tid)
			return waited
		}
		waitedFor := func(tx *asset.Tx) error {
			tid <- tx.ID()
			return nil
		}
		fns := []asset.TxnFunc{waiter, waitedFor}
		if waiterLast {
			fns[0], fns[1] = fns[1], fns[0]
		}
		if err := Distributed(m, fns...); err != nil || waited != nil {
			t.Fatalf("waiter last = %v: Distributed = %v, wait = %v", waiterLast, err, waited)
		}
	}
}

// TestDistributedBeginFailureAbortsAll: a component shed at the admission
// gate fails the group and leaves no component behind, whether the shed one
// was being begun or executed.
func TestDistributedBeginFailureAbortsAll(t *testing.T) {
	m := newReaping(t, asset.Config{MaxLive: 1})
	release := make(chan struct{})
	defer close(release)
	parked := func(*asset.Tx) error { <-release; return nil }
	for _, fns := range [][]asset.TxnFunc{
		{parked, parked, parked}, // the second is shed inside Begin
		{parked, parked},         // the second is shed inside Execute
	} {
		if err := Distributed(m, fns...); !errors.Is(err, asset.ErrOverload) {
			t.Fatalf("Distributed of %d components through a gate of one = %v, want ErrOverload", len(fns), err)
		}
		for _, info := range m.Transactions() {
			if !info.Status.Terminated() {
				t.Fatalf("%v left %v after a failed Distributed of %d", info.ID, info.Status, len(fns))
			}
		}
	}
}

// Budgets for what the models add to the one object an executed transaction
// costs (its descriptor). Atomic adds nothing: 1 measured. A three-step saga
// adds the Saga with its steps inside, the result and its list of committed
// steps: 6 measured, where the parent's 16 had a closure and a channel per
// step and grew both slices an element at a time.
const (
	atomicAllocBudget = 2
	saga3AllocBudget  = 8
)

func TestModelAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := newReaping(t, asset.Config{})
	noop := func(*asset.Tx) error { return nil }
	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"Atomic", func() {
			if err := Atomic(m, noop); err != nil {
				t.Fatal(err)
			}
		}, atomicAllocBudget},
		{"three-step Saga.Run", func() {
			res, err := NewSaga(m).Step("a", noop, noop).Step("b", noop, noop).Step("c", noop, nil).Run()
			if err != nil || len(res.Committed) != 3 {
				t.Fatal(res, err)
			}
		}, saga3AllocBudget},
	} {
		tc.run() // warm the free lists
		got := testing.AllocsPerRun(500, tc.run)
		t.Logf("%s: %.1f objects", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.1f objects, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
