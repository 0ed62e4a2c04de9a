package models

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	asset "repro"
)

// TestSagaRetriesTransientStepFailure: a step that fails twice with a
// transient (ErrRetryable-tagged) error and then succeeds must not trigger
// compensation — the retry engine absorbs the failures.
func TestSagaRetriesTransientStepFailure(t *testing.T) {
	m := newMem(t)
	a := seed(t, m, []byte("a0"))
	b := seed(t, m, []byte("b0"))
	var tries atomic.Int32
	var compensated atomic.Int32
	s := NewSaga(m).WithOptions(SagaOptions{StepAttempts: 5}).
		Step("a", func(tx *asset.Tx) error { return tx.Write(a, []byte("a1")) },
			func(tx *asset.Tx) error { compensated.Add(1); return tx.Write(a, []byte("a0")) }).
		Step("flaky", func(tx *asset.Tx) error {
			if tries.Add(1) < 3 {
				return fmt.Errorf("transient glitch: %w", asset.ErrRetryable)
			}
			return tx.Write(b, []byte("b1"))
		}, nil)
	res, err := s.Run()
	if err != nil || res.Err() != nil {
		t.Fatalf("err=%v resErr=%v", err, res.Err())
	}
	if got := tries.Load(); got != 3 {
		t.Fatalf("flaky step ran %d times, want 3", got)
	}
	if compensated.Load() != 0 {
		t.Fatalf("compensations ran: %d", compensated.Load())
	}
	if readObj(t, m, a) != "a1" || readObj(t, m, b) != "b1" {
		t.Fatal("final state wrong")
	}
}

// TestSagaCompensatesAfterRetryBudgetExhausted: a step that stays
// transiently broken past StepAttempts counts as a component abort, so the
// committed prefix is compensated in reverse order.
func TestSagaCompensatesAfterRetryBudgetExhausted(t *testing.T) {
	m := newMem(t)
	a := seed(t, m, []byte("a0"))
	b := seed(t, m, []byte("b0"))
	var tries atomic.Int32
	s := NewSaga(m).WithOptions(SagaOptions{StepAttempts: 4}).
		Step("a", func(tx *asset.Tx) error { return tx.Write(a, []byte("a1")) },
			func(tx *asset.Tx) error { return tx.Write(a, []byte("a0")) }).
		Step("b", func(tx *asset.Tx) error { return tx.Write(b, []byte("b1")) },
			func(tx *asset.Tx) error { return tx.Write(b, []byte("b0")) }).
		Step("doomed", func(tx *asset.Tx) error {
			tries.Add(1)
			return fmt.Errorf("still glitching: %w", asset.ErrRetryable)
		}, nil)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedStep != "doomed" {
		t.Fatalf("res = %+v", res)
	}
	if got := tries.Load(); got != 4 {
		t.Fatalf("doomed step ran %d times, want StepAttempts=4", got)
	}
	want := []string{"b", "a"}
	if len(res.Compensated) != 2 || res.Compensated[0] != want[0] || res.Compensated[1] != want[1] {
		t.Fatalf("compensated order = %v, want %v", res.Compensated, want)
	}
	if readObj(t, m, a) != "a0" || readObj(t, m, b) != "b0" {
		t.Fatal("state not restored")
	}
}

// TestSagaTerminalErrorNotRetried: plain application errors abort on the
// first attempt — only transient classes are retried.
func TestSagaTerminalErrorNotRetried(t *testing.T) {
	m := newMem(t)
	a := seed(t, m, []byte("a0"))
	var tries atomic.Int32
	s := NewSaga(m).WithOptions(SagaOptions{StepAttempts: 5}).
		Step("a", func(tx *asset.Tx) error { return tx.Write(a, []byte("a1")) },
			func(tx *asset.Tx) error { return tx.Write(a, []byte("a0")) }).
		Step("boom", func(tx *asset.Tx) error {
			tries.Add(1)
			return errors.New("business rule violated")
		}, nil)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedStep != "boom" {
		t.Fatalf("res = %+v", res)
	}
	if got := tries.Load(); got != 1 {
		t.Fatalf("terminal step ran %d times, want 1", got)
	}
	if readObj(t, m, a) != "a0" {
		t.Fatal("state not restored")
	}
}

// TestParallelSagaRetriesTransientSteps: RunParallel gives each concurrent
// component the same retry budget, so flaky-but-recoverable steps commit.
func TestParallelSagaRetriesTransientSteps(t *testing.T) {
	m := newMem(t)
	var oids [3]asset.OID
	for i := range oids {
		oids[i] = seed(t, m, []byte("-"))
	}
	var tries [3]atomic.Int32
	s := NewSaga(m).WithOptions(SagaOptions{StepAttempts: 5})
	for i := range oids {
		i := i
		oid := oids[i]
		name := string(rune('a' + i))
		s.Step(name, func(tx *asset.Tx) error {
			if tries[i].Add(1) < 2 {
				return fmt.Errorf("warmup wobble: %w", asset.ErrRetryable)
			}
			return tx.Write(oid, []byte(name))
		}, nil)
	}
	res, err := s.RunParallel()
	if err != nil || res.Err() != nil {
		t.Fatalf("err=%v resErr=%v", err, res.Err())
	}
	if len(res.Committed) != 3 {
		t.Fatalf("committed = %v", res.Committed)
	}
	for i := range tries {
		if got := tries[i].Load(); got != 2 {
			t.Fatalf("step %d ran %d times, want 2", i, got)
		}
	}
}
