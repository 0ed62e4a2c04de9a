package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/xid"
)

// Execute is Begin with the body run on the caller: everything Begin refuses
// it refuses the same way, and everything Wait would report it reports.

// TestExecuteRunsBodyOnCaller: the body has finished when Execute returns,
// ran on the calling goroutine, and leaves a completed transaction that
// commits like any other.
func TestExecuteRunsBodyOnCaller(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("v0"))
	var inBody bool
	var stack string
	id := initiated(t, m, func(tx *Tx) error {
		buf := make([]byte, 4096)
		stack = string(buf[:runtime.Stack(buf, false)])
		inBody = true
		return tx.Write(oid, []byte("v1"))
	})
	if err := m.Execute(id); err != nil {
		t.Fatal(err)
	}
	if !inBody {
		t.Fatal("Execute returned before the body ran")
	}
	if !contains(stack, "TestExecuteRunsBodyOnCaller") {
		t.Fatalf("body did not run on the caller's goroutine:\n%s", stack)
	}
	if st := m.StatusOf(id); st != xid.StatusCompleted {
		t.Fatalf("status after Execute = %v, want completed", st)
	}
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Cache().Read(oid); string(got) != "v1" {
		t.Fatalf("object = %q", got)
	}
}

// TestExecuteRefusesWhatBeginRefuses: a begun, an aborted and an unknown tid.
func TestExecuteRefusesWhatBeginRefuses(t *testing.T) {
	m := newMem(t)
	begun := initiated(t, m, noop)
	if err := m.Execute(begun); err != nil {
		t.Fatal(err)
	}
	aborted := initiated(t, m, noop)
	if err := m.Abort(aborted); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		id   xid.TID
		want error
	}{
		{"begun", begun, ErrAlreadyBegun},
		{"aborted", aborted, ErrAborted},
		{"unknown", xid.TID(1 << 40), ErrUnknownTxn},
	} {
		got, want := m.Execute(tc.id), m.Begin(tc.id)
		if !errors.Is(got, tc.want) || got.Error() != want.Error() {
			t.Errorf("%s: Execute = %v, Begin = %v, want %v from both", tc.name, got, want, tc.want)
		}
	}
}

// TestExecuteReportsBodyFailure: a body error and a body panic both come back
// as the abort reason, and the caller is still standing.
func TestExecuteReportsBodyFailure(t *testing.T) {
	for _, reap := range []bool{false, true} {
		m, err := Open(Config{ReapTerminated: reap})
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		id := initiated(t, m, func(*Tx) error { return boom })
		if err := m.Execute(id); !errors.Is(err, ErrAborted) || !errors.Is(err, boom) {
			t.Errorf("reap=%v: Execute of a failing body = %v, want ErrAborted wrapping the body's error", reap, err)
		}
		id = initiated(t, m, func(*Tx) error { panic("kaboom") })
		if err := m.Execute(id); !errors.Is(err, ErrAborted) || !contains(err.Error(), "kaboom") {
			t.Errorf("reap=%v: Execute of a panicking body = %v, want ErrAborted naming the panic", reap, err)
		}
		if !reap {
			if st := m.StatusOf(id); st != xid.StatusAborted {
				t.Errorf("panicked transaction is %v, want aborted", st)
			}
		}
		if s := m.Stats(); s.Aborts != 2 {
			t.Errorf("reap=%v: Aborts = %d, want 2", reap, s.Aborts)
		}
		m.Close()
	}
}

// TestExecuteAbortedFromOutside: a running body aborted by somebody else is
// reported once the body returns.
func TestExecuteAbortedFromOutside(t *testing.T) {
	m := newMem(t)
	running := make(chan struct{})
	id := initiated(t, m, func(tx *Tx) error {
		close(running)
		<-tx.t.abortCh()
		return nil // the body does not notice; the transaction is aborted all the same
	})
	go func() {
		<-running
		m.Abort(id)
	}()
	if err := m.Execute(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("Execute = %v, want ErrAborted", err)
	}
}

// TestExecuteBeginDependencyGate: Execute parks at a BD gate like Begin, runs
// the body once the supporter commits, and reports the abort when the
// supporter aborts instead.
func TestExecuteBeginDependencyGate(t *testing.T) {
	m := newMem(t)
	for _, commitSup := range []bool{true, false} {
		sup := initiated(t, m, noop)
		ran := false
		dep := initiated(t, m, func(*Tx) error { ran = true; return nil })
		if err := m.FormDependency(xid.DepBD, sup, dep); err != nil {
			t.Fatal(err)
		}
		res := make(chan error, 1)
		go func() { res <- m.Execute(dep) }()
		select {
		case err := <-res:
			t.Fatalf("Execute returned (%v) before its supporter terminated", err)
		case <-time.After(30 * time.Millisecond):
		}
		if commitSup {
			if err := m.Begin(sup); err != nil {
				t.Fatal(err)
			}
			if err := m.Commit(sup); err != nil {
				t.Fatal(err)
			}
			if err := <-res; err != nil || !ran {
				t.Fatalf("Execute after supporter commit = %v, body ran = %v", err, ran)
			}
			if err := m.Commit(dep); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.Abort(sup); err != nil {
				t.Fatal(err)
			}
			if err := <-res; !errors.Is(err, ErrAborted) || ran {
				t.Fatalf("Execute after supporter abort = %v, body ran = %v", err, ran)
			}
		}
	}
}

// TestExecuteAdmissionShed: with the gate full and no queueing budget,
// Execute sheds like Begin: ErrOverload, the transaction aborted, the body
// never run.
func TestExecuteAdmissionShed(t *testing.T) {
	m, err := Open(Config{MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	first := initiated(t, m, func(*Tx) error { <-release; return nil })
	if err := m.Begin(first); err != nil {
		t.Fatal(err)
	}
	ran := false
	second := initiated(t, m, func(*Tx) error { ran = true; return nil })
	if err := m.Execute(second); !errors.Is(err, ErrOverload) || ran {
		t.Fatalf("Execute under overload = %v, body ran = %v, want ErrOverload and no body", err, ran)
	}
	waitStatus(t, m, second, xid.StatusAborted)
	close(release)
	if err := m.Commit(first); err != nil {
		t.Fatal(err)
	}
	third := initiated(t, m, noop)
	if err := m.Execute(third); err != nil {
		t.Fatalf("slot not released after commit: %v", err)
	}
	if err := m.Commit(third); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteCtxDeadOnArrival: a context that is already done behaves as
// under BeginCtx — the transaction begins, the watcher aborts it, its next
// engine call fails, and the cause comes back.
func TestExecuteCtxDeadOnArrival(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte{1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := func(tx *Tx) error {
		<-tx.t.abortCh() // the watcher's abort
		return tx.Lock(oid, xid.OpWrite)
	}
	viaBegin := initiated(t, m, body)
	if err := m.BeginCtx(ctx, viaBegin); err != nil {
		t.Fatal(err)
	}
	want := m.Wait(viaBegin)
	got := m.ExecuteCtx(ctx, initiated(t, m, body))
	if !errors.Is(got, ErrAborted) || !errors.Is(got, context.Canceled) || got.Error() != want.Error() {
		t.Fatalf("ExecuteCtx on a dead context = %v, BeginCtx then Wait = %v, want ErrAborted wrapping context.Canceled from both", got, want)
	}
	if s := m.Stats(); s.Cancelled != 2 {
		t.Fatalf("Cancelled = %d, want 2", s.Cancelled)
	}
}

// TestExecuteCtxCancelWhileBlockedOnLock: cancelling ExecuteCtx's context
// while the body is parked in a lock wait aborts the transaction, wakes the
// wait, and hands the caller the cause.
func TestExecuteCtxCancelWhileBlockedOnLock(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte{1})
	release := make(chan struct{})
	holder := initiated(t, m, func(tx *Tx) error {
		if err := tx.Lock(oid, xid.OpWrite); err != nil {
			return err
		}
		<-release
		return nil
	})
	if err := m.Begin(holder); err != nil {
		t.Fatal(err)
	}
	for !m.LockManager().Holds(holder, oid, xid.OpWrite) {
		time.Sleep(time.Millisecond)
	}
	blocked := initiated(t, m, func(tx *Tx) error { return tx.Lock(oid, xid.OpWrite) })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for len(m.WaitGraph().Waiters()) == 0 { // parked on the shard cond
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	err := m.ExecuteCtx(ctx, blocked)
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx returned %v, want ErrAborted wrapping context.Canceled", err)
	}
	waitStatus(t, m, blocked, xid.StatusAborted)
	if ws := m.WaitGraph().Waiters(); len(ws) != 0 {
		t.Fatalf("wait-graph edges left: %v", ws)
	}
	waitInvariants(t, m)
	close(release)
	if err := m.Commit(holder); err != nil {
		t.Fatalf("holder commit: %v", err)
	}
}

// TestExecuteRunReportsBodyErrorUnderReap: under ReapTerminated a failed
// body is gone before anybody could ask Commit about it; Run reports the
// body's own error all the same, because Execute handed it back.
func TestExecuteRunReportsBodyErrorUnderReap(t *testing.T) {
	m, err := Open(Config{ReapTerminated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bodyErr := errors.New("no stock")
	for i := 0; i < 1000; i++ {
		err := m.Run(context.Background(), RunOptions{}, func(*Tx) error { return bodyErr })
		if !errors.Is(err, ErrAborted) || !errors.Is(err, bodyErr) || errors.Is(err, ErrUnknownTxn) {
			t.Fatalf("round %d: Run = %v, want ErrAborted wrapping the body's error and no ErrUnknownTxn", i, err)
		}
	}
}
