package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/xid"
)

// An interactive transaction is initiated without a body and driven by its
// caller through the handle BeginInteractive returns: the same begin as
// Begin's, minus the body and the context binding.

// TestInitiateInteractiveIsTheHandle: InitiateInteractive hands out the
// handle BeginInteractive returns, its status is the descriptor's, and
// Complete before the begin changes nothing.
func TestInitiateInteractiveIsTheHandle(t *testing.T) {
	m := newMem(t)
	tx, err := m.InitiateInteractive()
	if err != nil {
		t.Fatal(err)
	}
	if st := tx.Status(); st != xid.StatusInitiated {
		t.Fatalf("status = %v, want initiated", st)
	}
	tx.Complete()
	waited := make(chan error, 1)
	go func() { waited <- m.Wait(tx.ID()) }()
	select {
	case err := <-waited:
		t.Fatalf("Wait returned (%v) after a Complete before the begin", err)
	case <-time.After(20 * time.Millisecond):
	}
	begun, err := m.BeginInteractive(context.Background(), tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if begun != tx {
		t.Fatal("BeginInteractive returned a handle other than InitiateInteractive's")
	}
	tx.Complete()
	if err := <-waited; err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if err := m.Commit(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if st := tx.Status(); st != xid.StatusCommitted {
		t.Fatalf("status = %v, want committed", st)
	}
}

// TestTxTokenOneCallerAtATime: while the token is held, an Acquire waits; one
// whose context ends meanwhile returns the cause and holds nothing, and the
// token passes to the waiter that stayed on Release. Taking and giving back
// a free token allocates nothing.
func TestTxTokenOneCallerAtATime(t *testing.T) {
	m := newMem(t)
	tx, err := m.InitiateInteractive()
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	if err := tx.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(bg)
	gaveUp, waited := make(chan error, 1), make(chan error, 1)
	go func() { gaveUp <- tx.Acquire(ctx) }()
	go func() { waited <- tx.Acquire(bg) }()
	select {
	case err := <-gaveUp:
		t.Fatalf("Acquire returned (%v) while the token was held", err)
	case err := <-waited:
		t.Fatalf("Acquire returned (%v) while the token was held", err)
	case <-time.After(30 * time.Millisecond):
	}
	cause := errors.New("caller gave up")
	cancel(cause)
	if err := <-gaveUp; err != cause {
		t.Fatalf("Acquire under a cancelled ctx = %v, want its cause", err)
	}
	select {
	case err := <-waited:
		t.Fatalf("Acquire returned (%v) while the token was still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	tx.Release()
	if err := <-waited; err != nil {
		t.Fatalf("Acquire after Release = %v", err)
	}
	tx.Release()
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := tx.Acquire(bg); err != nil {
			t.Fatal(err)
		}
		tx.Release()
	}); n != 0 {
		t.Fatalf("a free token costs %.1f allocations, want 0", n)
	}
}

// TestBeginInteractiveRefusesWhatBeginRefuses: a begun, an aborted and an
// unknown tid.
func TestBeginInteractiveRefusesWhatBeginRefuses(t *testing.T) {
	m := newMem(t)
	begun := initiated(t, m, nil)
	if _, err := m.BeginInteractive(context.Background(), begun); err != nil {
		t.Fatal(err)
	}
	aborted := initiated(t, m, nil)
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
		_, got := m.BeginInteractive(context.Background(), tc.id)
		want := m.Begin(tc.id)
		if !errors.Is(got, tc.want) || got.Error() != want.Error() {
			t.Errorf("%s: BeginInteractive = %v, Begin = %v, want %v from both", tc.name, got, want, tc.want)
		}
	}
}

// TestBeginOfTheWrongForm: Begin and Execute refuse a transaction without a
// body, BeginInteractive one with a body, and each leaves it initiated for
// the right begin.
func TestBeginOfTheWrongForm(t *testing.T) {
	m := newMem(t)
	interactive := initiated(t, m, nil)
	if err := m.Begin(interactive); err == nil {
		t.Fatal("Begin of a transaction without a body = nil")
	}
	if err := m.Execute(interactive); err == nil {
		t.Fatal("Execute of a transaction without a body = nil")
	}
	bodied := initiated(t, m, noop)
	if _, err := m.BeginInteractive(context.Background(), bodied); err == nil {
		t.Fatal("BeginInteractive of a transaction with a body = nil")
	}
	for _, id := range []xid.TID{interactive, bodied} {
		if st := m.StatusOf(id); st != xid.StatusInitiated {
			t.Fatalf("%v is %v after a refused begin, want initiated", id, st)
		}
	}
	tx, err := m.BeginInteractive(context.Background(), interactive)
	if err != nil {
		t.Fatal(err)
	}
	tx.Complete()
	if err := m.Execute(bodied); err != nil {
		t.Fatal(err)
	}
	for _, id := range []xid.TID{interactive, bodied} {
		if err := m.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.Aborts != 0 {
		t.Fatalf("Aborts = %d, want 0: a refused begin aborts nothing", s.Aborts)
	}
}

// TestBeginInteractiveCtxBoundsTheBegin: cancelling the begin's context at
// a BD gate or in the admission queue aborts the transaction; cancelling it
// once BeginInteractive has returned does not.
func TestBeginInteractiveCtxBoundsTheBegin(t *testing.T) {
	cancelWhileParked := func(t *testing.T, m *Manager, id xid.TID) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			_, err := m.BeginInteractive(ctx, id)
			res <- err
		}()
		select {
		case err := <-res:
			t.Fatalf("BeginInteractive returned (%v) instead of waiting", err)
		case <-time.After(30 * time.Millisecond):
		}
		cancel()
		if err := <-res; !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("BeginInteractive cancelled while parked = %v, want ErrAborted wrapping context.Canceled", err)
		}
		waitStatus(t, m, id, xid.StatusAborted)
	}
	t.Run("gate", func(t *testing.T) {
		m := newMem(t)
		sup, dep := initiated(t, m, noop), initiated(t, m, nil)
		if err := m.FormDependency(xid.DepBD, sup, dep); err != nil {
			t.Fatal(err)
		}
		cancelWhileParked(t, m, dep)
		if got := m.WaitGraph().Waiters(); len(got) != 0 {
			t.Fatalf("wait-graph edges left: %v", got)
		}
	})
	t.Run("admission", func(t *testing.T) {
		m, err := Open(Config{MaxLive: 1, AdmitTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		holder := initiated(t, m, nil)
		htx, err := m.BeginInteractive(context.Background(), holder)
		if err != nil {
			t.Fatal(err)
		}
		cancelWhileParked(t, m, initiated(t, m, nil))
		htx.Complete()
		if err := m.Commit(holder); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("after", func(t *testing.T) {
		m := newMem(t)
		oid := seedObject(t, m, []byte("v0"))
		id := initiated(t, m, nil)
		ctx, cancel := context.WithCancel(context.Background())
		tx, err := m.BeginInteractive(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		time.Sleep(20 * time.Millisecond) // what a watcher would need to act
		if err := tx.Write(oid, []byte("v1")); err != nil {
			t.Fatalf("Write after the begin's ctx was cancelled: %v", err)
		}
		tx.Complete()
		if err := m.Commit(id); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBeginInteractiveWatchesInitiateWithCtx: a context bound at
// InitiateWith governs the transaction's whole life, as under Begin.
func TestBeginInteractiveWatchesInitiateWithCtx(t *testing.T) {
	m := newMem(t)
	ctx, cancel := context.WithCancel(context.Background())
	id, err := m.InitiateWith(nil, TxnOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginInteractive(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	cancel()
	waitStatus(t, m, id, xid.StatusAborted)
	if err := m.Commit(id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit after the bound ctx was cancelled = %v, want context.Canceled", err)
	}
}

// TestCompleteEndsExecution: Wait returns on Complete, Complete is
// idempotent, and the completed transaction commits with what it wrote.
func TestCompleteEndsExecution(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("v0"))
	id := initiated(t, m, nil)
	tx, err := m.BeginInteractive(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(oid, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- m.Wait(id) }()
	select {
	case err := <-waited:
		t.Fatalf("Wait returned (%v) before Complete", err)
	case <-time.After(20 * time.Millisecond):
	}
	tx.Complete()
	tx.Complete()
	if err := <-waited; err != nil {
		t.Fatalf("Wait = %v, want nil once completed", err)
	}
	if st := m.StatusOf(id); st != xid.StatusCompleted {
		t.Fatalf("status after Complete = %v, want completed", st)
	}
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Cache().Read(oid); string(got) != "v1" {
		t.Fatalf("object = %q, want v1", got)
	}
}

// TestCompleteAfterAbortIsNoop: an aborted transaction stays aborted.
func TestCompleteAfterAbortIsNoop(t *testing.T) {
	m := newMem(t)
	id := initiated(t, m, nil)
	tx, err := m.BeginInteractive(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	tx.Complete()
	if st := m.StatusOf(id); st != xid.StatusAborted {
		t.Fatalf("status after Complete of an aborted transaction = %v, want aborted", st)
	}
	if err := m.Commit(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit = %v, want ErrAborted", err)
	}
}

// TestAbortWithRecordsReason: the reason reaches Commit, and still matches
// ErrAborted.
func TestAbortWithRecordsReason(t *testing.T) {
	m := newMem(t)
	id := initiated(t, m, nil)
	if _, err := m.BeginInteractive(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if err := m.AbortWith(id, ErrLeaseExpired); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(id); !errors.Is(err, ErrAborted) || !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("Commit = %v, want ErrAborted and ErrLeaseExpired", err)
	}
}

// TestTxWaitOnCompletedSiblingIsNoDeadlock is the false-victim regression:
// b has completed, and the driver committing b's group waits for a with an
// edge b → a. a then waits for b, which cannot block; an edge a → b would
// close a cycle and make one of them a deadlock victim.
func TestTxWaitOnCompletedSiblingIsNoDeadlock(t *testing.T) {
	m := newMem(t)
	proceed := make(chan struct{})
	var b xid.TID
	var waitErr error
	a := initiated(t, m, func(tx *Tx) error {
		<-proceed
		waitErr = tx.Wait(b)
		return waitErr
	})
	b = initiated(t, m, noop)
	if err := m.FormDependency(xid.DepGC, a, b); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(b); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(a); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- m.Commit(b) }()
	for !hasWaiter(m, b) { // the group's commit driver waits for a
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	if err := <-committed; err != nil {
		t.Fatalf("Commit of the group = %v, want nil", err)
	}
	if waitErr != nil {
		t.Fatalf("Tx.Wait on a completed sibling = %v, want nil", waitErr)
	}
	if s := m.Stats(); s.Deadlocks != 0 {
		t.Fatalf("Deadlocks = %d, want 0", s.Deadlocks)
	}
}

func hasWaiter(m *Manager, id xid.TID) bool {
	for _, w := range m.WaitGraph().Waiters() {
		if w == id {
			return true
		}
	}
	return false
}
