package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xid"
)

func newMem(t *testing.T) *Manager {
	t.Helper()
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// runTxn initiates, begins, and commits fn, failing the test on any error.
func runTxn(t *testing.T, m *Manager, fn TxnFunc) xid.TID {
	t.Helper()
	id, err := m.Initiate(fn)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(id); err != nil {
		t.Fatalf("commit %v: %v", id, err)
	}
	return id
}

// seedObject creates one committed object and returns its oid.
func seedObject(t *testing.T, m *Manager, data []byte) xid.OID {
	t.Helper()
	var oid xid.OID
	runTxn(t, m, func(tx *Tx) error {
		var err error
		oid, err = tx.Create(data)
		return err
	})
	return oid
}

func TestBasicLifecycle(t *testing.T) {
	m := newMem(t)
	var ran atomic.Bool
	id, err := m.Initiate(func(tx *Tx) error {
		ran.Store(true)
		return nil
	})
	if err != nil || id.IsNil() {
		t.Fatalf("Initiate = %v, %v", id, err)
	}
	if got := m.StatusOf(id); got != xid.StatusInitiated {
		t.Fatalf("status = %v, want initiated", got)
	}
	if ran.Load() {
		t.Fatal("function ran before Begin")
	}
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("function did not run")
	}
	if got := m.StatusOf(id); got != xid.StatusCompleted {
		t.Fatalf("status after wait = %v, want completed (commit is explicit)", got)
	}
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	if got := m.StatusOf(id); got != xid.StatusCommitted {
		t.Fatalf("status = %v, want committed", got)
	}
	// Commit of a committed transaction returns success (paper: returns 1).
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	// Abort after commit fails (paper: returns 0).
	if err := m.Abort(id); !errors.Is(err, ErrAlreadyCommitted) {
		t.Fatalf("abort after commit = %v", err)
	}
}

func TestCommitBlocksUntilCompletion(t *testing.T) {
	m := newMem(t)
	release := make(chan struct{})
	id, _ := m.Initiate(func(tx *Tx) error {
		<-release
		return nil
	})
	m.Begin(id)
	done := make(chan error, 1)
	go func() { done <- m.Commit(id) }()
	select {
	case err := <-done:
		t.Fatalf("commit returned %v before completion", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCommitBeforeBegin(t *testing.T) {
	m := newMem(t)
	id, _ := m.Initiate(func(tx *Tx) error { return nil })
	if err := m.Commit(id); !errors.Is(err, ErrNotBegun) {
		t.Fatalf("err = %v, want ErrNotBegun", err)
	}
}

func TestDoubleBegin(t *testing.T) {
	m := newMem(t)
	id, _ := m.Initiate(func(tx *Tx) error { return nil })
	m.Begin(id)
	m.Wait(id)
	if err := m.Begin(id); !errors.Is(err, ErrAlreadyBegun) {
		t.Fatalf("err = %v, want ErrAlreadyBegun", err)
	}
}

func TestBeginMany(t *testing.T) {
	m := newMem(t)
	var n atomic.Int32
	var ids []xid.TID
	for i := 0; i < 5; i++ {
		id, _ := m.Initiate(func(tx *Tx) error { n.Add(1); return nil })
		ids = append(ids, id)
	}
	if err := m.Begin(ids...); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := m.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	if n.Load() != 5 {
		t.Fatalf("ran %d, want 5", n.Load())
	}
}

func TestFnErrorAborts(t *testing.T) {
	m := newMem(t)
	boom := fmt.Errorf("boom")
	id, _ := m.Initiate(func(tx *Tx) error { return boom })
	m.Begin(id)
	if err := m.Wait(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("wait = %v, want ErrAborted", err)
	}
	if err := m.Commit(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit = %v, want ErrAborted", err)
	}
	if got := m.StatusOf(id); got != xid.StatusAborted {
		t.Fatalf("status = %v", got)
	}
}

func TestPanicAborts(t *testing.T) {
	m := newMem(t)
	id, _ := m.Initiate(func(tx *Tx) error { panic("kaboom") })
	m.Begin(id)
	if err := m.Wait(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("wait = %v, want ErrAborted", err)
	}
}

func TestAbortInitiated(t *testing.T) {
	m := newMem(t)
	id, _ := m.Initiate(func(tx *Tx) error { return nil })
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("begin after abort = %v", err)
	}
	// Abort of an aborted transaction succeeds (paper: returns 1).
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRunning(t *testing.T) {
	m := newMem(t)
	started := make(chan struct{})
	blocked := make(chan struct{})
	id, _ := m.Initiate(func(tx *Tx) error {
		close(started)
		<-blocked
		// Post-abort operations fail.
		if _, err := tx.Create([]byte("x")); !errors.Is(err, ErrAborted) {
			t.Errorf("Create after abort = %v", err)
		}
		return nil
	})
	m.Begin(id)
	<-started
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	close(blocked)
	if err := m.Wait(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("wait = %v, want ErrAborted", err)
	}
}

func TestSelfAndParent(t *testing.T) {
	m := newMem(t)
	var parentID, childSelf, childParent xid.TID
	id, _ := m.Initiate(func(tx *Tx) error {
		parentID = tx.ID()
		if !tx.Parent().IsNil() {
			t.Errorf("top-level parent = %v, want nil", tx.Parent())
		}
		child, err := tx.Initiate(func(ctx *Tx) error {
			childSelf = ctx.ID()
			childParent = ctx.Parent()
			return nil
		})
		if err != nil {
			return err
		}
		if err := tx.Manager().Begin(child); err != nil {
			return err
		}
		if err := tx.Manager().Wait(child); err != nil {
			return err
		}
		return tx.Manager().Commit(child)
	})
	m.Begin(id)
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	if childParent != parentID || childSelf == parentID {
		t.Fatalf("child self=%v parent=%v, outer=%v", childSelf, childParent, parentID)
	}
}

func TestUnknownTxn(t *testing.T) {
	m := newMem(t)
	if err := m.Begin(999); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("begin = %v", err)
	}
	if err := m.Commit(999); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("commit = %v", err)
	}
	if err := m.Abort(999); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("abort = %v", err)
	}
	if err := m.Wait(999); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("wait = %v", err)
	}
}

func TestInitiateAfterClose(t *testing.T) {
	m, _ := Open(Config{})
	m.Close()
	if _, err := m.Initiate(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestConcurrentIndependentTxns(t *testing.T) {
	m := newMem(t)
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			id, err := m.Initiate(func(tx *Tx) error {
				_, err := tx.Create([]byte("v"))
				return err
			})
			if err != nil {
				errs <- err
				return
			}
			if err := m.Begin(id); err != nil {
				errs <- err
				return
			}
			errs <- m.Commit(id)
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m.Cache().Len() != n {
		t.Fatalf("cache has %d objects, want %d", m.Cache().Len(), n)
	}
	if st := m.Stats(); st.Commits != n {
		t.Fatalf("commits = %d, want %d", st.Commits, n)
	}
}

func TestExplicitLockPrimitive(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("v"))
	locked := make(chan struct{})
	hold := make(chan struct{})
	a, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Lock(oid, xid.OpWrite); err != nil {
			return err
		}
		close(locked)
		<-hold
		return nil
	})
	m.Begin(a)
	<-locked
	// Another writer blocks on the explicit lock.
	bDone := make(chan error, 1)
	b, _ := m.Initiate(func(tx *Tx) error {
		err := tx.Write(oid, []byte("b"))
		bDone <- err
		return err
	})
	m.Begin(b)
	select {
	case err := <-bDone:
		t.Fatalf("writer proceeded (%v) against an explicit lock", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(hold)
	if err := m.Commit(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(b); err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
}

// TestTransactionsListing: Transactions lists the live transactions only;
// a committed one has left the table, and StatusOf still reports it
// committed.
func TestTransactionsListing(t *testing.T) {
	m := newMem(t)
	hold := make(chan struct{})
	running, _ := m.Initiate(func(tx *Tx) error { <-hold; return nil })
	pending, _ := m.Initiate(noop)
	m.Begin(running)
	done := runTxn(t, m, noop)
	infos := m.Transactions()
	if len(infos) != 2 {
		t.Fatalf("listed %d transactions, want the 2 live ones: %v", len(infos), infos)
	}
	byID := map[xid.TID]xid.Status{}
	for _, info := range infos {
		byID[info.ID] = info.Status
	}
	if byID[pending] != xid.StatusInitiated {
		t.Fatalf("statuses = %v", byID)
	}
	if _, listed := byID[done]; listed {
		t.Fatalf("committed %v listed: %v", done, byID)
	}
	if st := m.StatusOf(done); st != xid.StatusCommitted {
		t.Fatalf("StatusOf(committed %v) = %v", done, st)
	}
	active := m.Active()
	if len(active) != 1 || active[0] != running {
		t.Fatalf("active = %v", active)
	}
	close(hold)
	m.Commit(running)
}
