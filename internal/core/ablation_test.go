package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/xid"
)

// TestLockTimeoutResolvesDeadlockWithoutDetection covers the A4
// ablation: deadlock detection off, LockTimeout as the resolution of
// last resort. Two transactions lock a pair of objects in opposite
// orders; with no victim selection, only the timeout can break the
// cycle.
func TestLockTimeoutResolvesDeadlockWithoutDetection(t *testing.T) {
	m, err := open(Config{LockTimeout: 50 * time.Millisecond}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	setup, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.CreateAt(1, []byte("a")); err != nil {
			return err
		}
		return tx.CreateAt(2, []byte("b"))
	})
	m.Begin(setup)
	m.Wait(setup)
	if err := m.Commit(setup); err != nil {
		t.Fatal(err)
	}

	aHolds := make(chan struct{})
	bHolds := make(chan struct{})
	a, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Lock(1, xid.OpWrite); err != nil {
			return err
		}
		close(aHolds)
		<-bHolds
		return tx.Lock(2, xid.OpWrite)
	})
	b, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Lock(2, xid.OpWrite); err != nil {
			return err
		}
		close(bHolds)
		<-aHolds
		return tx.Lock(1, xid.OpWrite)
	})
	if err := m.Begin(a, b); err != nil {
		t.Fatal(err)
	}
	errA, errB := m.Wait(a), m.Wait(b)

	timedOut := 0
	for name, werr := range map[string]error{"A": errA, "B": errB} {
		if werr == nil {
			continue
		}
		if !errors.Is(werr, ErrAborted) {
			t.Fatalf("txn %s failed without ErrAborted: %v", name, werr)
		}
		if !errors.Is(werr, ErrLockTimeout) {
			t.Fatalf("txn %s aborted for a reason other than the lock timeout: %v", name, werr)
		}
		timedOut++
	}
	if timedOut == 0 {
		t.Fatal("deadlock resolved without any lock timeout firing")
	}
	// With detection disabled no victims may be counted.
	if d := m.Stats().Deadlocks; d != 0 {
		t.Fatalf("deadlock counter = %d with detection disabled", d)
	}
	// Survivors (if any) must be committable, and the manager must stay
	// fully usable after the timeout-resolved deadlock.
	if errA == nil {
		if err := m.Commit(a); err != nil {
			t.Fatalf("committing survivor A: %v", err)
		}
	}
	if errB == nil {
		if err := m.Commit(b); err != nil {
			t.Fatalf("committing survivor B: %v", err)
		}
	}
	after, _ := m.Initiate(func(tx *Tx) error { return tx.Write(1, []byte("after")) })
	m.Begin(after)
	m.Wait(after)
	if err := m.Commit(after); err != nil {
		t.Fatalf("manager unusable after timeout: %v", err)
	}
}

// TestLockTimeoutAgainstPlainHolder: a timeout also bounds waiting on an
// ordinary (non-deadlocked) long lock hold, and identifies itself as a
// timeout rather than a deadlock.
func TestLockTimeoutAgainstPlainHolder(t *testing.T) {
	m, err := open(Config{LockTimeout: 30 * time.Millisecond}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	setup, _ := m.Initiate(func(tx *Tx) error { return tx.CreateAt(1, []byte("x")) })
	m.Begin(setup)
	m.Wait(setup)
	m.Commit(setup)

	release := make(chan struct{})
	held := make(chan struct{})
	holder, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Lock(1, xid.OpWrite); err != nil {
			return err
		}
		close(held)
		<-release
		return nil
	})
	m.Begin(holder)
	<-held
	waiter, _ := m.Initiate(func(tx *Tx) error { return tx.Lock(1, xid.OpWrite) })
	m.Begin(waiter)
	werr := m.Wait(waiter)
	if !errors.Is(werr, ErrLockTimeout) || !errors.Is(werr, ErrAborted) {
		t.Fatalf("waiter error = %v, want lock timeout abort", werr)
	}
	if errors.Is(werr, ErrDeadlock) {
		t.Fatalf("timeout mislabeled as deadlock: %v", werr)
	}
	close(release)
	m.Wait(holder)
	if err := m.Commit(holder); err != nil {
		t.Fatalf("holder commit: %v", err)
	}
}

// TestReapTerminatedQueries pins the documented query semantics under
// ReapTerminated: waits and status queries that start before termination
// see the outcome; queries on already-reaped transactions get
// ErrUnknownTxn / StatusAborted; reaped descriptors vanish from
// Transactions().
func TestReapTerminatedQueries(t *testing.T) {
	m, err := Open(Config{ReapTerminated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// A Wait that starts while the transaction is live observes the
	// commit even though the descriptor is reaped at termination.
	gate := make(chan struct{})
	id, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.CreateAt(7, []byte("v")); err != nil {
			return err
		}
		<-gate
		return nil
	})
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- m.Wait(id) }()
	time.Sleep(20 * time.Millisecond) // let Wait find the live descriptor
	close(gate)
	if err := <-waitErr; err != nil {
		t.Fatalf("wait started before completion: %v", err)
	}
	if err := m.Commit(id); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// The descriptor is gone: every query on the reaped tid degrades the
	// documented way.
	if err := m.Wait(id); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Wait on reaped = %v, want ErrUnknownTxn", err)
	}
	if err := m.Commit(id); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Commit on reaped = %v, want ErrUnknownTxn", err)
	}
	if err := m.Abort(id); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Abort on reaped = %v, want ErrUnknownTxn", err)
	}
	if st := m.StatusOf(id); st != xid.StatusAborted {
		t.Fatalf("StatusOf reaped = %v, want StatusAborted fallback", st)
	}
	if txns := m.Transactions(); len(txns) != 0 {
		t.Fatalf("Transactions() lists reaped descriptors: %v", txns)
	}

	// An aborting transaction is reaped too, but a Wait already blocked
	// on it still reports the abort.
	gate2 := make(chan struct{})
	bad, _ := m.Initiate(func(tx *Tx) error {
		<-gate2
		return errors.New("boom")
	})
	if err := m.Begin(bad); err != nil {
		t.Fatal(err)
	}
	waitErr2 := make(chan error, 1)
	go func() { waitErr2 <- m.Wait(bad) }()
	time.Sleep(20 * time.Millisecond) // let Wait find the live descriptor
	close(gate2)
	if err := <-waitErr2; !errors.Is(err, ErrAborted) {
		t.Fatalf("wait on aborting txn = %v, want ErrAborted", err)
	}
	if txns := m.Transactions(); len(txns) != 0 {
		t.Fatalf("aborted txn not reaped: %v", txns)
	}
	// The committed object survives the reaping of its creator.
	if v, ok := m.Cache().Read(7); !ok || string(v) != "v" {
		t.Fatalf("object 7 = %q (%v)", v, ok)
	}
	if c := m.Stats().Commits; c != 1 {
		t.Fatalf("commits = %d, want 1", c)
	}
}
