package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/xid"
)

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
