package core

import (
	"errors"
	"testing"
	"time"
)

// TestEscrowBoundsRejectAdd: an Add whose delta can never fit the declared
// bounds fails with ErrEscrow (aborting the transaction), and the
// committed value is untouched.
func TestEscrowBoundsRejectAdd(t *testing.T) {
	m := newMem(t)
	oid := seedCounter(t, m, 5)
	runTxn(t, m, func(tx *Tx) error { return tx.DeclareEscrow(oid, 0, 10) })

	id, err := m.Initiate(func(tx *Tx) error { return tx.Add(oid, 100) })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	m.Wait(id)
	if err := m.Commit(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit of over-bounds add: %v, want abort", err)
	}
	if v := counterValue(t, m, oid); v != 5 {
		t.Fatalf("counter = %d after rejected add, want 5", v)
	}

	// Within bounds still works.
	runTxn(t, m, func(tx *Tx) error { return tx.Add(oid, 4) })
	if v := counterValue(t, m, oid); v != 9 {
		t.Fatalf("counter = %d, want 9", v)
	}
}

// TestEscrowReaperFreesReservation: a watchdog-reaped transaction's
// in-flight escrow reservation is released with its locks, so a
// bounds-blocked Add by another transaction proceeds instead of waiting
// on a zombie.
func TestEscrowReaperFreesReservation(t *testing.T) {
	m, err := Open(Config{TxnDeadline: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oid := seedCounter(t, m, 0)
	runTxn(t, m, func(tx *Tx) error { return tx.DeclareEscrow(oid, 0, 10) })

	hold := make(chan struct{})
	reserved := make(chan struct{})
	hog, err := m.Initiate(func(tx *Tx) error {
		if err := tx.Add(oid, 10); err != nil {
			return err
		}
		close(reserved)
		<-hold // outlive the deadline holding all the headroom
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(hog); err != nil {
		t.Fatal(err)
	}
	<-reserved

	// Bounds-blocked: 0 + 10 in flight + 1 > 10. Admittable only once the
	// hog's reservation goes — which the reaper must arrange. Clearing its
	// descriptor's deadline keeps this transaction out of the reaper's
	// reach while it waits for the hog's.
	done := make(chan error, 1)
	add, err := m.Initiate(func(tx *Tx) error { return tx.Add(oid, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := m.txns.Get(uint64(add)); ok {
		d.deadline.Store(0)
	} else {
		t.Fatal("adder reaped before its deadline could be cleared")
	}
	if err := m.Begin(add); err != nil {
		t.Fatal(err)
	}
	go func() { done <- m.Commit(add) }()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked add after reap: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("add still blocked: reaped transaction's reservation not released")
	}
	close(hold)
	if err := m.Commit(hog); !errors.Is(err, ErrTxnDeadline) {
		t.Fatalf("hog commit: %v, want ErrTxnDeadline", err)
	}
	if v := counterValue(t, m, oid); v != 1 {
		t.Fatalf("counter = %d, want 1 (reaped +10 leaked?)", v)
	}
	if st := m.Stats(); st.Reaped == 0 {
		t.Fatal("watchdog reported no reaps")
	}
}
