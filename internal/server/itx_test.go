package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xid"
)

// Tests of the interactive transaction's token (run them under -race): it
// is what serializes a begin, the data operations and the completion that
// requests of one transaction run on whichever workers serve them.

// TestItxCommitWaitsOutBegin: a commit racing an in-flight begin waits the
// begin out and then completes the transaction — returning early would hand
// CommitCtx a transaction that is not completed yet.
func TestItxCommitWaitsOutBegin(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{MaxLive: 1, AdmitTimeout: time.Hour})
	holder := beginItx(t, m) // takes the one admission slot
	ti := initiateItx(t, m)
	ctx := context.Background()
	begun := make(chan error, 1)
	go func() { begun <- ti.begin(ctx, m) }()
	for len(ti.tok) == 0 { // the begin holds the token, parked for admission
		time.Sleep(time.Millisecond)
	}
	completed := make(chan error, 1)
	go func() { completed <- ti.complete(ctx) }()
	select {
	case err := <-completed:
		t.Fatalf("complete returned (%v) while the begin was parked for admission", err)
	case <-time.After(30 * time.Millisecond):
	}
	commitItx(t, m, holder) // frees the slot
	if err := <-begun; err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := <-completed; err != nil {
		t.Fatalf("complete: %v", err)
	}
	if st := m.StatusOf(ti.tid); st != xid.StatusCompleted {
		t.Fatalf("status after complete = %v, want completed", st)
	}
	if err := m.Commit(ti.tid); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// TestItxCommitAbandonedWhileTokenHeld: a commit whose context ends while
// an operation holds the token reports the abandonment and leaves the
// transaction running; the operation and a later commit go through.
func TestItxCommitAbandonedWhileTokenHeld(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{})
	holder, oid := heldObject(t, m)
	ti := beginItx(t, m)
	locked := make(chan error, 1)
	go func() { locked <- ti.do(context.Background(), lockRequest(ti.tid, oid)) }()
	waitWaiters(t, m, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ti.complete(ctx)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("complete under a cancelled ctx = %v, want the abandonment reported", err)
	}
	if st := m.StatusOf(ti.tid); st != xid.StatusRunning {
		t.Fatalf("status after an abandoned complete = %v, want running", st)
	}
	commitItx(t, m, holder)
	if err := <-locked; err != nil {
		t.Fatalf("Lock: %v", err)
	}
	commitItx(t, m, ti)
}

// TestItxOperationsRunOneAtATime: of two Locks on one transaction, the
// second waits for the first, which is parked in a lock wait, instead of
// running beside it on the same handle.
func TestItxOperationsRunOneAtATime(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{})
	holder, held := heldObject(t, m)
	free := committedObject(t, m)
	ti := beginItx(t, m)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- ti.do(context.Background(), lockRequest(ti.tid, held)) }()
	waitWaiters(t, m, 1)
	go func() { second <- ti.do(context.Background(), lockRequest(ti.tid, free)) }()
	select {
	case err := <-second:
		t.Fatalf("second Lock returned (%v) while the first was parked", err)
	case <-time.After(30 * time.Millisecond):
	}
	if m.LockManager().Holds(ti.tid, free, xid.OpWrite) {
		t.Fatal("second Lock granted while the first held the token")
	}
	commitItx(t, m, holder)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("Lock: %v", err)
		}
	}
	if !m.LockManager().Holds(ti.tid, free, xid.OpWrite) {
		t.Fatal("second Lock not granted after the first returned")
	}
	commitItx(t, m, ti)
}

func openManager(t *testing.T, cfg core.Config) *core.Manager {
	t.Helper()
	m, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() }) //nolint:errcheck
	return m
}

func initiateItx(t *testing.T, m *core.Manager) *itx {
	t.Helper()
	id, err := m.Initiate(nil)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	return newItx(id)
}

func beginItx(t *testing.T, m *core.Manager) *itx {
	t.Helper()
	ti := initiateItx(t, m)
	if err := ti.begin(context.Background(), m); err != nil {
		t.Fatalf("begin: %v", err)
	}
	return ti
}

func commitItx(t *testing.T, m *core.Manager, ti *itx) {
	t.Helper()
	if err := ti.complete(context.Background()); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := m.Commit(ti.tid); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// heldObject creates an object in a transaction that keeps it write-locked.
func heldObject(t *testing.T, m *core.Manager) (*itx, xid.OID) {
	t.Helper()
	holder := beginItx(t, m)
	oid, err := holder.tx.Create([]byte("held"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return holder, oid
}

func committedObject(t *testing.T, m *core.Manager) xid.OID {
	t.Helper()
	creator, oid := heldObject(t, m)
	commitItx(t, m, creator)
	return oid
}

func lockRequest(tid xid.TID, oid xid.OID) *inbound {
	return &inbound{req: rpc.Request{Op: rpc.OpLock, TID: uint64(tid), OID: uint64(oid), Mode: uint64(xid.OpWrite)}}
}

func waitWaiters(t *testing.T, m *core.Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.WaitGraph().Waiters()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d lock waiters, want %d", len(m.WaitGraph().Waiters()), n)
		}
		time.Sleep(time.Millisecond)
	}
}
