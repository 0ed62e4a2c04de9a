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

// Tests of an interactive transaction's token, core.Tx.Acquire, as the
// server drives it (run them under -race): it is what serializes a begin,
// the data operations and the completion that requests of one transaction
// run on whichever workers serve them.

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
	go func() { begun <- begin(ctx, m, ti) }()
	for !tokenHeld(ti) { // the begin holds the token, parked for admission
		time.Sleep(time.Millisecond)
	}
	completed := make(chan error, 1)
	go func() { completed <- complete(ctx, ti) }()
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
	if st := ti.Status(); st != xid.StatusCompleted {
		t.Fatalf("status after complete = %v, want completed", st)
	}
	if err := m.Commit(ti.ID()); err != nil {
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
	go func() { locked <- doRequest(ti, lockRequest(ti.ID(), oid)) }()
	waitWaiters(t, m, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := complete(ctx, ti)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("complete under a cancelled ctx = %v, want the abandonment reported", err)
	}
	if st := ti.Status(); st != xid.StatusRunning {
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
	go func() { first <- doRequest(ti, lockRequest(ti.ID(), held)) }()
	waitWaiters(t, m, 1)
	go func() { second <- doRequest(ti, lockRequest(ti.ID(), free)) }()
	select {
	case err := <-second:
		t.Fatalf("second Lock returned (%v) while the first was parked", err)
	case <-time.After(30 * time.Millisecond):
	}
	if m.LockManager().Holds(ti.ID(), free, xid.OpWrite) {
		t.Fatal("second Lock granted while the first held the token")
	}
	commitItx(t, m, holder)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("Lock: %v", err)
		}
	}
	if !m.LockManager().Holds(ti.ID(), free, xid.OpWrite) {
		t.Fatal("second Lock not granted after the first returned")
	}
	commitItx(t, m, ti)
}

// TestItxOperationAbandonedWhileWaiting: an operation waiting for the token
// behind a parked Lock, whose request is cancelled meanwhile, reports the
// abandonment with the cancel's cause and holds nothing; the parked Lock
// and the transaction go on.
func TestItxOperationAbandonedWhileWaiting(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{})
	holder, held := heldObject(t, m)
	free := committedObject(t, m)
	ti := beginItx(t, m)
	first := make(chan error, 1)
	go func() { first <- doRequest(ti, lockRequest(ti.ID(), held)) }()
	waitWaiters(t, m, 1)
	ctx, cancel := context.WithCancelCause(context.Background())
	second := make(chan error, 1)
	go func() {
		var rbuf []byte
		second <- do(ctx, ti, lockRequest(ti.ID(), free), &rbuf)
	}()
	time.Sleep(20 * time.Millisecond) // waiting for the token
	cause := errors.New("request cancelled by client")
	cancel(cause)
	if err := <-second; !errors.Is(err, cause) || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("operation cancelled while waiting for the token = %v, want the abandonment", err)
	}
	if m.LockManager().Holds(ti.ID(), free, xid.OpWrite) {
		t.Fatal("abandoned Lock granted")
	}
	commitItx(t, m, holder)
	if err := <-first; err != nil {
		t.Fatalf("parked Lock: %v", err)
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

func initiateItx(t *testing.T, m *core.Manager) *core.Tx {
	t.Helper()
	ti, err := m.InitiateInteractive()
	if err != nil {
		t.Fatalf("InitiateInteractive: %v", err)
	}
	return ti
}

func beginItx(t *testing.T, m *core.Manager) *core.Tx {
	t.Helper()
	ti := initiateItx(t, m)
	if err := begin(context.Background(), m, ti); err != nil {
		t.Fatalf("begin: %v", err)
	}
	return ti
}

func commitItx(t *testing.T, m *core.Manager, ti *core.Tx) {
	t.Helper()
	if err := complete(context.Background(), ti); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := m.Commit(ti.ID()); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// tokenHeld reports whether somebody holds ti's token, by trying to take it
// under a context that is already over.
func tokenHeld(ti *core.Tx) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ti.Acquire(ctx) != nil {
		return true
	}
	ti.Release()
	return false
}

// doRequest runs in as a worker would, reading into a buffer of its own.
func doRequest(ti *core.Tx, in *inbound) error {
	var rbuf []byte
	return do(context.Background(), ti, in, &rbuf)
}

// heldObject creates an object in a transaction that keeps it write-locked.
func heldObject(t *testing.T, m *core.Manager) (*core.Tx, xid.OID) {
	t.Helper()
	holder := beginItx(t, m)
	oid, err := holder.Create([]byte("held"))
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
