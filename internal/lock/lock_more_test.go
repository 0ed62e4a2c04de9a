package lock

import (
	"sync"
	"testing"
	"time"

	"repro/internal/xid"
)

func TestIncrementLocksCommute(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpIncr)
	mustLock(t, m, 2, 100, xid.OpIncr)
	mustLock(t, m, 3, 100, xid.OpIncr)
	// A reader must wait for all three.
	ch := lockAsync(m, 4, 100, xid.OpRead)
	assertBlocked(t, ch)
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	assertBlocked(t, ch)
	m.ReleaseAll(3)
	assertGranted(t, ch)
}

func TestIncrementConflictsWithWriter(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	ch := lockAsync(m, 2, 100, xid.OpIncr)
	assertBlocked(t, ch)
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

func TestPermitCoversIncrement(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpIncr)
	mustLock(t, m, 2, 100, xid.OpIncr) // permitted despite the write lock
	ch := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch) // write not permitted
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

func TestHeldObjectsAndHolds(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	mustLock(t, m, 1, 101, xid.OpWrite)
	objs := m.HeldObjects(1)
	if len(objs) != 2 {
		t.Fatalf("HeldObjects = %v", objs)
	}
	if !m.Holds(1, 101, xid.OpWrite) || m.Holds(1, 100, xid.OpWrite) {
		t.Fatal("Holds mode check wrong")
	}
	if m.Holds(2, 100, xid.OpRead) {
		t.Fatal("phantom hold")
	}
}

// TestManyWaitersAllWake: releasing a write lock must wake every queued
// reader (broadcast, not signal).
func TestManyWaitersAllWake(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(tid xid.TID) {
			defer wg.Done()
			errs <- m.Lock(tid, 100, xid.OpRead)
		}(xid.TID(10 + i))
	}
	time.Sleep(30 * time.Millisecond)
	m.ReleaseAll(1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("some readers never woke (lost wakeup)")
	}
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSuspendedHolderReleaseWakesWaiters: a waiter blocked on a suspended
// lock must wake when the suspended holder terminates.
func TestSuspendedHolderReleaseWakesWaiters(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpAll)
	mustLock(t, m, 2, 100, xid.OpWrite) // t1 suspended
	m.ReleaseAll(2)                     // grantee done
	ch := lockAsync(m, 3, 100, xid.OpWrite)
	assertBlocked(t, ch) // t1's suspended lock still excludes t3
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

// TestDelegateWhileWaiterQueued: delegation must not strand a queued
// waiter when the delegatee releases.
func TestDelegateWhileWaiterQueued(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	ch := lockAsync(m, 2, 100, xid.OpRead)
	assertBlocked(t, ch)
	m.Delegate(1, 3, nil)
	m.ReleaseAll(1) // delegator has nothing; must not grant the waiter
	assertBlocked(t, ch)
	m.ReleaseAll(3)
	assertGranted(t, ch)
}

func TestPermitIdempotentAndWidening(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpRead)
	m.Permit(1, 2, []xid.OID{100}, xid.OpRead) // idempotent
	if n := m.PermitCount(100); n != 1 {
		t.Fatalf("PermitCount = %d, want 1 (no duplicate PDs)", n)
	}
	m.Permit(1, 2, []xid.OID{100}, xid.OpWrite) // widens in place
	if n := m.PermitCount(100); n != 1 {
		t.Fatalf("PermitCount after widening = %d, want 1", n)
	}
	if !m.Permitted(1, 2, 100, xid.OpRead) || !m.Permitted(1, 2, 100, xid.OpWrite) {
		t.Fatal("widened permit incomplete")
	}
}
