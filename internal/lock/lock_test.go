package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/waitgraph"
	"repro/internal/xid"
)

func newTest(opts Options) *Manager {
	opts.EagerClosure = true
	return New(waitgraph.New(), opts)
}

// lockAsync runs Lock on a goroutine and returns a channel with the result.
func lockAsync(m *Manager, tid xid.TID, oid xid.OID, mode xid.OpSet) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- m.Lock(tid, oid, mode) }()
	return ch
}

func mustLock(t *testing.T, m *Manager, tid xid.TID, oid xid.OID, mode xid.OpSet) {
	t.Helper()
	if err := m.Lock(tid, oid, mode); err != nil {
		t.Fatalf("Lock(%v,%v,%v): %v", tid, oid, mode, err)
	}
}

func assertBlocked(t *testing.T, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("request completed (%v), want blocked", err)
	case <-time.After(30 * time.Millisecond):
	}
}

func assertGranted(t *testing.T, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("request failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request still blocked, want granted")
	}
}

func TestSharedReadersCompatible(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	mustLock(t, m, 2, 100, xid.OpRead)
	mustLock(t, m, 3, 100, xid.OpRead)
	if !m.Holds(2, 100, xid.OpRead) {
		t.Fatal("reader 2 does not hold its lock")
	}
}

func TestWriteBlocksUntilRelease(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	ch := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch)
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

func TestReadBlocksWrite(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	ch := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch)
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	mustLock(t, m, 1, 100, xid.OpRead) // re-entrant
	mustLock(t, m, 1, 100, xid.OpWrite)
	if !m.Holds(1, 100, xid.OpWrite) || !m.Holds(1, 100, xid.OpRead) {
		t.Fatal("upgrade lost a mode")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	mustLock(t, m, 2, 100, xid.OpRead)
	ch := lockAsync(m, 1, 100, xid.OpWrite)
	assertBlocked(t, ch)
	m.ReleaseAll(2)
	assertGranted(t, ch)
}

func TestUpgradeJumpsQueue(t *testing.T) {
	// t1 holds R; t3 waits for W; t1's upgrade must not wait behind t3
	// (that would deadlock: t3 waits for t1's R, t1 waits for t3's turn).
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	ch3 := lockAsync(m, 3, 100, xid.OpWrite)
	assertBlocked(t, ch3)
	mustLock(t, m, 1, 100, xid.OpWrite) // upgrade succeeds immediately
	m.ReleaseAll(1)
	assertGranted(t, ch3)
}

func TestFIFOFairnessPreventsWriterStarvation(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	chW := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, chW)
	// A new reader must now queue behind the writer.
	chR := lockAsync(m, 3, 100, xid.OpRead)
	assertBlocked(t, chR)
	m.ReleaseAll(1)
	assertGranted(t, chW)
	assertBlocked(t, chR) // writer holds
	m.ReleaseAll(2)
	assertGranted(t, chR)
}

func TestDeadlockVictimIsYoungest(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	mustLock(t, m, 2, 200, xid.OpWrite)
	ch1 := lockAsync(m, 1, 200, xid.OpWrite)
	assertBlocked(t, ch1)
	// t2 requesting 100 closes the cycle; t2 is youngest -> victim.
	err := m.Lock(2, 100, xid.OpWrite)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// t1 still blocked until t2 releases.
	m.ReleaseAll(2)
	assertGranted(t, ch1)
}

func TestDeadlockVictimCallback(t *testing.T) {
	var victims atomic.Int64
	var victimTID atomic.Uint64
	m := newTest(Options{OnVictim: func(t xid.TID) {
		victims.Add(1)
		victimTID.Store(uint64(t))
	}})
	// Make the older transaction close the cycle, so the victim is the
	// *other* (younger) transaction and the callback fires.
	mustLock(t, m, 1, 100, xid.OpWrite)
	mustLock(t, m, 2, 200, xid.OpWrite)
	ch2 := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch2)
	ch1 := lockAsync(m, 1, 200, xid.OpWrite) // closes cycle; victim = t2
	err := <-ch2
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("victim wait err = %v, want ErrDeadlock", err)
	}
	// The callback fires on its own goroutine; give it time to land.
	deadline := time.Now().Add(5 * time.Second)
	for victims.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if victims.Load() != 1 || victimTID.Load() != 2 {
		t.Fatalf("OnVictim calls=%d tid=%d, want 1, t2", victims.Load(), victimTID.Load())
	}
	m.ReleaseAll(2) // the abort the callback would perform
	assertGranted(t, ch1)
}

func TestCancelWaits(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	ch := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch)
	m.CancelWaits(2)
	err := <-ch
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestPermitAllowsConflictAndSuspends(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpWrite)
	mustLock(t, m, 2, 100, xid.OpWrite) // would conflict; permitted
	// t1's lock is suspended: its own fast path fails and it needs t2's
	// permission to operate again.
	if m.Holds(1, 100, xid.OpWrite) {
		t.Fatal("t1's lock not suspended after permitted conflicting grant")
	}
	ch := lockAsync(m, 1, 100, xid.OpWrite)
	assertBlocked(t, ch) // no ping-pong permit yet
	m.Permit(2, 1, []xid.OID{100}, xid.OpWrite)
	assertGranted(t, ch)
	if !m.Holds(1, 100, xid.OpWrite) {
		t.Fatal("t1's suspension not cleared on re-grant")
	}
}

func TestPermitDoesNotAdmitThirdParty(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpWrite)
	mustLock(t, m, 2, 100, xid.OpWrite)
	ch := lockAsync(m, 3, 100, xid.OpWrite)
	assertBlocked(t, ch) // t3 has no permission from either holder
	m.ReleaseAll(2)
	assertBlocked(t, ch) // t1's suspended lock still excludes t3
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

func TestPermitSpecificOperationOnly(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpRead)
	mustLock(t, m, 2, 100, xid.OpRead) // read permitted
	ch := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch) // write not permitted
	m.ReleaseAll(1)
	assertGranted(t, ch)
}

func TestPermitAnyTransaction(t *testing.T) {
	// permit(ti, ob, op): cursor stability's "any transaction may write".
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	m.Permit(1, xid.NilTID, []xid.OID{100}, xid.OpWrite)
	mustLock(t, m, 2, 100, xid.OpWrite)
	mustLock(t, m, 3, 200, xid.OpRead) // unrelated
}

func TestPermitAllObjects(t *testing.T) {
	// permit(ti, tj): every object ti accessed.
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	mustLock(t, m, 1, 101, xid.OpWrite)
	m.Permit(1, 2, nil, 0)
	mustLock(t, m, 2, 100, xid.OpWrite)
	mustLock(t, m, 2, 101, xid.OpRead)
}

func TestPermitTransitivity(t *testing.T) {
	// permit(t1,t2) then permit(t2,t3) implies permit(t1,t3) on the
	// intersection.
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpAll)
	m.Permit(2, 3, []xid.OID{100}, xid.OpWrite)
	if !m.Permitted(1, 3, 100, xid.OpWrite) {
		t.Fatal("transitive permit t1->t3 missing")
	}
	if m.Permitted(1, 3, 100, xid.OpRead) {
		t.Fatal("transitive permit wider than intersection")
	}
	mustLock(t, m, 3, 100, xid.OpWrite)
}

func TestPermitTransitivityIntersection(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	mustLock(t, m, 1, 101, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpRead) // only ob100, only read
	m.Permit(2, 3, []xid.OID{100, 101}, xid.OpAll)
	if !m.Permitted(1, 3, 100, xid.OpRead) {
		t.Fatal("t1->t3 read on ob100 missing")
	}
	if m.Permitted(1, 3, 100, xid.OpWrite) {
		t.Fatal("t1->t3 write on ob100 must not exist")
	}
	if m.Permitted(1, 3, 101, xid.OpRead) {
		t.Fatal("t1->t3 on ob101 must not exist (t1 never permitted 101)")
	}
}

func TestLazyClosureMatchesEager(t *testing.T) {
	for _, eager := range []bool{true, false} {
		m := New(waitgraph.New(), Options{EagerClosure: eager})
		mustLock(t, m, 1, 100, xid.OpWrite)
		m.Permit(1, 2, []xid.OID{100}, xid.OpAll)
		m.Permit(2, 3, []xid.OID{100}, xid.OpWrite)
		m.Permit(3, 4, []xid.OID{100}, xid.OpAll)
		if !m.Permitted(1, 4, 100, xid.OpWrite) {
			t.Fatalf("eager=%v: chain t1->t4 write missing", eager)
		}
		if m.Permitted(1, 4, 100, xid.OpRead) {
			t.Fatalf("eager=%v: chain t1->t4 read must be excluded", eager)
		}
		if err := m.Lock(4, 100, xid.OpWrite); err != nil {
			t.Fatalf("eager=%v: permitted chain lock failed: %v", eager, err)
		}
	}
}

func TestReleaseDropsPermits(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpAll)
	m.ReleaseAll(1)
	if m.Permitted(1, 2, 100, xid.OpWrite) {
		t.Fatal("permits survived grantor's release")
	}
	// Permissions given TO the terminated transaction also disappear.
	mustLock(t, m, 3, 100, xid.OpWrite)
	m.Permit(3, 4, []xid.OID{100}, xid.OpAll)
	m.ReleaseAll(4)
	if m.Permitted(3, 4, 100, xid.OpWrite) {
		t.Fatal("permits to terminated grantee survived")
	}
}

func TestDelegateMovesLock(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	moved := m.Delegate(1, 2, []xid.OID{100})
	if len(moved) != 1 || moved[0] != 100 {
		t.Fatalf("moved = %v", moved)
	}
	if m.Holds(1, 100, xid.OpWrite) {
		t.Fatal("delegator still holds the lock")
	}
	if !m.Holds(2, 100, xid.OpWrite) {
		t.Fatal("delegatee did not receive the lock")
	}
	// A subsequent operation by t1 now conflicts with its own prior work.
	ch := lockAsync(m, 1, 100, xid.OpWrite)
	assertBlocked(t, ch)
	m.ReleaseAll(2)
	assertGranted(t, ch)
}

func TestDelegateAll(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	mustLock(t, m, 1, 101, xid.OpRead)
	moved := m.Delegate(1, 2, nil)
	if len(moved) != 2 {
		t.Fatalf("moved = %v, want both objects", moved)
	}
	if len(m.HeldObjects(1)) != 0 {
		t.Fatal("delegator kept locks after delegate-all")
	}
}

func TestDelegateMergesWithExistingLock(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpRead)
	mustLock(t, m, 2, 100, xid.OpRead)
	m.Delegate(1, 2, []xid.OID{100})
	if !m.Holds(2, 100, xid.OpRead) {
		t.Fatal("merged lock lost")
	}
	// Only one granted entry should remain for t2.
	s := m.shardOf(100)
	s.lat.Lock()
	n := len(s.lookup(100).granted)
	s.lat.Unlock()
	if n != 1 {
		t.Fatalf("granted list has %d entries, want 1 after merge", n)
	}
}

func TestDelegateMergeKeepsSuspensionUnderConflict(t *testing.T) {
	// Regression: t3 holds Read suspended under a wildcard OpIncr permit
	// while t1 and t2 hold permitted unsuspended Incrs. Delegating t1's Incr
	// into t3's suspended hold must not un-suspend the merge: t2's Incr is
	// still granted, and an unsuspended Read|Incr beside it violates mutual
	// exclusion and would let t3 read t2's uncommitted increments.
	m := newTest(Options{})
	mustLock(t, m, 3, 100, xid.OpRead)
	m.Permit(3, xid.NilTID, []xid.OID{100}, xid.OpIncr)
	mustLock(t, m, 1, 100, xid.OpIncr) // permitted; suspends t3's Read
	mustLock(t, m, 2, 100, xid.OpIncr) // compatible with t1, permitted vs t3
	if m.Holds(3, 100, xid.OpRead) {
		t.Fatal("t3's lock not suspended after permitted conflicting grants")
	}
	m.Delegate(1, 3, []xid.OID{100})
	if m.Holds(3, 100, xid.OpRead) {
		t.Fatal("merge un-suspended t3's hold while t2's conflicting Incr is granted")
	}
	if bad := m.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after merge: %v", bad)
	}
	// Once the conflict clears, t3 re-validates through Lock as usual.
	m.ReleaseAll(2)
	mustLock(t, m, 3, 100, xid.OpRead)
	if !m.Holds(3, 100, xid.OpRead) {
		t.Fatal("t3 cannot reclaim its lock after the conflict cleared")
	}
}

func TestDelegateMergeRevalidatesSuspension(t *testing.T) {
	// The counterpart: when the delegated lock IS the conflicting hold that
	// suspended the delegatee, merging them removes the conflict and the
	// merged hold may come back unsuspended without a re-Lock.
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpWrite)
	mustLock(t, m, 2, 100, xid.OpWrite) // permitted; suspends t1
	if m.Holds(1, 100, xid.OpWrite) {
		t.Fatal("t1 not suspended by the permitted conflicting grant")
	}
	m.Delegate(2, 1, []xid.OID{100})
	if !m.Holds(1, 100, xid.OpWrite) {
		t.Fatal("suspension not cleared after the conflicting hold merged back")
	}
	if bad := m.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after merge: %v", bad)
	}
}

func TestDelegateReassignsPermits(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 3, []xid.OID{100}, xid.OpWrite)
	m.Delegate(1, 2, []xid.OID{100})
	if !m.Permitted(2, 3, 100, xid.OpWrite) {
		t.Fatal("permission (t1,t3) not rewritten to (t2,t3)")
	}
	// t3 can now lock despite t2's (delegated) conflicting lock.
	mustLock(t, m, 3, 100, xid.OpWrite)
}

func TestDelegateToGranteeCollapsesPermit(t *testing.T) {
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	m.Permit(1, 2, []xid.OID{100}, xid.OpAll)
	m.Delegate(1, 2, []xid.OID{100})
	if m.Permitted(2, 2, 100, xid.OpWrite) {
		t.Fatal("self-permission materialized by delegation")
	}
	if !m.Holds(2, 100, xid.OpWrite) {
		t.Fatal("lock not delegated")
	}
}

func TestDelegateWakesWaiters(t *testing.T) {
	// t2 waits on t1's lock; t1 delegates to t3 which then releases.
	m := newTest(Options{})
	mustLock(t, m, 1, 100, xid.OpWrite)
	ch := lockAsync(m, 2, 100, xid.OpWrite)
	assertBlocked(t, ch)
	m.Delegate(1, 3, []xid.OID{100})
	assertBlocked(t, ch)
	m.ReleaseAll(3)
	assertGranted(t, ch)
}

func TestConcurrentLockStress(t *testing.T) {
	m := newTest(Options{})
	const goroutines = 16
	const objects = 8
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tid := xid.TID(id + 1)
			for i := 0; i < 100; i++ {
				o1 := xid.OID(i%objects + 1)
				o2 := xid.OID((i+3)%objects + 1)
				err1 := m.Lock(tid, o1, xid.OpWrite)
				var err2 error
				if err1 == nil && o1 != o2 {
					err2 = m.Lock(tid, o2, xid.OpRead)
				}
				if errors.Is(err1, ErrDeadlock) || errors.Is(err2, ErrDeadlock) {
					deadlocks.Add(1)
				}
				m.ReleaseAll(tid)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test hung (likely lost wakeup or undetected deadlock)")
	}
	t.Logf("deadlock victims: %d", deadlocks.Load())
}
