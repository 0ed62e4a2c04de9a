package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/xid"
)

// The ownership tests race the paths that retire a descriptor against the
// paths that could still be holding one. The rule under test (DESIGN.md §8):
// an LRD is reachable only from its OD's chains under the shard latch, a
// txnState is used only after is(tid) under its own latch, and either goes
// on a free list only once it is unlinked under the latch that guards the
// link. Each test loops a few thousand rounds on fresh tids, so every round
// reuses what the round before retired, and ends with the table audited and
// empty. Run them under -race, repeated.

const ownershipRounds = 3000

// wantEmpty asserts the audit is clean and that nothing is granted, pending,
// reserved or mapped any more: no lock outlives its (terminated) holder.
func wantEmpty(t *testing.T, m *Manager, ctx string) {
	t.Helper()
	wantClean(t, m, ctx)
	for si := range m.shards {
		s := &m.shards[si]
		s.lat.Lock()
		for oid, od := range s.ods {
			for _, gl := range od.granted {
				t.Errorf("%s: object %v still granted to terminated txn %v", ctx, oid, gl.tid)
			}
			for _, p := range od.pending {
				t.Errorf("%s: object %v still has a pending request of txn %v", ctx, oid, p.tid)
			}
			if od.esc != nil && (len(od.esc.holders) != 0 || od.esc.infPos != 0 || od.esc.infNeg != 0) {
				t.Errorf("%s: object %v still has reservations in flight", ctx, oid)
			}
		}
		s.lat.Unlock()
	}
	if n := m.txns.Len(); n != 0 {
		t.Errorf("%s: %d transaction states still mapped", ctx, n)
	}
}

// waitParked blocks until tid has a request parked on some object.
func waitParked(t *testing.T, m *Manager, tid xid.TID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.waitObjects(tid)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("txn %v never parked", tid)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestOwnershipDelegateRacesRelease: Delegate(a→b) and ReleaseAll(a) race
// over the one LRD a holds, while c queues for the same object and takes
// over whatever LRD the losers retire. Whichever of the two wins, the lock
// ends up with b or with nobody, never with a after its release, and c is
// granted once b lets go.
func TestOwnershipDelegateRacesRelease(t *testing.T) {
	m := newTest(Options{Shards: 4})
	for r := 0; r < ownershipRounds; r++ {
		a, b, c := xid.TID(3*r+1), xid.TID(3*r+2), xid.TID(3*r+3)
		oid := xid.OID(r%7 + 1)
		mustLock(t, m, a, oid, xid.OpWrite)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.Delegate(a, b, nil) }()
		go func() { defer wg.Done(); m.ReleaseAll(a) }()
		queued := lockAsync(m, c, oid, xid.OpWrite)
		wg.Wait()
		if m.Holds(a, oid, xid.OpWrite) {
			t.Fatalf("round %d: %v still holds %v after its release", r, a, oid)
		}
		m.ReleaseAll(b)
		if err := <-queued; err != nil {
			t.Fatalf("round %d: queued request of %v: %v", r, c, err)
		}
		m.ReleaseAll(c)
	}
	wantEmpty(t, m, "delegate vs release")
}

// TestOwnershipVictimMarkingRacesRelease: v is parked behind h when, at
// once, v is marked deadlock victim, v's waits are cancelled, v's own
// release runs (its transaction is being aborted) and h releases — which
// would grant v. A bystander w is parked on the same object throughout and
// reuses, round after round, the LRDs the others retire: it must never see
// a mark meant for v.
func TestOwnershipVictimMarkingRacesRelease(t *testing.T) {
	m := newTest(Options{Shards: 4})
	for r := 0; r < ownershipRounds; r++ {
		h, v, w := xid.TID(3*r+1), xid.TID(3*r+2), xid.TID(3*r+3)
		oid := xid.OID(r%5 + 1)
		mustLock(t, m, h, oid, xid.OpWrite)
		victim := lockAsync(m, v, oid, xid.OpWrite)
		waitParked(t, m, v)
		bystander := lockAsync(m, w, oid, xid.OpRead)
		waitParked(t, m, w)
		var wg sync.WaitGroup
		wg.Add(4)
		go func() { defer wg.Done(); m.flagWaits(v, true) }()
		go func() { defer wg.Done(); m.CancelWaits(v) }()
		go func() { defer wg.Done(); m.ReleaseAll(v) }()
		go func() { defer wg.Done(); m.ReleaseAll(h) }()
		wg.Wait()
		// The marks and the grant race: v gets whichever it noticed first.
		if err := <-victim; err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrCancelled) {
			t.Fatalf("round %d: victim's request: %v", r, err)
		}
		m.ReleaseAll(v) // drops the grant if v won it after its release
		if err := <-bystander; err != nil {
			t.Fatalf("round %d: bystander %v saw a mark meant for %v: %v", r, w, v, err)
		}
		m.ReleaseAll(w)
	}
	wantEmpty(t, m, "victim marking vs release")
}

// TestOwnershipTxnStateTeardownRacesLookup: two goroutines keep taking locks
// under one tid while a third keeps releasing that tid, so txnOf regularly
// finds the state it looked up retired, unmapped, or handed to someone else
// under its feet. Alongside, other tids churn through the same free list and
// check that what they see indexed under their own tid is only ever their
// own object.
func TestOwnershipTxnStateTeardownRacesLookup(t *testing.T) {
	m := newTest(Options{Shards: 4})
	const shared = xid.TID(1 << 40)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(oid xid.OID) {
			defer wg.Done()
			for i := 0; i < ownershipRounds; i++ {
				// ErrCancelled: the release retired the state between the
				// lookup and the grant.
				if err := m.Lock(shared, oid, xid.OpRead); err != nil && !errors.Is(err, ErrCancelled) {
					t.Errorf("lock under the shared tid: %v", err)
					return
				}
			}
		}(xid.OID(100 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.ReleaseAll(shared)
			}
		}
	}()
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			own := xid.OID(200 + g)
			for i := 0; i < ownershipRounds; i++ {
				tid := xid.TID(2*i + g + 1)
				if err := m.Lock(tid, own, xid.OpWrite); err != nil {
					t.Errorf("churn lock: %v", err)
					return
				}
				for _, oid := range m.HeldObjects(tid) {
					if oid != own {
						t.Errorf("txn %v sees %v indexed under its tid, holds only %v", tid, oid, own)
					}
				}
				m.ReleaseAll(tid)
				if held := m.HeldObjects(tid); len(held) != 0 {
					t.Errorf("txn %v sees %v indexed under its tid after its release", tid, held)
				}
			}
		}(g)
	}
	churn.Wait()
	close(stop)
	wg.Wait()
	m.ReleaseAll(shared)
	wantEmpty(t, m, "teardown vs lookup")
}

// TestOwnershipEscrowSettleRacesDelegation: a's reservation is being folded
// by its commit while a delegation moves the same reservation to b. Exactly
// one of them must account for the delta: every round adds one to the
// committed value, whoever settled it.
func TestOwnershipEscrowSettleRacesDelegation(t *testing.T) {
	const oid, start = xid.OID(9), uint64(1 << 20)
	m := newEscrowManager(t, oid, start, 0, 1<<40)
	for r := 0; r < ownershipRounds; r++ {
		a, b := xid.TID(2*r+1), xid.TID(2*r+2)
		if err := m.EscrowReserve(a, oid, 1); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.Delegate(a, b, nil) }()
		go func() { defer wg.Done(); m.EscrowCommit(a); m.ReleaseAll(a) }()
		wg.Wait()
		m.EscrowCommit(b)
		m.ReleaseAll(b)
	}
	if val, infPos, infNeg := escrowVal(t, m, oid); val != start+ownershipRounds || infPos != 0 || infNeg != 0 {
		t.Errorf("ledger = %d (+%d/-%d in flight), want %d with nothing in flight", val, infPos, infNeg, start+ownershipRounds)
	}
	wantEmpty(t, m, "settle vs delegation")
}

// TestOwnershipStaleStatePointerRefused plays the stale holder by hand: a
// pointer to T's state is kept across T's release, and the state — first off
// the free list — is handed to U. Every path that re-enters the state through
// the old pointer must find, under its latch, that it is no longer T's, and
// leave U's indexes alone.
func TestOwnershipStaleStatePointerRefused(t *testing.T) {
	m := newTest(Options{})
	const T, U = xid.TID(1), xid.TID(2)
	const oid = xid.OID(7)
	stale := m.txnOf(T)
	m.ReleaseAll(T)
	if got := m.txnOf(U); got != stale {
		t.Fatalf("free list did not hand T's retired state to U; the test needs it to")
	}
	s := m.shardOf(oid)
	s.lat.Lock()
	od := s.od(oid)
	granted := m.installGrant(stale, od, T, xid.OpWrite, 0, false)
	stale.registerWait(T, od)
	s.lat.Unlock()
	if granted {
		t.Fatal("installGrant registered T's grant in the state U now owns")
	}
	if held := m.HeldObjects(U); len(held) != 0 {
		t.Errorf("U sees %v indexed under its tid", held)
	}
	if waits := m.waitObjects(U); len(waits) != 0 {
		t.Errorf("U has %d parked requests it never made", len(waits))
	}
	// The other direction: U's registrations are out of reach of T's tid.
	mustLock(t, m, U, oid, xid.OpWrite)
	s.lat.Lock()
	moved := m.delegateOneLocked(T, 3, stale, m.txnOf(3), s, oid)
	s.lat.Unlock()
	if moved || !m.Holds(U, oid, xid.OpWrite) {
		t.Error("a delegation from T through the stale pointer moved U's lock")
	}
	m.ReleaseAll(U)
	m.ReleaseAll(3)
	wantEmpty(t, m, "stale state pointer")
}

// TestOwnershipLateWakeupKeepsLRD: the timeout timer and the ctx watcher of
// a parked request hold its LRD. When the request leaves the queue with one
// of them already fired — its callback may still be on its way to the shard
// latch — the LRD must not go back on the free list, where the next request
// would pick it up and inherit the flag; when neither fired it must.
func TestOwnershipLateWakeupKeepsLRD(t *testing.T) {
	const oid = xid.OID(7)
	free := func(m *Manager) int {
		s := m.shardOf(oid)
		s.lat.Lock()
		defer s.lat.Unlock()
		return s.nfree
	}

	// Timed out: the timer fired, the LRD is abandoned to the collector.
	m := newTest(Options{WaitTimeout: 2 * time.Millisecond, NoDetection: true})
	mustLock(t, m, 1, oid, xid.OpWrite)
	before := free(m)
	if err := m.Lock(2, oid, xid.OpWrite); !errors.Is(err, ErrTimeout) {
		t.Fatalf("parked request: %v, want timeout", err)
	}
	if got := free(m); got != before {
		t.Errorf("free list went %d → %d over a timed-out request; its LRD must not be recycled", before, got)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	wantEmpty(t, m, "late wake-up, fired")

	// Granted with the timer armed but far from firing: it is stopped and
	// the pending LRD is recycled. The release retires 1's granted LRD (+1),
	// 3's pending LRD goes back (+1) and its granted one comes off (-1).
	m = newTest(Options{WaitTimeout: time.Hour})
	mustLock(t, m, 1, oid, xid.OpWrite)
	before = free(m)
	granted := lockAsync(m, 3, oid, xid.OpWrite)
	waitParked(t, m, 3)
	m.ReleaseAll(1)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if got := free(m); got != before+1 {
		t.Errorf("free list went %d → %d over a release and a quiet grant, want %d", before, got, before+1)
	}
	m.ReleaseAll(3)
	wantEmpty(t, m, "late wake-up, quiet")
}
