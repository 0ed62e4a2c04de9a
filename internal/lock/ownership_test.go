package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/xid"
)

// The ownership tests race the paths that retire a descriptor against the
// paths that could still be holding one. The rule under test (DESIGN.md §8):
// an LRD is reachable only from its OD's chains under the shard latch, a
// txnState is used only after is(tid) under its own latch, an OD is believed
// only while mapped under the oid its holder knows it by, and each goes on a
// free list only once it is unlinked under the latch that guards the link.
// Each test loops a few thousand rounds on fresh tids, so every round reuses
// what the round before retired, and ends with the table audited and empty.
// Run them under -race, repeated.

const ownershipRounds = 3000

// wantEmpty asserts the audit is clean and that nothing is granted, pending,
// permitted, reserved or mapped any more: no lock outlives its (terminated)
// holder, and the only ODs left are those of declared ledgers.
func wantEmpty(t *testing.T, m *Manager, ctx string) {
	t.Helper()
	wantClean(t, m, ctx)
	for si := range m.shards {
		s := &m.shards[si]
		s.lat.Lock()
		for _, od := range s.mappedODs() {
			if len(od.granted)+len(od.pending)+len(od.permits) > 0 {
				t.Errorf("%s: object %v still has %d granted, %d pending, %d permits", ctx, od.oid,
					len(od.granted), len(od.pending), len(od.permits))
			}
			if od.esc != nil && (len(od.esc.holders) != 0 || od.esc.infPos != 0 || od.esc.infNeg != 0) {
				t.Errorf("%s: object %v still has reservations in flight", ctx, od.oid)
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
	stale.registerWait(T, oid)
	s.retireIfIdle(od)
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
		return int(s.nfree)
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

// odOf returns the OD mapped under oid, or nil.
func odOf(m *Manager, oid xid.OID) *objDesc {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	return s.lookup(oid)
}

// TestOwnershipParkRacesRetirement: c's request on A finds a holding it,
// lets go of the shard latch and goes to park — while a releases, which
// retires A's OD, and b churns locks on other objects of the same shard,
// which reuse it. c must end up holding A and nothing else, whatever its
// first pass was looking at.
func TestOwnershipParkRacesRetirement(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const A = xid.OID(1)
	for r := 0; r < ownershipRounds; r++ {
		a, b, c := xid.TID(3*r+1), xid.TID(3*r+2), xid.TID(3*r+3)
		mustLock(t, m, a, A, xid.OpWrite)
		queued := lockAsync(m, c, A, xid.OpWrite)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.ReleaseAll(a) }()
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				B := xid.OID(100 + 4*r + i)
				if err := m.Lock(b, B, xid.OpWrite); err != nil {
					t.Errorf("round %d: churn lock on %v: %v", r, B, err)
				}
			}
			m.ReleaseAll(b)
		}()
		if err := <-queued; err != nil {
			t.Fatalf("round %d: request of %v on %v: %v", r, c, A, err)
		}
		wg.Wait()
		if held := m.HeldObjects(c); len(held) != 1 || held[0] != A || !m.Holds(c, A, xid.OpWrite) {
			t.Fatalf("round %d: %v holds %v, want exactly %v", r, c, held, A)
		}
		m.ReleaseAll(c)
	}
	wantEmpty(t, m, "park vs retirement")
}

// TestOwnershipStaleODRefusedByPark is that race played by hand, in the one
// order that hurts: the probe acquire built still names A's OD when the OD
// has been retired and mapped again under B, which somebody else holds. park
// must resolve A again — finding no OD, hence no blocker — instead of
// queueing T's request for A behind the holder of B.
func TestOwnershipStaleODRefusedByPark(t *testing.T) {
	m := newTest(Options{Shards: 1, WaitTimeout: 200 * time.Millisecond})
	const A, B = xid.OID(1), xid.OID(2)
	const H, T, U = xid.TID(1), xid.TID(2), xid.TID(3)
	mustLock(t, m, H, A, xid.OpWrite)
	stale := odOf(m, A)
	probe := lockReq{tid: T, od: stale, mode: xid.OpWrite, status: statusPending} // T's first pass: blocked by H
	ts := m.txnOf(T)
	m.ReleaseAll(H) // the unlatched window: A's OD is retired ...
	mustLock(t, m, U, B, xid.OpWrite)
	if odOf(m, B) != stale { // ... and reused
		t.Fatal("free list did not hand A's retired OD to B; the test needs it to")
	}
	if err := m.park(context.Background(), ts, m.shardOf(A), A, probe); err != nil {
		t.Fatalf("T's request for %v, parked with a stale OD: %v", A, err)
	}
	if !m.Holds(T, A, xid.OpWrite) || m.Holds(T, B, xid.OpWrite) || !m.Holds(U, B, xid.OpWrite) {
		t.Errorf("after park: T holds A=%v B=%v, U holds B=%v; want true false true",
			m.Holds(T, A, xid.OpWrite), m.Holds(T, B, xid.OpWrite), m.Holds(U, B, xid.OpWrite))
	}
	wantClean(t, m, "stale OD in park")
	m.ReleaseAll(T)
	m.ReleaseAll(U)
	wantEmpty(t, m, "stale OD in park, released")
}

// TestOwnershipCancelRacesWaiterLeaving: v is parked on A behind h when v is
// cancelled and marked victim — while h releases, v is granted (or gives up)
// and releases in turn, A's OD is retired, and the next holder and a parked
// bystander w on another object of the shard reuse it. The marks look v's
// requests up by oid under the latch, so they land on v's request on A or on
// nothing; w, parked on the reused OD, must never see one.
func TestOwnershipCancelRacesWaiterLeaving(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const A = xid.OID(1)
	for r := 0; r < ownershipRounds; r++ {
		h, v, h2, w := xid.TID(4*r+1), xid.TID(4*r+2), xid.TID(4*r+3), xid.TID(4*r+4)
		B := xid.OID(100 + r)
		mustLock(t, m, h, A, xid.OpWrite)
		victim := lockAsync(m, v, A, xid.OpWrite)
		waitParked(t, m, v)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); m.CancelWaits(v) }()
		go func() { defer wg.Done(); m.flagWaits(v, true) }()
		var bystander <-chan error
		go func() {
			defer wg.Done()
			m.ReleaseAll(h)
			if err := <-victim; err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrCancelled) {
				t.Errorf("round %d: victim's request: %v", r, err)
			}
			m.ReleaseAll(v) // A's OD retires here
			if err := m.Lock(h2, B, xid.OpWrite); err != nil {
				t.Errorf("round %d: lock on the reuse: %v", r, err)
			}
			bystander = lockAsync(m, w, B, xid.OpWrite)
			waitParked(t, m, w)
		}()
		wg.Wait()
		m.ReleaseAll(h2)
		if err := <-bystander; err != nil {
			t.Fatalf("round %d: bystander %v saw a mark meant for %v: %v", r, w, v, err)
		}
		m.ReleaseAll(w)
	}
	wantEmpty(t, m, "cancel vs waiter leaving")
}

// TestOwnershipReleaseRacesDelegateThenRelease: a's release walks its lock
// index while a delegation moves a's lock on A to b, b releases it — which
// retires A's OD — and c takes the OD over for another object of the shard.
// a's walk must leave c's lock alone, and nobody's lock may outlive its
// holder.
func TestOwnershipReleaseRacesDelegateThenRelease(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const A = xid.OID(1)
	for r := 0; r < ownershipRounds; r++ {
		a, b, c := xid.TID(3*r+1), xid.TID(3*r+2), xid.TID(3*r+3)
		B := xid.OID(100 + r)
		mustLock(t, m, a, A, xid.OpWrite)
		mustLock(t, m, a, A+1, xid.OpWrite) // keeps a's walk busy on either side of A
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m.ReleaseAll(a) }()
		go func() {
			defer wg.Done()
			m.Delegate(a, b, []xid.OID{A})
			m.ReleaseAll(b)
			if err := m.Lock(c, B, xid.OpWrite); err != nil {
				t.Errorf("round %d: lock on the reuse: %v", r, err)
			}
		}()
		wg.Wait()
		if !m.Holds(c, B, xid.OpWrite) || m.Holds(a, A, xid.OpWrite) || m.Holds(b, A, xid.OpWrite) {
			t.Fatalf("round %d: c holds B=%v, a holds A=%v, b holds A=%v; want true false false", r,
				m.Holds(c, B, xid.OpWrite), m.Holds(a, A, xid.OpWrite), m.Holds(b, A, xid.OpWrite))
		}
		m.ReleaseAll(c)
	}
	wantEmpty(t, m, "release vs delegate-then-release")
}

// TestOwnershipStaleIndexEntryRefusedByRelease plants by hand what the rule
// says a release must survive: an entry of T's retired lock index whose OD
// has since been retired and mapped under another oid. The release must see,
// under the latch, that the OD is not A's any more, and leave it — and the
// lock U holds through it — alone.
func TestOwnershipStaleIndexEntryRefusedByRelease(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const A, B = xid.OID(1), xid.OID(2)
	const T, U = xid.TID(1), xid.TID(2)
	mustLock(t, m, T, A, xid.OpWrite)
	s := m.shardOf(A)
	s.lat.Lock()
	stale := s.lookup(A)
	stale.dropGranted(stale.ownerReq(T)) // as an earlier release under T's tid would have
	s.retireIfIdle(stale)
	s.lat.Unlock()
	mustLock(t, m, U, B, xid.OpWrite)
	if odOf(m, B) != stale {
		t.Fatal("free list did not hand A's retired OD to B; the test needs it to")
	}
	m.ReleaseAll(T) // T's index still says A → stale
	if !m.Holds(U, B, xid.OpWrite) {
		t.Error("T's release, through a stale index entry, took U's lock on another object")
	}
	wantClean(t, m, "stale index entry")
	m.ReleaseAll(U)
	wantEmpty(t, m, "stale index entry, released")
}

// TestOwnershipGrantorReleaseOverDeadPDs: g's permits on A die with their
// grantee, A's OD is retired and then reused for B, where w parks behind h.
// g's own release still walks the dead PDs, whose od now describes B: it may
// read nothing from it but its shard, and must leave h, w and B's PD list
// alone. Raced for the detector, then checked once by hand.
func TestOwnershipGrantorReleaseOverDeadPDs(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const A = xid.OID(1)
	for r := 0; r < ownershipRounds; r++ {
		g, e, h := xid.TID(3*r+1), xid.TID(3*r+2), xid.TID(3*r+3)
		B := xid.OID(100 + r)
		m.Permit(g, e, []xid.OID{A}, xid.OpWrite)
		if odOf(m, A) == nil {
			t.Fatalf("round %d: a live PD does not keep its OD mapped", r)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); m.ReleaseAll(e) }() // the PD dies, A's OD retires
		go func() { defer wg.Done(); m.ReleaseAll(g) }() // walks the PD, live or dead
		go func() {
			defer wg.Done()
			if err := m.Lock(h, B, xid.OpWrite); err != nil {
				t.Errorf("round %d: lock on the reuse: %v", r, err)
			}
		}()
		wg.Wait()
		if !m.Holds(h, B, xid.OpWrite) {
			t.Fatalf("round %d: h lost its lock on %v", r, B)
		}
		m.ReleaseAll(h)
	}
	wantEmpty(t, m, "grantor release vs dead PDs")

	const g, e, h, w, B = xid.TID(1 << 40), xid.TID(1<<40 + 1), xid.TID(1<<40 + 2), xid.TID(1<<40 + 3), xid.OID(2)
	m.Permit(g, e, []xid.OID{A}, xid.OpWrite)
	stale := odOf(m, A)
	m.ReleaseAll(e)
	mustLock(t, m, h, B, xid.OpWrite)
	if odOf(m, B) != stale {
		t.Fatal("free list did not hand A's retired OD to B; the test needs it to")
	}
	m.Permit(h, w, []xid.OID{B}, xid.OpRead)
	m.ReleaseAll(g)
	if !m.Holds(h, B, xid.OpWrite) || !m.Permitted(h, w, B, xid.OpRead) {
		t.Error("g's release over its dead PD disturbed the object its OD describes now")
	}
	wantClean(t, m, "dead PD, OD moved on")
	m.ReleaseAll(h)
	m.ReleaseAll(w)
	wantEmpty(t, m, "dead PD, released")
}

// TestOwnershipLateBroadcastIsSpurious: a wake-up callback (timeout timer,
// ctx watcher) that had already started when its request left holds the OD
// and will Broadcast on it. If the OD has been retired and reused by then,
// that wakes the new object's waiters for nothing: they re-evaluate and park
// again. Here the late callback is played by hand.
func TestOwnershipLateBroadcastIsSpurious(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const A, B = xid.OID(1), xid.OID(2)
	mustLock(t, m, 1, A, xid.OpWrite)
	stale := odOf(m, A)
	m.ReleaseAll(1)
	mustLock(t, m, 2, B, xid.OpWrite)
	if odOf(m, B) != stale {
		t.Fatal("free list did not hand A's retired OD to B; the test needs it to")
	}
	parked := lockAsync(m, 3, B, xid.OpWrite)
	waitParked(t, m, 3)
	for i := 0; i < 3; i++ {
		stale.home.lat.Lock()
		stale.cond.Broadcast()
		stale.home.lat.Unlock()
		assertBlocked(t, parked)
	}
	wantClean(t, m, "spurious wake-ups")
	m.ReleaseAll(2)
	assertGranted(t, parked)
	m.ReleaseAll(3)
	wantEmpty(t, m, "late broadcast")
}

// TestOwnershipLedgerKeepsItsOD: a declared escrow ledger is state of the
// object, not of a lock. Its OD stays mapped with no lock in force, so the
// bounds and the committed value are there for the next reservation; it goes
// when the declaration is dropped.
func TestOwnershipLedgerKeepsItsOD(t *testing.T) {
	const oid = xid.OID(9)
	m := newEscrowManager(t, oid, 10, 0, 12)
	if err := m.EscrowReserve(1, oid, 2); err != nil {
		t.Fatal(err)
	}
	m.EscrowCommit(1)
	m.ReleaseAll(1)
	if f := m.Footprint(); f.ODs != 1 {
		t.Fatalf("%d ODs mapped with one ledger declared and no lock in force, want 1", f.ODs)
	}
	if val, _, _ := escrowVal(t, m, oid); val != 12 {
		t.Errorf("ledger value %d after the holder's release, want 12", val)
	}
	if err := m.EscrowReserve(2, oid, 1); !errors.Is(err, ErrEscrow) {
		t.Errorf("reservation beyond the declared bound: %v, want ErrEscrow", err)
	}
	m.ReleaseAll(2)
	wantEmpty(t, m, "ledger, idle")
	m.DropEscrow(oid)
	if f := m.Footprint(); f.ODs != 0 {
		t.Errorf("%d ODs mapped after the declaration was dropped, want 0", f.ODs)
	}
	wantEmpty(t, m, "ledger dropped")
}
