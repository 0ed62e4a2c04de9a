package lock

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/xid"
)

// A lone lock is its entry in the shard's table; the OD an entry inflates
// into carries the lone holder on as its first LRD (objDesc.first), so a
// second holder costs one LRD off the free list. A transaction's locks are
// a list of oids in acquisition order. These tests follow the holder kept
// without an LRD through every path that takes it, hands it on or gives it
// back, and the lock list through a bulk delegation.

// firstHolder returns the holder the table keeps without an LRD off the
// free list — a lone lock's, in its entry, or the OD's first LRD's — and
// whether there is one.
func firstHolder(m *Manager, oid xid.OID) (xid.TID, bool) {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	i, ok := s.find(oid)
	if !ok {
		return xid.NilTID, false
	}
	if e := &s.table[i]; e.od == nil {
		return e.tid, true
	}
	od := s.table[i].od
	if od.first.od == nil {
		return xid.NilTID, false
	}
	return od.first.tid, true
}

// TestFirstLRDRetakenAfterHolderReleases: two S holders share an object, the
// first on the OD's own LRD and the second on one off the free list. When
// the first releases, its LRD is zeroed, not pushed on the free list, and a
// third transaction takes it back; the second holder's LRD is untouched.
func TestFirstLRDRetakenAfterHolderReleases(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const X = xid.OID(1)
	const a, b, c = xid.TID(1), xid.TID(2), xid.TID(3)
	mustLock(t, m, a, X, xid.OpRead)
	mustLock(t, m, b, X, xid.OpRead)
	if tid, ok := firstHolder(m, X); !ok || tid != a {
		t.Fatalf("first LRD held by %v (in use %v), want %v", tid, ok, a)
	}
	wantClean(t, m, "two holders")
	m.ReleaseAll(a)
	if _, ok := firstHolder(m, X); ok {
		t.Fatal("first LRD still in use after its holder released")
	}
	wantClean(t, m, "first holder released")
	mustLock(t, m, c, X, xid.OpRead)
	if tid, ok := firstHolder(m, X); !ok || tid != c {
		t.Fatalf("first LRD held by %v (in use %v) after a third lock, want %v", tid, ok, c)
	}
	if !m.Holds(b, X, xid.OpRead) || !m.Holds(c, X, xid.OpRead) || m.Holds(a, X, xid.OpRead) {
		t.Fatal("holders of X are not exactly b and c")
	}
	wantClean(t, m, "first LRD taken back")
	m.ReleaseAll(b)
	m.ReleaseAll(c)
	wantEmpty(t, m, "all released")
}

// TestFirstLRDDroppedByDelegateMerge: the delegator holds X on the OD's
// first LRD and the delegatee holds it too; the delegation merges the two
// and drops the delegator's, which must free first for the next holder.
func TestFirstLRDDroppedByDelegateMerge(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const X = xid.OID(1)
	const from, to, c = xid.TID(1), xid.TID(2), xid.TID(3)
	mustLock(t, m, from, X, xid.OpRead)
	mustLock(t, m, to, X, xid.OpRead)
	if moved := m.Delegate(from, to, nil); !slices.Equal(moved, []xid.OID{X}) {
		t.Fatalf("moved %v, want [%v]", moved, X)
	}
	if _, ok := firstHolder(m, X); ok {
		t.Fatal("first LRD still in use after the merge dropped it")
	}
	if got := m.HeldObjects(from); len(got) != 0 {
		t.Fatalf("delegator still lists %v", got)
	}
	wantClean(t, m, "merged")
	mustLock(t, m, c, X, xid.OpRead)
	if tid, ok := firstHolder(m, X); !ok || tid != c {
		t.Fatalf("first LRD held by %v (in use %v), want %v", tid, ok, c)
	}
	wantClean(t, m, "first LRD taken back after the merge")
	m.ReleaseAll(from)
	m.ReleaseAll(to)
	m.ReleaseAll(c)
	wantEmpty(t, m, "all released")
}

// TestFirstLRDRetaggedByDelegate: a delegation to a transaction that holds
// nothing on X retags the OD's first LRD in place; it stays first, now the
// delegatee's, and the delegatee's release frees it.
func TestFirstLRDRetaggedByDelegate(t *testing.T) {
	m := newTest(Options{Shards: 1})
	const X = xid.OID(1)
	const from, to, c = xid.TID(1), xid.TID(2), xid.TID(3)
	mustLock(t, m, from, X, xid.OpWrite)
	m.Delegate(from, to, []xid.OID{X})
	if tid, ok := firstHolder(m, X); !ok || tid != to {
		t.Fatalf("first LRD held by %v (in use %v), want %v", tid, ok, to)
	}
	if got := m.HeldObjects(to); !slices.Equal(got, []xid.OID{X}) {
		t.Fatalf("delegatee lists %v, want [%v]", got, X)
	}
	wantClean(t, m, "retagged")
	m.ReleaseAll(from)
	if !m.Holds(to, X, xid.OpWrite) {
		t.Fatal("the delegator's release took the retagged lock")
	}
	m.ReleaseAll(to)
	mustLock(t, m, c, X, xid.OpWrite)
	if tid, ok := firstHolder(m, X); !ok || tid != c {
		t.Fatalf("first LRD held by %v (in use %v), want %v", tid, ok, c)
	}
	m.ReleaseAll(c)
	wantEmpty(t, m, "all released")
}

// TestDelegateAllBulkReleasesClean: a transaction of a bulk load's size
// delegates everything, half of it onto objects the delegatee also holds
// (a merge each); both lists stay exact, in acquisition order, and both
// releases leave the table empty.
func TestDelegateAllBulkReleasesClean(t *testing.T) {
	const n = 8192
	m := newTest(Options{})
	const from, to = xid.TID(1), xid.TID(2)
	oids := make([]xid.OID, n)
	for i := range oids {
		oids[i] = xid.OID(i + 1)
		mustLock(t, m, from, oids[i], xid.OpRead)
		if i%2 == 1 {
			mustLock(t, m, to, oids[i], xid.OpRead)
		}
	}
	if got := m.HeldObjects(from); !slices.Equal(got, oids) {
		t.Fatalf("delegator's list is not its %d objects in acquisition order", n)
	}
	if moved := m.Delegate(from, to, nil); len(moved) != n {
		t.Fatalf("moved %d objects, want %d", len(moved), n)
	}
	if got := m.HeldObjects(from); len(got) != 0 {
		t.Fatalf("delegator still lists %d objects", len(got))
	}
	got := m.HeldObjects(to)
	slices.Sort(got)
	if !slices.Equal(got, oids) {
		t.Fatalf("delegatee lists %d objects, want each of %d once", len(got), n)
	}
	wantClean(t, m, "after delegate-all")
	m.ReleaseAll(from)
	m.ReleaseAll(to)
	wantEmpty(t, m, "after both releases")
}

// TestODSizeClass: an OD with its first holder's LRD inside stays in the
// 128-byte size class. What only a contended, permitted or escrow-declared
// object needs is in its side record and what only a parked request needs
// in the LRD's parked record, so each byte here is paid by every object
// with more than a lone lock.
func TestODSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(objDesc{}); got > 128 {
		t.Errorf("objDesc is %d bytes, want at most 128", got)
	}
}

// TestInvariantsCatchLockListDrift plants each drift between the lock lists,
// the table, the chains and the free lists that the audit must report: a
// duplicate entry, a missing one, a lone lock whose holder's list lacks it,
// an OD's free first LRD pushed on the LRD free list, and a retired OD whose
// first LRD was not zeroed. a held X on first and released it, so b holds X
// on an LRD off the free list and first is free; b also holds Y, a lone
// lock, which b's list names after X.
func TestInvariantsCatchLockListDrift(t *testing.T) {
	const X, Y = xid.OID(1), xid.OID(2)
	const a, b = xid.TID(1), xid.TID(2)
	// Each plant runs under the shard latch and b's state latch, except the
	// last, which releases b first.
	for _, tc := range []struct {
		name    string
		release bool
		plant   func(ts *txnState, od *objDesc)
	}{
		{"duplicate entry", false, func(ts *txnState, od *objDesc) {
			ts.locks = append(ts.locks, ts.locks[0])
		}},
		{"missing entry", false, func(ts *txnState, od *objDesc) {
			ts.locks = ts.locks[:0]
		}},
		{"lone lock missing from its holder's list", false, func(ts *txnState, od *objDesc) {
			ts.locks = ts.locks[:1]
		}},
		{"free first LRD on the free list", false, func(ts *txnState, od *objDesc) {
			od.home.reqPool.Push(&od.first, maxFreeReqs)
		}},
		{"retired OD keeps its first LRD", true, func(ts *txnState, od *objDesc) {
			od.first.tid = b
		}},
	} {
		m := newTest(Options{Shards: 1})
		mustLock(t, m, a, X, xid.OpRead)
		mustLock(t, m, b, X, xid.OpRead)
		mustLock(t, m, b, Y, xid.OpWrite)
		m.ReleaseAll(a)
		if f := m.Footprint(); f.Entries != 2 || f.ODs != 1 {
			t.Fatalf("%s: %d entries, %d ODs; the plant needs X inflated and Y lone", tc.name, f.Entries, f.ODs)
		}
		wantClean(t, m, tc.name+", before the plant")
		ts, od := m.stateOf(b), odOf(m, X)
		if tc.release {
			m.ReleaseAll(b)
		}
		od.home.lat.Lock()
		ts.lat.Lock()
		tc.plant(ts, od)
		ts.lat.Unlock()
		od.home.lat.Unlock()
		if bad := m.CheckInvariants(); len(bad) == 0 {
			t.Errorf("%s: the audit reported nothing", tc.name)
		}
	}
}
