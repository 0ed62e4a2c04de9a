package lock

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/xid"
)

// These tests walk the boundary between a lone lock, which is its entry in
// the shard's table, and an object descriptor: each thing that needs an OD
// inflates the entry, the holder's own upgrade and a delegation of a lone
// lock do not, and an OD that goes idle deletes its entry. Each step is
// checked through the public surface (Holds, HeldObjects, Footprint) and
// the audit.

// wantTable asserts the table's entry and OD counts and a clean audit.
func wantTable(t *testing.T, m *Manager, entries, ods int, ctx string) {
	t.Helper()
	if f := m.Footprint(); f.Entries != entries || f.ODs != ods {
		t.Errorf("%s: %d entries, %d ODs; want %d and %d", ctx, f.Entries, f.ODs, entries, ods)
	}
	wantClean(t, m, ctx)
}

// wantHeld asserts that tid holds mode on oid and lists exactly oids.
func wantHeld(t *testing.T, m *Manager, tid xid.TID, oid xid.OID, mode xid.OpSet, oids ...xid.OID) {
	t.Helper()
	if !m.Holds(tid, oid, mode) {
		t.Errorf("%v does not hold %v on %v", tid, mode, oid)
	}
	if got := m.HeldObjects(tid); !slices.Equal(got, oids) {
		t.Errorf("%v lists %v, want %v", tid, got, oids)
	}
}

// TestEntryUpgradeStaysLone: a lone lock, its covered re-request and its
// holder's upgrade are all decided on the entry; no OD is made.
func TestEntryUpgradeStaysLone(t *testing.T) {
	m := newTest(Options{})
	const X, a = xid.OID(1), xid.TID(1)
	mustLock(t, m, a, X, xid.OpRead)
	wantTable(t, m, 1, 0, "lone read lock")
	mustLock(t, m, a, X, xid.OpRead)
	mustLock(t, m, a, X, xid.OpWrite)
	wantHeld(t, m, a, X, xid.OpRead|xid.OpWrite, X)
	wantTable(t, m, 1, 0, "upgraded")
	m.ReleaseAll(a)
	wantTable(t, m, 0, 0, "released")
	if f := m.Footprint(); f.FreeODs != 0 || f.FreeLRDs != 0 {
		t.Errorf("a lone lock's passage left descriptors on the free lists: %+v", f)
	}
}

// TestEntryInflatesOnSecondHolder: a second holder inflates the entry, the
// first holder moving into the OD's first LRD; when both have let go the
// idle OD deletes its entry.
func TestEntryInflatesOnSecondHolder(t *testing.T) {
	m := newTest(Options{})
	const X, a, b = xid.OID(1), xid.TID(1), xid.TID(2)
	mustLock(t, m, a, X, xid.OpRead)
	mustLock(t, m, b, X, xid.OpRead)
	wantHeld(t, m, a, X, xid.OpRead, X)
	wantHeld(t, m, b, X, xid.OpRead, X)
	wantTable(t, m, 1, 1, "two readers")
	m.ReleaseAll(a)
	wantHeld(t, m, b, X, xid.OpRead, X)
	wantTable(t, m, 1, 1, "first reader released")
	m.ReleaseAll(b)
	wantTable(t, m, 0, 0, "both released")
	if f := m.Footprint(); f.FreeODs != 1 {
		t.Errorf("%d ODs on the free list, want the retired one", f.FreeODs)
	}
}

// TestEntryInflatesOnWaiter: a conflicting request that parks inflates the
// entry, and so does one its context abandons; the OD outlives the
// abandoned waiter while the holder keeps the lock, and goes with the last
// lock.
func TestEntryInflatesOnWaiter(t *testing.T) {
	m := newTest(Options{})
	const X, a, b, c = xid.OID(1), xid.TID(1), xid.TID(2), xid.TID(3)
	mustLock(t, m, a, X, xid.OpWrite)
	parked := lockAsync(m, b, X, xid.OpWrite)
	waitParked(t, m, b)
	wantTable(t, m, 1, 1, "one waiter")
	m.ReleaseAll(a)
	assertGranted(t, parked)
	wantHeld(t, m, b, X, xid.OpWrite, X)
	wantTable(t, m, 1, 1, "waiter granted")
	m.ReleaseAll(b)
	wantTable(t, m, 0, 0, "released")

	mustLock(t, m, a+10, X, xid.OpWrite)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if err := m.LockCtx(ctx, c, X, xid.OpWrite); !errors.Is(err, ErrContext) {
		t.Fatalf("abandoned request: %v, want ErrContext", err)
	}
	if m.Holds(c, X, xid.OpWrite) || len(m.HeldObjects(c)) != 0 {
		t.Error("the abandoned request left a lock behind")
	}
	wantHeld(t, m, a+10, X, xid.OpWrite, X)
	wantTable(t, m, 1, 1, "waiter abandoned")
	m.ReleaseAll(a + 10)
	m.ReleaseAll(c)
	wantTable(t, m, 0, 0, "holder released")
}

// TestEntryInflatesOnPermit: a permit on a lone-held object inflates the
// entry to carry its PD, and the grantee's request under it suspends the
// holder's lock.
func TestEntryInflatesOnPermit(t *testing.T) {
	m := newTest(Options{})
	const X, a, b = xid.OID(1), xid.TID(1), xid.TID(2)
	mustLock(t, m, a, X, xid.OpWrite)
	m.Permit(a, b, []xid.OID{X}, xid.OpWrite)
	if n := m.PermitCount(X); n != 1 {
		t.Fatalf("%d PDs on %v, want 1", n, X)
	}
	wantHeld(t, m, a, X, xid.OpWrite, X)
	wantTable(t, m, 1, 1, "permitted")
	mustLock(t, m, b, X, xid.OpWrite)
	wantHeld(t, m, b, X, xid.OpWrite, X)
	if m.Holds(a, X, xid.OpWrite) {
		t.Error("the grantor's lock is not suspended under the grantee's")
	}
	wantTable(t, m, 1, 1, "grantee holds under the permit")
	m.ReleaseAll(b)
	wantTable(t, m, 1, 1, "grantee released")
	m.ReleaseAll(a)
	wantTable(t, m, 0, 0, "grantor released")
}

// TestEntryDelegateRetagsLoneLock: a delegation of a lone lock retags its
// entry, which needs no OD: there is no waiter to wake, no PD to reassign
// and no reservation to move. Delegating onto an object the delegatee
// also holds merges on the OD the second holder made. Both through one
// object and through AppendDelegate's bulk path, which indexes a set past
// maxScannedOIDs.
func TestEntryDelegateRetagsLoneLock(t *testing.T) {
	m := newTest(Options{})
	const X, a, b = xid.OID(1), xid.TID(1), xid.TID(2)
	mustLock(t, m, a, X, xid.OpWrite)
	if moved := m.Delegate(a, b, []xid.OID{X}); !slices.Equal(moved, []xid.OID{X}) {
		t.Fatalf("moved %v, want [%v]", moved, X)
	}
	wantHeld(t, m, b, X, xid.OpWrite, X)
	if m.Holds(a, X, xid.OpWrite) || len(m.HeldObjects(a)) != 0 {
		t.Error("the delegator kept the lock")
	}
	wantTable(t, m, 1, 0, "one lone lock delegated")
	m.ReleaseAll(a)
	m.ReleaseAll(b)
	wantTable(t, m, 0, 0, "released")

	const n = 4 * maxScannedOIDs
	const from, to = xid.TID(3), xid.TID(4)
	oids := make([]xid.OID, n)
	for i := range oids {
		oids[i] = xid.OID(100 + i)
		mustLock(t, m, from, oids[i], xid.OpWrite)
	}
	shared := oids[n-1] + 1
	mustLock(t, m, from, shared, xid.OpRead)
	mustLock(t, m, to, shared, xid.OpRead)
	wantTable(t, m, n+1, 1, "bulk, before the delegation")
	named := append(slices.Clone(oids), shared)
	var buf [4]xid.OID
	if moved := m.AppendDelegate(buf[:0], from, to, named); len(moved) != n+1 {
		t.Fatalf("moved %d objects, want %d", len(moved), n+1)
	}
	if got := m.HeldObjects(from); len(got) != 0 {
		t.Errorf("the delegator still lists %d objects", len(got))
	}
	got := m.HeldObjects(to)
	slices.Sort(got)
	if !slices.Equal(got, named) {
		t.Errorf("the delegatee lists %d objects, want each of %d once", len(got), n+1)
	}
	for _, oid := range oids {
		if !m.Holds(to, oid, xid.OpWrite) {
			t.Fatalf("the delegatee does not hold %v", oid)
		}
	}
	wantTable(t, m, n+1, 1, "bulk, delegated")
	m.ReleaseAll(from)
	m.ReleaseAll(to)
	wantTable(t, m, 0, 0, "bulk, released")
}

// TestEntryInflatesOnEscrow: a reservation on an object with no ledger is
// an increment lock like any other and stays an entry; declaring a ledger
// on a lone-held object inflates it, a reservation then lands in the
// ledger, and the ledger keeps the OD in its entry until it is dropped.
func TestEntryInflatesOnEscrow(t *testing.T) {
	m := newTest(Options{})
	const X, a, b = xid.OID(1), xid.TID(1), xid.TID(2)
	if err := m.EscrowReserve(a, X, 5); err != nil {
		t.Fatal(err)
	}
	wantHeld(t, m, a, X, xid.OpIncr, X)
	wantTable(t, m, 1, 0, "reservation without a ledger")
	if err := m.DeclareEscrow(X, 10, 0, 20); err != nil {
		t.Fatal(err)
	}
	wantHeld(t, m, a, X, xid.OpIncr, X)
	wantTable(t, m, 1, 1, "ledger declared on a lone lock")
	if err := m.EscrowReserve(a, X, 4); err != nil {
		t.Fatal(err)
	}
	if val, infPos, _ := escrowVal(t, m, X); val != 10 || infPos != 4 {
		t.Errorf("ledger %d (+%d in flight), want 10 (+4)", val, infPos)
	}
	wantTable(t, m, 1, 1, "reserved against the ledger")
	m.EscrowCommit(a)
	m.ReleaseAll(a)
	if val, _, _ := escrowVal(t, m, X); val != 14 {
		t.Errorf("ledger %d after the commit, want 14", val)
	}
	wantTable(t, m, 1, 1, "ledger idle")
	if err := m.EscrowReserve(b, X, 7); !errors.Is(err, ErrEscrow) {
		t.Errorf("reservation past the bound: %v, want ErrEscrow", err)
	}
	m.ReleaseAll(b)
	m.DropEscrow(X)
	wantTable(t, m, 0, 0, "ledger dropped")
}

// TestEntryTableKeepsProbesThroughChurn: on one shard, objects are locked,
// some of them inflated by a second holder, and released in a random
// order, so deletions shift entries back across runs and the table grows
// underneath. After every step each entry is found by its own probe (the
// audit) and the counts follow the locks in force.
func TestEntryTableKeepsProbesThroughChurn(t *testing.T) {
	m := newTest(Options{Shards: 1})
	rng := rand.New(rand.NewSource(1))
	const n = 200
	tids := make([]xid.TID, n)
	for i := range tids {
		tids[i] = xid.TID(i + 1)
		mustLock(t, m, tids[i], xid.OID(i+1), xid.OpRead)
	}
	const second = xid.TID(1 << 20)
	ods := 0
	for i := 0; i < n; i += 3 {
		mustLock(t, m, second, xid.OID(i+1), xid.OpRead)
		ods++
	}
	wantTable(t, m, n, ods, "filled")
	rng.Shuffle(n, func(i, j int) { tids[i], tids[j] = tids[j], tids[i] })
	for k, tid := range tids {
		m.ReleaseAll(tid)
		if k%20 == 19 {
			wantClean(t, m, "churn")
		}
	}
	wantTable(t, m, ods, ods, "lone locks released")
	m.ReleaseAll(second)
	wantTable(t, m, 0, 0, "all released")
}
