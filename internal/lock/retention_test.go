package lock

import (
	"testing"
	"unsafe"

	"repro/internal/xid"
)

// These tests pin the lock list's retention rule (keptLocks): a recycled
// txnState keeps a lock list past maxKeptIndex only while the transaction
// that just used it needed it.

// bulkLocks has tid write-lock n objects from *next on and release them.
// It returns the state the transaction ran on and the array its lock list
// filled.
func bulkLocks(t *testing.T, m *Manager, tid xid.TID, n int, next *xid.OID) (*txnState, *xid.OID) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustLock(t, m, tid, *next, xid.OpWrite)
		*next++
	}
	ts := m.stateOf(tid)
	ts.lat.Lock()
	arr := unsafe.SliceData(ts.locks)
	if len(ts.locks) != n {
		t.Errorf("%v took %d locks and lists %d", tid, n, len(ts.locks))
	}
	ts.lat.Unlock()
	m.ReleaseAll(tid)
	return ts, arr
}

// TestBulkLockListReused: a run of equal 8,192-lock transactions grows one
// lock list, the first's: each later one finds it on the state it is given
// and appends into it, where each used to regrow its own from nothing.
func TestBulkLockListReused(t *testing.T) {
	const bulk, rounds = 8192, 4
	m := newTest(Options{})
	next := xid.OID(1)
	ts0, arr0 := bulkLocks(t, m, 1, bulk, &next)
	for r := 1; r < rounds; r++ {
		ts, arr := bulkLocks(t, m, xid.TID(r+1), bulk, &next)
		if ts != ts0 {
			t.Fatalf("round %d ran on another state; the test needs the free list to hand back the last one", r)
		}
		if arr != arr0 {
			t.Errorf("round %d filled a new lock list: the bulk array was not kept", r)
		}
	}
	wantEmpty(t, m, "after the bulk rounds")
}

// TestSmallTxnReleasesBulkLockList: the first transaction within
// maxKeptIndex that gets a bulk transaction's state lets the bulk array
// go, so no state on the free list keeps a list past maxKeptIndex.
func TestSmallTxnReleasesBulkLockList(t *testing.T) {
	m := newTest(Options{})
	next := xid.OID(1)
	bulk, bulkArr := bulkLocks(t, m, 1, 8192, &next)
	if cap(bulk.locks) <= maxKeptIndex {
		t.Fatalf("after the bulk transaction its state's lock list holds %d entries, want the bulk array kept", cap(bulk.locks))
	}
	small, arr := bulkLocks(t, m, 2, maxKeptIndex, &next)
	if small != bulk || arr != bulkArr {
		t.Fatal("the small transaction did not run on the bulk state and its array; the test needs the free list to hand them back")
	}
	n := 0
	if err := m.free.Audit(func(ts *txnState) {
		n++
		if cap(ts.locks) > maxKeptIndex || len(ts.locks) != 0 {
			t.Errorf("a free state keeps a lock list of %d entries (len %d)", cap(ts.locks), len(ts.locks))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no state on the free list")
	}
	wantEmpty(t, m, "after the small transaction")
}
