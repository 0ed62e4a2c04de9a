package lock

import (
	"testing"

	"repro/internal/race"
	"repro/internal/xid"
)

// acquireReleaseAllocBudget is what a transaction's whole passage through
// the lock table may allocate once the table is warm: the htab entry that
// maps its txnState, and nothing per lock. The parent commit measured 13
// objects for three locks and 9 for one (a pending and a granted LRD per
// lock, the txnState with two maps, the wait-set and lock-index inserts,
// the release snapshot).
const acquireReleaseAllocBudget = 2

// TestAcquireReleaseAllocBudget: a fresh TID takes its first locks on warm
// objects and releases them. LRDs and the txnState come off free lists, the
// request is granted from a descriptor on the stack, and ReleaseAll walks
// the retired state's own index.
func TestAcquireReleaseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name string
		oids []xid.OID
	}{
		{"one lock", []xid.OID{7}},
		{"three locks", []xid.OID{7, 8, 9}},
	} {
		m := newTest(Options{})
		next := xid.TID(1)
		got := testing.AllocsPerRun(500, func() {
			tid := next
			next++
			for _, oid := range tc.oids {
				if err := m.Lock(tid, oid, xid.OpWrite); err != nil {
					t.Fatal(err)
				}
			}
			m.ReleaseAll(tid)
		})
		t.Logf("%s: %.1f objects per acquire/release", tc.name, got)
		if got > acquireReleaseAllocBudget {
			t.Errorf("%s: %.1f objects per acquire/release, budget %d", tc.name, got, acquireReleaseAllocBudget)
		}
		if bad := m.CheckInvariants(); len(bad) > 0 {
			t.Errorf("%s: invariants: %v", tc.name, bad)
		}
	}
}

// TestEscrowReserveAllocBudget: the same passage for an escrow reservation
// that is committed — the reservation is a slot in the ledger's holder
// map, and settlement walks the transaction's own index instead of copying
// it.
func TestEscrowReserveAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := newTest(Options{})
	if err := m.DeclareEscrow(9, 1<<20, 0, 1<<40); err != nil {
		t.Fatal(err)
	}
	next := xid.TID(1)
	got := testing.AllocsPerRun(500, func() {
		tid := next
		next++
		if err := m.EscrowReserve(tid, 9, 1); err != nil {
			t.Fatal(err)
		}
		m.EscrowCommit(tid)
		m.ReleaseAll(tid)
	})
	t.Logf("%.1f objects per reserve/commit/release", got)
	if got > acquireReleaseAllocBudget {
		t.Errorf("%.1f objects per reserve/commit/release, budget %d", got, acquireReleaseAllocBudget)
	}
	if bad := m.CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants: %v", bad)
	}
}
