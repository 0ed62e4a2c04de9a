package lock

import (
	"testing"

	"repro/internal/race"
	"repro/internal/xid"
)

// acquireReleaseAllocBudget is what a transaction's whole passage through
// the lock table may allocate once the table is warm: nothing. The OD, the
// LRDs, the txnState and the htab entry that maps it all come off free
// lists, and mapping an OD into its shard's bucket chains allocates nothing
// however many distinct oids pass through.
const acquireReleaseAllocBudget = 0

// TestAcquireReleaseAllocBudget: a fresh TID takes its first locks and
// releases them. The request is granted from a descriptor on the stack,
// ReleaseAll walks the retired state's own index, and the release retires
// each object's OD, which the next transaction's lock maps again — under the
// same oids in the first two arms, under oids the table has never seen in
// the third.
func TestAcquireReleaseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name   string
		oids   []xid.OID
		stride xid.OID // added to every oid after each transaction
	}{
		{"one lock", []xid.OID{7}, 0},
		{"three locks", []xid.OID{7, 8, 9}, 0},
		{"three never-seen objects", []xid.OID{7, 8, 9}, 3},
	} {
		m := newTest(Options{})
		next := xid.TID(1)
		oids := append([]xid.OID(nil), tc.oids...)
		passage := func() {
			tid := next
			next++
			for i, oid := range oids {
				if err := m.Lock(tid, oid, xid.OpWrite); err != nil {
					t.Fatal(err)
				}
				oids[i] += tc.stride
			}
			m.ReleaseAll(tid)
		}
		// Warm: every shard's free lists get a descriptor of each kind.
		for i := 0; i < 2000; i++ {
			passage()
		}
		got := testing.AllocsPerRun(5000, passage)
		t.Logf("%s: %.1f objects per acquire/release", tc.name, got)
		if got > acquireReleaseAllocBudget {
			t.Errorf("%s: %.1f objects per acquire/release, budget %d", tc.name, got, acquireReleaseAllocBudget)
		}
		if bad := m.CheckInvariants(); len(bad) > 0 {
			t.Errorf("%s: invariants: %v", tc.name, bad)
		}
		if f := m.Footprint(); f.ODs != 0 {
			t.Errorf("%s: %d ODs still mapped with no lock in force", tc.name, f.ODs)
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
