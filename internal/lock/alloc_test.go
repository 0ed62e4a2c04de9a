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

// permitDelegateAllocBudget is what a cooperating passage may allocate once
// the table is warm: a lock, a permit that lets a second transaction share
// it (suspending the first holder), a delegation of the second's lock to a
// third, and the three releases. It measured 7 (Delegate returning the
// moved list) while a PD was made per permit, the OD dropped the array its
// second holder grew at every retirement, the grant built its list of
// permitted holders and the delegation its candidate list, shard map,
// shard order and moved list. The PD now comes off its shard's free list
// like the LRDs, the OD keeps the array, and the grant's and the
// delegation's scratch stays in their frames, the moved list in the
// caller's (AppendDelegate): 0.
const permitDelegateAllocBudget = 0

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
	// The cooperating passage, on one object and on objects the table has
	// never seen.
	for _, tc := range []struct {
		name   string
		stride xid.OID
	}{
		{"permit and delegate", 0},
		{"permit and delegate, never-seen objects", 1},
	} {
		m := newTest(Options{})
		next := xid.TID(1)
		oids := []xid.OID{7}
		var moved [1]xid.OID
		passage := func() {
			a, b, c := next, next+1, next+2
			next += 3
			if err := m.Lock(a, oids[0], xid.OpWrite); err != nil {
				t.Fatal(err)
			}
			m.Permit(a, b, oids, xid.OpAll)
			if err := m.Lock(b, oids[0], xid.OpWrite); err != nil {
				t.Fatal(err)
			}
			if got := m.AppendDelegate(moved[:0], b, c, oids); len(got) != 1 {
				t.Fatalf("delegation moved %v, want %v", got, oids)
			}
			m.ReleaseAll(a)
			m.ReleaseAll(b)
			m.ReleaseAll(c)
			oids[0] += tc.stride
		}
		for i := 0; i < 2000; i++ {
			passage()
		}
		got := testing.AllocsPerRun(5000, passage)
		t.Logf("%s: %.1f objects per passage", tc.name, got)
		if got > permitDelegateAllocBudget {
			t.Errorf("%s: %.1f objects per passage, budget %d", tc.name, got, permitDelegateAllocBudget)
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
