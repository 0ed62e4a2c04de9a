package lock

import (
	"errors"
	"testing"

	"repro/internal/waitgraph"
	"repro/internal/xid"
)

func newEscrowManager(t *testing.T, oid xid.OID, val, lo, hi uint64) *Manager {
	t.Helper()
	m := New(waitgraph.New(), Options{})
	if err := m.DeclareEscrow(oid, val, lo, hi); err != nil {
		t.Fatalf("DeclareEscrow: %v", err)
	}
	return m
}

func escrowVal(t *testing.T, m *Manager, oid xid.OID) (val, infPos, infNeg uint64) {
	t.Helper()
	val, _, _, infPos, infNeg, ok := m.EscrowInfo(oid)
	if !ok {
		t.Fatalf("escrow declaration for %v lost", oid)
	}
	return val, infPos, infNeg
}

func wantClean(t *testing.T, m *Manager, ctx string) {
	t.Helper()
	for _, e := range m.CheckInvariants() {
		t.Errorf("%s: invariant: %s", ctx, e)
	}
}

// TestEscrowDelegationMovesReservation: delegating an object with an
// in-flight escrow reservation moves the reservation with the increment
// grant — the delegatee's commit folds the delta exactly once, and the
// delegator's release leaves no residue.
func TestEscrowDelegationMovesReservation(t *testing.T) {
	const oid = xid.OID(7)
	m := newEscrowManager(t, oid, 50, 0, 100)
	t1, t2 := xid.TID(1), xid.TID(2)

	if err := m.EscrowReserve(t1, oid, 5); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if moved := m.Delegate(t1, t2, []xid.OID{oid}); len(moved) != 1 || moved[0] != oid {
		t.Fatalf("Delegate moved %v, want [%v]", moved, oid)
	}
	wantClean(t, m, "after delegate")
	if _, infPos, _ := escrowVal(t, m, oid); infPos != 5 {
		t.Fatalf("in-flight +%d after delegation, want +5 (reservation lost or doubled)", infPos)
	}

	// The delegator terminating must not touch the moved reservation.
	m.ReleaseAll(t1)
	if _, infPos, _ := escrowVal(t, m, oid); infPos != 5 {
		t.Fatalf("delegator release disturbed the reservation: in-flight +%d, want +5", infPos)
	}

	m.EscrowCommit(t2)
	m.ReleaseAll(t2)
	val, infPos, infNeg := escrowVal(t, m, oid)
	if val != 55 || infPos != 0 || infNeg != 0 {
		t.Fatalf("after delegatee commit: val=%d inflight=+%d/-%d, want 55 +0/-0", val, infPos, infNeg)
	}
	wantClean(t, m, "after settle")
}

// TestEscrowDelegationMergesReservations: when the delegatee already holds
// its own reservation on the object, the moved reservation merges into it
// and one commit folds both deltas.
func TestEscrowDelegationMergesReservations(t *testing.T) {
	const oid = xid.OID(3)
	m := newEscrowManager(t, oid, 50, 0, 100)
	t1, t2 := xid.TID(1), xid.TID(2)

	if err := m.EscrowReserve(t2, oid, 3); err != nil {
		t.Fatalf("delegatee reserve: %v", err)
	}
	if err := m.EscrowReserve(t1, oid, 5); err != nil {
		t.Fatalf("delegator reserve +5: %v", err)
	}
	if err := m.EscrowReserve(t1, oid, -2); err != nil {
		t.Fatalf("delegator reserve -2: %v", err)
	}
	if moved := m.Delegate(t1, t2, nil); len(moved) != 1 {
		t.Fatalf("Delegate moved %v, want one object", moved)
	}
	wantClean(t, m, "after merge delegate")
	if _, infPos, infNeg := escrowVal(t, m, oid); infPos != 8 || infNeg != 2 {
		t.Fatalf("merged in-flight +%d/-%d, want +8/-2", infPos, infNeg)
	}

	m.EscrowCommit(t2)
	m.ReleaseAll(t2)
	m.ReleaseAll(t1)
	val, infPos, infNeg := escrowVal(t, m, oid)
	if val != 56 || infPos != 0 || infNeg != 0 {
		t.Fatalf("after merged commit: val=%d inflight=+%d/-%d, want 56 +0/-0", val, infPos, infNeg)
	}
	wantClean(t, m, "after merged settle")
}

// TestEscrowAbortReleasesHeadroom: a holder whose reservation fills the
// remaining headroom blocks a second reservation; the holder's release
// (the lock-level effect of an abort or watchdog reap) must free the
// in-flight sum and wake the blocked request.
func TestEscrowAbortReleasesHeadroom(t *testing.T) {
	const oid = xid.OID(9)
	m := newEscrowManager(t, oid, 0, 0, 10)
	t1, t2 := xid.TID(1), xid.TID(2)

	if err := m.EscrowReserve(t1, oid, 10); err != nil {
		t.Fatalf("reserve +10: %v", err)
	}
	granted := make(chan error, 1)
	go func() { granted <- m.EscrowReserve(t2, oid, 1) }()
	// t2 is bounds-blocked (0+10+1 > 10) but admittable once t1 goes.
	m.ReleaseAll(t1) // abort: discard the in-flight +10
	if err := <-granted; err != nil {
		t.Fatalf("blocked reservation after holder aborted: %v", err)
	}
	m.EscrowCommit(t2)
	m.ReleaseAll(t2)
	val, infPos, infNeg := escrowVal(t, m, oid)
	if val != 1 || infPos != 0 || infNeg != 0 {
		t.Fatalf("val=%d inflight=+%d/-%d, want 1 +0/-0 (aborted +10 leaked?)", val, infPos, infNeg)
	}
	wantClean(t, m, "after abort+commit")
}

// TestEscrowNeverAdmittable: a delta no future holder set can admit fails
// fast with ErrEscrow instead of blocking forever — including when the
// requester's own reservations are what exhausted the headroom (waiting
// on oneself would deadlock).
func TestEscrowNeverAdmittable(t *testing.T) {
	const oid = xid.OID(4)
	m := newEscrowManager(t, oid, 5, 0, 10)
	t1 := xid.TID(1)

	if err := m.EscrowReserve(t1, oid, 100); !errors.Is(err, ErrEscrow) {
		t.Fatalf("reserve +100 on [0,10]: err=%v, want ErrEscrow", err)
	}
	if err := m.EscrowReserve(t1, oid, 5); err != nil {
		t.Fatalf("reserve +5: %v", err)
	}
	// Headroom is exhausted by t1's own reservation; only t1's own
	// termination could admit +1, so blocking would self-deadlock.
	if err := m.EscrowReserve(t1, oid, 1); !errors.Is(err, ErrEscrow) {
		t.Fatalf("self-exhausted reserve +1: err=%v, want ErrEscrow", err)
	}
	m.ReleaseAll(t1)
	wantClean(t, m, "after never-admittable probes")
}

// TestEscrowInvariantsDetectCorruption: the escrow-accounting invariant
// family actually fires — manually corrupting the in-flight sum under the
// shard latch must produce a report, and restoring it must clear it.
func TestEscrowInvariantsDetectCorruption(t *testing.T) {
	const oid = xid.OID(6)
	m := newEscrowManager(t, oid, 50, 0, 100)
	t1 := xid.TID(1)
	if err := m.EscrowReserve(t1, oid, 5); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	wantClean(t, m, "before corruption")

	s := m.shardOf(oid)
	s.lat.Lock()
	s.lookup(oid).esc.infPos += 7 // ledger no longer matches the holders
	s.lat.Unlock()

	if errs := m.CheckInvariants(); len(errs) == 0 {
		t.Fatal("corrupted infPos not reported by CheckInvariants")
	}

	s.lat.Lock()
	s.lookup(oid).esc.infPos -= 7
	s.lat.Unlock()
	wantClean(t, m, "after repair")

	m.EscrowCommit(t1)
	m.ReleaseAll(t1)
	if val, _, _ := escrowVal(t, m, oid); val != 55 {
		t.Fatalf("val=%d, want 55", val)
	}
}
