package lock

import (
	"slices"

	"repro/internal/xid"
)

// Delegate implements the lock-manager half of the delegate primitive (§4.2):
// for each delegated object, from's LRD moves to to's lock list, and every
// permission *given by* from on that object becomes a permission given by
// to. A nil oids delegates everything from is responsible for. It returns
// the objects whose locks actually moved, so the caller can log the
// delegation and move undo responsibility the same way.
//
// Cross-shard discipline: the candidate set is snapshotted from from's
// txnState (its latch alone), then each shard is visited once, in ascending
// index order, with only that shard's latch held; every per-object decision
// is re-validated under the owning shard latch, so candidates that moved or
// vanished in the window are simply skipped.
func (m *Manager) Delegate(from, to xid.TID, oids []xid.OID) []xid.OID {
	if from == to {
		return nil
	}
	fromTS := m.stateOf(from)
	if fromTS == nil {
		return nil // nothing held and nothing granted by from
	}
	// Snapshot the candidate objects and the PDs granted by from.
	fromTS.lat.Lock()
	if !fromTS.is(from) {
		fromTS.lat.Unlock()
		return nil
	}
	var candidates []xid.OID
	if oids == nil {
		for oid := range fromTS.locks {
			candidates = append(candidates, oid)
		}
	} else {
		for _, oid := range oids {
			if _, held := fromTS.locks[oid]; held {
				candidates = append(candidates, oid)
			}
		}
	}
	grantorPDs := append([]*permit(nil), fromTS.byGrantor...)
	fromTS.lat.Unlock()
	toTS := m.txnOf(to)

	// Visit shards in ascending order, one latch at a time.
	byShard := make(map[uint64][]xid.OID)
	for _, oid := range candidates {
		i := m.shardIndexOf(oid)
		byShard[i] = append(byShard[i], oid)
	}
	var moved []xid.OID
	m.forShardsAscending(byShard, func(s *lockShard, oids []xid.OID) {
		s.lat.Lock()
		for _, oid := range oids {
			if m.delegateOneLocked(from, to, fromTS, toTS, s, oid) {
				moved = append(moved, oid)
			}
		}
		s.lat.Unlock()
	})

	// §4.2 delegate step (b): permissions given by from on the delegated
	// objects (all of them for delegate-all) become permissions given by to,
	// whether or not from also held a lock there.
	m.reassignGrantor(to, grantorPDs, oids)
	return moved
}

// forShardsAscending runs fn over the groups, keyed by shard index, in
// ascending order. Ordering is not required for deadlock freedom (only one
// latch is held at a time) but makes delegation outcomes deterministic for
// tests.
func (m *Manager) forShardsAscending(groups map[uint64][]xid.OID, fn func(*lockShard, []xid.OID)) {
	idx := make([]uint64, 0, len(groups))
	for i := range groups {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		fn(&m.shards[i], groups[i])
	}
}

// delegateOneLocked moves from's LRD on oid into to's lock list, merging
// with any lock to already holds there, and reports whether a lock moved.
// Any escrow reservation from holds on the object moves with the lock —
// the delegatee inherits the in-flight delta along with the undo
// responsibility the caller transfers — unless the delegatee is dead, in
// which case both are dropped. The two states were looked up before the
// shard latch was taken, so each is re-validated under its own latch: a
// delegator whose release has begun keeps its lock (the release drops it),
// a retired delegatee gets nothing. Caller holds s.lat; the txnState latches
// nest inside it, taken one at a time.
func (m *Manager) delegateOneLocked(from, to xid.TID, fromTS, toTS *txnState, s *lockShard, oid xid.OID) bool {
	od := s.lookup(oid)
	if od == nil {
		return false
	}
	gl := od.ownerReq(from)
	if gl == nil {
		return false // released or already delegated since the snapshot
	}
	fromTS.lat.Lock()
	if !fromTS.is(from) {
		fromTS.lat.Unlock()
		return false // from is being released; the lock goes with it
	}
	delete(fromTS.locks, oid)
	delete(fromTS.escrows, oid)
	fromTS.lat.Unlock()
	if existing := od.ownerReq(to); existing != nil {
		// Merge: the union of modes. Suspension is sticky — clearing it just
		// because one input was unsuspended could leave the merged hold in
		// unsuspended conflict with a third party's permitted grant, exposing
		// that party's uncommitted work (invariant 1). Re-validate instead:
		// the merged hold comes back unsuspended only if no other granted
		// LRD conflicts with the merged mode.
		suspended := existing.suspended || gl.suspended
		existing.mode = existing.mode.Union(gl.mode)
		od.dropGranted(gl)
		if suspended {
			suspended = false
			for _, other := range od.granted {
				if other.tid != to && other.mode.Conflicts(existing.mode) {
					suspended = true
					break
				}
			}
		}
		existing.suspended = suspended
		m.moveReservationLocked(od, from, to, toTS)
	} else {
		toTS.lat.Lock()
		if !toTS.is(to) {
			// The grantee terminated mid-delegation: its locks are gone, so
			// the moved lock must not outlive it. Drop it instead.
			toTS.lat.Unlock()
			od.dropGranted(gl)
			if od.esc != nil {
				od.esc.settle(from, false)
			}
		} else {
			gl.tid = to
			toTS.locks[oid] = od
			toTS.lat.Unlock()
			m.moveReservationLocked(od, from, to, toTS)
		}
	}
	// Blocked requests were waiting on `from`; their blocker is now `to`
	// (or gone, and the lock with it).
	od.cond.Broadcast()
	s.retireIfIdle(od)
	return true
}

// moveReservationLocked re-tags from's escrow reservation on od to the
// delegatee, merging with any reservation the delegatee already holds
// there, and records it in the delegatee's reservation index. The
// in-flight sums are unchanged — the delta merely changes owner. If the
// delegatee died in the window, the reservation is discarded like an
// abort. Caller holds od's shard latch.
func (m *Manager) moveReservationLocked(od *objDesc, from, to xid.TID, toTS *txnState) {
	if od.esc == nil {
		return
	}
	r, ok := od.esc.holders[from]
	if !ok {
		return
	}
	delete(od.esc.holders, from)
	toTS.lat.Lock()
	if !toTS.is(to) {
		toTS.lat.Unlock()
		od.esc.infPos -= r.pos
		od.esc.infNeg -= r.neg
		return
	}
	tr := od.esc.holders[to] // zero when to holds no reservation here
	tr.pos += r.pos
	tr.neg += r.neg
	od.esc.holders[to] = tr
	toTS.indexEscrow(od)
	toTS.lat.Unlock()
}

// reassignGrantor rewrites PDs of the form (from, tk, op) to (to, tk, op)
// on the given objects (nil = all), working from the snapshot taken by
// Delegate. Each PD is re-validated under its own shard latch: one found
// dead is skipped without looking at its od, which may have been reused; one
// found live is on its OD's list, which keeps that OD mapped.
func (m *Manager) reassignGrantor(to xid.TID, pds []*permit, oids []xid.OID) {
	var want map[xid.OID]bool
	if oids != nil {
		want = make(map[xid.OID]bool, len(oids))
		for _, o := range oids {
			want[o] = true
		}
	}
	for _, p := range pds {
		if want != nil && !want[p.oid] {
			continue
		}
		s := p.od.home
		s.lat.Lock()
		if p.isDead() {
			s.lat.Unlock()
			continue
		}
		od := p.od
		if p.grantee == to {
			// A permission from `from` to `to` collapses on delegation:
			// to does not need its own permission.
			od.dropPermit(p)
		} else {
			// Re-grant under to's name (widening any PD to already has
			// there), then retire from's descriptor.
			m.insertPD(od, to, p.grantee, p.ops)
			od.dropPermit(p)
		}
		od.cond.Broadcast()
		s.retireIfIdle(od)
		s.lat.Unlock()
	}
}
