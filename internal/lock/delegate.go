package lock

import (
	"cmp"
	"slices"

	"repro/internal/xid"
)

// Delegate implements the lock-manager half of the delegate primitive (§4.2):
// for each delegated object, from's LRD moves to to's lock list, and every
// permission *given by* from on that object becomes a permission given by
// to. A nil oids delegates everything from is responsible for. It returns
// the objects whose locks actually moved, so the caller can log the
// delegation and move undo responsibility the same way.
func (m *Manager) Delegate(from, to xid.TID, oids []xid.OID) []xid.OID {
	return m.AppendDelegate(nil, from, to, oids)
}

// AppendDelegate is Delegate appending the moved objects to moved, a
// buffer of the caller's, and returning the extended slice.
//
// Cross-shard discipline: the candidate set is snapshotted from from's
// txnState (its latch alone), then each shard is visited once, in ascending
// index order, with only that shard's latch held; every per-object decision
// is re-validated under the owning shard latch, so candidates that moved or
// vanished in the window are simply skipped. The snapshot holds a reference
// on each live PD granted by from, which reassignGrantor drops. A delegation
// of a few objects keeps its scratch in its frame.
func (m *Manager) AppendDelegate(moved []xid.OID, from, to xid.TID, oids []xid.OID) []xid.OID {
	if from == to {
		return moved
	}
	fromTS := m.stateOf(from)
	if fromTS == nil {
		return moved // nothing held and nothing granted by from
	}
	var want map[xid.OID]bool // for a set too large to scan per PD
	if len(oids) > maxScannedOIDs {
		want = make(map[xid.OID]bool, len(oids))
		for _, o := range oids {
			want[o] = true
		}
	}
	// Snapshot the candidate objects and the PDs granted by from.
	var candBuf [8]xid.OID
	var pdBuf [4]*permit
	candidates, grantorPDs := candBuf[:0], pdBuf[:0]
	fromTS.lat.Lock()
	if !fromTS.is(from) {
		fromTS.lat.Unlock()
		return moved
	}
	named := func(oid xid.OID) bool {
		switch {
		case oids == nil:
			return true
		case want != nil:
			return want[oid]
		}
		return slices.Contains(oids, oid)
	}
	for _, oid := range fromTS.locks {
		if named(oid) {
			candidates = append(candidates, oid)
		}
	}
	for _, p := range fromTS.byGrantor {
		// A dead PD is skipped below anyway; oid is readable without the
		// shard latch.
		if !p.isDead() && named(p.oid) {
			p.refs.Add(1) // the index holds one, and cannot let go meanwhile
			grantorPDs = append(grantorPDs, p)
		}
	}
	fromTS.lat.Unlock()
	toTS := m.txnOf(to)

	// Visit shards in ascending order, one latch at a time. The order is not
	// required for deadlock freedom (only one latch is held at a time) but
	// makes delegation outcomes deterministic for tests.
	slices.SortFunc(candidates, func(a, b xid.OID) int {
		if c := cmp.Compare(m.shardIndexOf(a), m.shardIndexOf(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	start := len(moved)
	for i := 0; i < len(candidates); {
		si := m.shardIndexOf(candidates[i])
		s := &m.shards[si]
		s.lat.Lock()
		for ; i < len(candidates) && m.shardIndexOf(candidates[i]) == si; i++ {
			if m.delegateOneLocked(from, to, fromTS, toTS, s, candidates[i]) {
				moved = append(moved, candidates[i])
			}
		}
		s.lat.Unlock()
	}
	fromTS.dropMoved(from, moved[start:])

	// §4.2 delegate step (b): permissions given by from on the delegated
	// objects (all of them for delegate-all) become permissions given by to,
	// whether or not from also held a lock there.
	m.reassignGrantor(to, grantorPDs)
	return moved
}

// delegateOneLocked moves from's lock on oid into to's lock list, merging
// with any lock to already holds there, and reports whether a lock moved. A
// lone lock is retagged in its entry: it has no waiter to wake, no PD and no
// ledger, and the delegatee cannot hold the object too.
// Any escrow reservation from holds on the object moves with the lock —
// the delegatee inherits the in-flight delta along with the undo
// responsibility the caller transfers — unless the delegatee is dead, in
// which case both are dropped. The two states were looked up before the
// shard latch was taken, so each is re-validated under its own latch: a
// delegator whose release has begun keeps its lock (the release drops it),
// a retired delegatee gets nothing. Caller holds s.lat; the txnState latches
// nest inside it, taken one at a time.
func (m *Manager) delegateOneLocked(from, to xid.TID, fromTS, toTS *txnState, s *lockShard, oid xid.OID) bool {
	i, ok := s.find(oid)
	if !ok {
		return false
	}
	if e := &s.table[i]; e.od == nil {
		if e.tid != from {
			return false // released or already delegated since the snapshot
		}
		fromTS.lat.Lock()
		live := fromTS.is(from)
		fromTS.lat.Unlock()
		if !live {
			return false // from is being released; the lock goes with it
		}
		toTS.lat.Lock()
		if toTS.is(to) {
			e.tid = to
			toTS.locks = append(toTS.locks, oid)
		} else {
			s.remove(i) // the delegatee terminated: the lock goes with it
		}
		toTS.lat.Unlock()
		return true
	}
	od := s.table[i].od
	gl := od.ownerReq(from)
	if gl == nil {
		return false // released or already delegated since the snapshot
	}
	fromTS.lat.Lock()
	if !fromTS.is(from) {
		fromTS.lat.Unlock()
		return false // from is being released; the lock goes with it
	}
	delete(fromTS.escrows, oid) // its lock entry leaves in dropMoved
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
			toTS.locks = append(toTS.locks, oid)
			toTS.lat.Unlock()
			m.moveReservationLocked(od, from, to, toTS)
		}
	}
	// Blocked requests were waiting on `from`; their blocker is now `to`
	// (or gone, and the lock with it).
	od.wake()
	s.retireIfIdle(od)
	return true
}

// dropMoved takes a delegation's moved objects out of the delegator's lock
// list, one entry per moved oid, in one pass: the earliest entry of each,
// so a lock the delegator took again on a moved object while the delegation
// visited its shards keeps the entry it appended. The moved oids are
// distinct (one LRD per transaction and object); a set of more than
// maxScannedOIDs is indexed rather than scanned per entry. Takes ts.lat; a
// delegator whose release has begun is left alone, its release owns the
// list.
func (ts *txnState) dropMoved(tid xid.TID, moved []xid.OID) {
	if len(moved) == 0 {
		return
	}
	var left map[xid.OID]bool
	var takenBuf [maxScannedOIDs]bool
	if len(moved) > maxScannedOIDs {
		left = make(map[xid.OID]bool, len(moved))
		for _, oid := range moved {
			left[oid] = true
		}
	}
	take := func(oid xid.OID) bool {
		if left != nil {
			if left[oid] {
				delete(left, oid)
				return true
			}
			return false
		}
		i := slices.Index(moved, oid)
		if i < 0 || takenBuf[i] {
			return false
		}
		takenBuf[i] = true
		return true
	}
	ts.lat.Lock()
	defer ts.lat.Unlock()
	if !ts.is(tid) {
		return
	}
	kept := ts.locks[:0]
	for _, oid := range ts.locks {
		if !take(oid) {
			kept = append(kept, oid)
		}
	}
	clear(ts.locks[len(kept):])
	ts.locks = kept
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
	toTS.indexEscrow(od.oid)
	toTS.lat.Unlock()
}

// maxScannedOIDs is the largest delegated object set AppendDelegate scans
// per PD instead of indexing it.
const maxScannedOIDs = 16

// reassignGrantor rewrites PDs of the form (from, tk, op) to (to, tk, op),
// working from the snapshot taken by AppendDelegate, whose references it
// drops. Each PD is re-validated under its own shard latch: one found dead
// is skipped without looking at its od, which may have been reused; one
// found live is on its OD's list, which keeps that OD in its entry.
func (m *Manager) reassignGrantor(to xid.TID, pds []*permit) {
	for _, p := range pds {
		s := p.od.home
		s.lat.Lock()
		if !p.isDead() {
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
			od.wake()
			s.retireIfIdle(od)
		}
		s.unrefPermit(p)
		s.lat.Unlock()
	}
}
