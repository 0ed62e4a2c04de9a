package lock

import (
	"context"
	"errors"

	"repro/internal/xid"
)

// ErrEscrow is returned by EscrowReserve when a bounded reservation can
// never be admitted: even if every other in-flight reservation resolves in
// the requester's favour (conflicting increments abort, helpful decrements
// commit), the declared bounds would still be violated. Blocking would be
// pointless — no termination of any current holder can make the request
// admissible — so the escrow test of O'Neil's method fails fast instead.
var ErrEscrow = errors.New("lock: escrow bounds would be violated")

// escrowState is the per-object side of bounded escrow accounting (the
// "in-flight min/max" ledger of the Malta/Martinez commutativity model):
// the committed value as seen through escrow traffic, the declared bounds,
// and the sums of in-flight reserved deltas by sign. Guarded by the home
// shard's latch, like the rest of the OD.
//
// The ledger maintains two inequalities as invariants (CheckInvariants
// verifies them as the escrow-accounting family):
//
//	val + infPos <= hi   — even if every in-flight increment commits,
//	                       the counter stays at or below the upper bound
//	val - infNeg >= lo   — even if every in-flight decrement commits,
//	                       the counter stays at or above the lower bound
//
// Admission preserves them; commit folds a holder's deltas into val and
// shrinks the in-flight sums by the same amounts; abort shrinks the sums
// alone. Both free headroom, so both broadcast the OD's cond.
type escrowState struct {
	bounded bool
	lo, hi  uint64
	val     uint64 // committed value (escrow traffic only; reads see the cache)
	infPos  uint64 // sum of in-flight positive reserved deltas
	infNeg  uint64 // sum of magnitudes of in-flight negative reserved deltas
	holders map[xid.TID]escrowRes
}

// escrowRes is one transaction's outstanding reservation on one object:
// the positive and negative delta magnitudes it has reserved but not yet
// terminated. Held by value in the ledger's holder map, so a reservation
// is a map slot, not an object of its own.
type escrowRes struct {
	pos, neg uint64
}

// admit runs the escrow test for tid reserving delta. It returns
// admit=true when the worst-case resolution of every in-flight reservation
// keeps the counter in bounds; otherwise never=true when no favourable
// resolution of the *other* holders' reservations could ever admit the
// request (the requester's own reservations terminate with it, so they
// count as certain), and the other holders as blockers when waiting could
// help. Caller holds the shard latch.
func (e *escrowState) admit(tid xid.TID, delta int64) (ok, never bool, blockers []xid.TID) {
	if !e.bounded {
		return true, false, nil
	}
	own := e.holders[tid] // zero when tid holds no reservation
	ownPos, ownNeg := own.pos, own.neg
	if delta >= 0 {
		d := uint64(delta)
		// Worst case for hi: every in-flight increment commits.
		if headroom := e.hi - e.val - e.infPos; d <= headroom {
			return true, false, nil
		}
		// Best case: other increments abort, every decrement commits. Own
		// reservations are certain — they commit or abort together with
		// this request, so they cannot resolve in its favour.
		slack := e.hi - (e.val - e.infNeg)
		if d > slack || ownPos > slack-d {
			return false, true, nil
		}
	} else {
		g := uint64(-delta)
		// Worst case for lo: every in-flight decrement commits.
		if legroom := e.val - e.infNeg - e.lo; g <= legroom {
			return true, false, nil
		}
		// Best case: other decrements abort, every increment commits.
		slack := (e.val + e.infPos) - e.lo
		if g > slack || ownNeg > slack-g {
			return false, true, nil
		}
	}
	for h := range e.holders {
		if h != tid {
			blockers = append(blockers, h)
		}
	}
	if len(blockers) == 0 {
		// Only the requester's own reservations stand in the way, and they
		// cannot terminate while it blocks: waiting would deadlock on self.
		return false, true, nil
	}
	return false, false, blockers
}

// reserve records delta against tid's reservation. Caller holds the shard
// latch and has already passed admit.
func (e *escrowState) reserve(tid xid.TID, delta int64) {
	r := e.holders[tid]
	if delta >= 0 {
		r.pos += uint64(delta)
		e.infPos += uint64(delta)
	} else {
		r.neg += uint64(-delta)
		e.infNeg += uint64(-delta)
	}
	e.holders[tid] = r
}

// unreserve backs a single delta out of tid's reservation (the operation
// failed after reserving; its effect never reached the cache). It reports
// whether the holder entry is now empty. Caller holds the shard latch.
func (e *escrowState) unreserve(tid xid.TID, delta int64) bool {
	r, ok := e.holders[tid]
	if !ok {
		return false
	}
	if delta >= 0 {
		d := min(uint64(delta), r.pos)
		r.pos -= d
		e.infPos -= d
	} else {
		g := min(uint64(-delta), r.neg)
		r.neg -= g
		e.infNeg -= g
	}
	if r.pos == 0 && r.neg == 0 {
		delete(e.holders, tid)
		return true
	}
	e.holders[tid] = r
	return false
}

// settle terminates tid's reservation: commit folds the net delta into the
// committed value, abort discards it. Either way the in-flight sums shrink
// and headroom is freed. Caller holds the shard latch.
func (e *escrowState) settle(tid xid.TID, commit bool) {
	r, ok := e.holders[tid]
	if !ok {
		return
	}
	if commit {
		e.val = e.val + r.pos - r.neg
	}
	e.infPos -= r.pos
	e.infNeg -= r.neg
	delete(e.holders, tid)
}

// DeclareEscrow declares (or re-declares) bounded escrow accounting for
// oid: the counter's committed value val and the inclusive bounds
// [lo, hi]. Subsequent EscrowReserve traffic on the object is charged
// against the bounds. Declaration requires a quiescent object — no
// in-flight reservations — because val is supplied by the caller and an
// in-flight delta would make it ambiguous; the lock-side value is
// authoritative from then on, maintained purely from committed escrow
// deltas, so it stays in step with a cache updated by the same deltas. The
// ledger lives on the object's OD, inflating a lone lock's entry, and is
// state of the object, not of a lock: it keeps the OD in its entry, locked
// or not, until DropEscrow.
func (m *Manager) DeclareEscrow(oid xid.OID, val, lo, hi uint64) error {
	if lo > hi {
		return errors.New("lock: escrow bounds inverted (lo > hi)")
	}
	if val < lo || val > hi {
		return errors.New("lock: escrow value outside declared bounds")
	}
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	od := s.od(oid)
	if od.esc != nil && len(od.esc.holders) > 0 {
		return errors.New("lock: escrow declaration with reservations in flight")
	}
	od.ownSide().esc = &escrowState{
		bounded: true, lo: lo, hi: hi, val: val,
		holders: make(map[xid.TID]escrowRes),
	}
	od.wake()
	return nil
}

// DropEscrow removes oid's escrow declaration (the object was deleted, or
// its creation rolled back). Outstanding reservations are discarded with
// it; callers ensure quiescence the same way deletion does, by holding a
// conflicting write lock. The ledger was what kept an otherwise idle OD
// in its entry, so dropping it may retire the OD.
func (m *Manager) DropEscrow(oid xid.OID) {
	s := m.shardOf(oid)
	s.lat.Lock()
	if od := s.lookup(oid); od != nil && od.esc != nil {
		od.esc = nil
		od.wake()
		s.retireIfIdle(od)
	}
	s.lat.Unlock()
}

// EscrowInfo returns the declared escrow ledger for oid: the committed
// value, bounds, and in-flight sums. ok is false when no escrow is
// declared.
func (m *Manager) EscrowInfo(oid xid.OID) (val, lo, hi, infPos, infNeg uint64, ok bool) {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	od := s.lookup(oid)
	if od == nil || od.esc == nil {
		return 0, 0, 0, 0, 0, false
	}
	e := od.esc
	return e.val, e.lo, e.hi, e.infPos, e.infNeg, true
}

// EscrowReserve acquires the commutative lock mode for delta's sign
// (increment for delta >= 0, decrement for delta < 0) on oid and, when the
// object has a declared escrow, reserves delta against its bounds. It
// blocks — composing with deadlock detection, victim marking, aborts
// and cancellation exactly like Lock — while other holders' in-flight
// reservations exhaust the headroom, and fails fast with ErrEscrow when no
// resolution of theirs could ever admit the request.
func (m *Manager) EscrowReserve(tid xid.TID, oid xid.OID, delta int64) error {
	return m.EscrowReserveCtx(context.Background(), tid, oid, delta)
}

// EscrowReserveCtx is EscrowReserve bounded by a context, with LockCtx's
// abandonment semantics.
func (m *Manager) EscrowReserveCtx(ctx context.Context, tid xid.TID, oid xid.OID, delta int64) error {
	return m.EscrowReserveAs(ctx, Holder{}, tid, oid, delta)
}

// EscrowReserveAs is EscrowReserveCtx for the transaction h is the Holder
// of; the zero Holder resolves tid.
func (m *Manager) EscrowReserveAs(ctx context.Context, h Holder, tid xid.TID, oid xid.OID, delta int64) error {
	mode := xid.OpIncr
	if delta < 0 {
		mode = xid.OpDecr
	}
	return m.acquire(ctx, h.ts, tid, oid, mode, delta, true)
}

// EscrowUnreserve backs out one reserved delta whose operation failed
// after the reservation was granted (missing object, log append failure):
// the delta never reached the cache, so folding it at commit would
// diverge. The lock mode itself stays granted, like any other lock.
func (m *Manager) EscrowUnreserve(tid xid.TID, oid xid.OID, delta int64) {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	od := s.lookup(oid)
	if od == nil || od.esc == nil {
		return
	}
	if od.esc.unreserve(tid, delta) {
		// The holder entry emptied; drop the index entry under the same
		// shard-latch hold (ts.lat nests inside it) so the ledger and the
		// index never disagree at a quiescent point.
		if ts := m.stateOf(tid); ts != nil {
			ts.lat.Lock()
			if ts.is(tid) {
				delete(ts.escrows, oid)
			}
			ts.lat.Unlock()
		}
	}
	od.wake()
}

// EscrowCommit folds every in-flight reservation of tid into its object's
// committed value — the commit half of reservation settlement. The commit
// path calls it after the commit record is durable and before ReleaseAll;
// reservations still present at ReleaseAll (the abort path) are discarded
// instead. Visits shards one at a time, like every cross-shard operation.
func (m *Manager) EscrowCommit(tid xid.TID) {
	m.settleEscrows(tid, true)
}

// settleEscrows takes tid's reservation index away from its state, settles
// each object under its own shard latch, and hands the emptied index back.
// While it is away the state simply has no index (a reservation granted in
// that window makes a new one), so nothing is copied and nobody shares the
// map being walked.
func (m *Manager) settleEscrows(tid xid.TID, commit bool) {
	ts := m.stateOf(tid)
	if ts == nil {
		return
	}
	ts.lat.Lock()
	ods := ts.escrows
	if !ts.is(tid) || len(ods) == 0 {
		ts.lat.Unlock()
		return
	}
	ts.escrows = nil
	ts.lat.Unlock()
	for oid := range ods {
		s := m.shardOf(oid)
		s.lat.Lock()
		if od := s.lookup(oid); od != nil && od.esc != nil {
			od.esc.settle(tid, commit)
			od.wake()
		}
		s.lat.Unlock()
	}
	clear(ods)
	ts.lat.Lock()
	if ts.is(tid) && ts.escrows == nil {
		ts.escrows = ods
	}
	ts.lat.Unlock()
}
