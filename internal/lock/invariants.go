package lock

import (
	"fmt"

	"repro/internal/xid"
)

// CheckInvariants verifies the cross-shard consistency of the whole lock
// table and returns a description of every violation found (empty means
// consistent). It is the one operation permitted to hold more than one
// shard latch: it acquires ALL shard latches in ascending index order —
// the documented exception in the latch-ordering discipline (DESIGN.md §8)
// — so it observes a single global snapshot. Transaction-state latches and
// the wait-graph mutex still nest inside the shard latches as usual.
//
// Checked invariants:
//
//  1. Mutual exclusion: no two unsuspended granted LRDs with conflicting
//     modes coexist on one object (suspension is the only sanctioned form
//     of conflicting co-grant, per the permit semantics of §2.2).
//  2. Index agreement: every granted LRD belongs to a live transaction
//     whose lock index names the LRD's object, and every indexed object
//     carries a granted LRD of that transaction — so no grant is held by a
//     terminated (released) transaction, and ReleaseAll can always find
//     what it must free. No LRD in use is on a free list.
//  3. Wait registration: every pending request has an entry for its object
//     in its transaction's wait set and vice versa (counted per object), so
//     aborts and victim marking reach every blocked request.
//  4. Permit chains: every live PD is indexed by its grantor (and grantee,
//     when named), both of which are live transactions; every live indexed
//     PD is present on its object's chain.
//  5. Wait-graph agreement: every waiter in the graph has at least one
//     registered pending request. (Assumes the graph is used by this
//     manager alone, as in the lock-level test harnesses; the full system
//     also records commit-dependency waits in the same graph.)
//  6. Escrow accounting: every declared ledger's in-flight sums equal the
//     sums over its holder records; a bounded ledger keeps both worst-case
//     inequalities (val+infPos <= hi, val-infNeg >= lo, so the committed
//     value can never leave [lo, hi] whatever the in-flight reservations
//     resolve to); every reservation is held by a live transaction that
//     holds a granted increment/decrement-mode lock on the object and
//     indexes the reservation, and vice versa.
//  7. Descriptor lifetime: the table holds exactly the locks in force. Every
//     mapped OD is on the chain its oid hashes to and has something on it (a
//     granted or pending LRD, a PD, a declared ledger); every OD on a free
//     list is unmapped, empty and in its own shard; no transaction index and
//     no live PD points at an OD that is not mapped under the oid it is
//     known by; the shard counts agree with the chains and lists.
//
// The intended use is at quiescent points of a concurrent workload (no
// Lock/Delegate/Permit/ReleaseAll in flight); it is safe, but noisier, to
// call mid-flight, since transient states (e.g. a waiter whose blocker
// terminated but which has not yet re-evaluated) are not violations.
func (m *Manager) CheckInvariants() []string {
	for i := range m.shards {
		// The all-shard freeze is the one sanctioned exception to the
		// ≤1-shard-latch rule: a consistent cross-shard snapshot needs every
		// shard stopped at once. Deadlock-free because shards are taken in
		// ascending index order and nothing else ever holds two.
		//lint:allow latchorder sanctioned all-shard freeze for invariant snapshot
		m.shards[i].lat.Lock()
	}
	defer func() {
		for i := range m.shards {
			m.shards[i].lat.Unlock()
		}
	}()

	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// tsOf fetches tid's state without creating one; callers check is(tid)
	// under its latch.
	tsOf := m.stateOf

	pendingTids := make(map[xid.TID]bool)
	// pendingOn counts pending requests per (transaction, object), to be
	// matched against the wait sets in the transaction-side walk.
	type waitKey struct {
		tid xid.TID
		oid xid.OID
	}
	pendingOn := make(map[waitKey]int)

	// Nothing on a free list may still be linked into a chain.
	freeReqs := make(map[*lockReq]bool)
	for si := range m.shards {
		n := 0
		for r := m.shards[si].free; r != nil && !freeReqs[r]; r = r.next {
			freeReqs[r] = true // also stops the walk should the list loop
			n++
		}
		if n != int(m.shards[si].nfree) {
			report("shard %d: free list holds %d LRDs, count says %d", si, n, m.shards[si].nfree)
		}
	}
	// Nor may a retired OD carry anything into its next life.
	freeODs := make(map[*objDesc]bool)
	for si := range m.shards {
		s := &m.shards[si]
		n := 0
		for od := s.freeODs; od != nil && !freeODs[od]; od = od.next {
			freeODs[od] = true
			n++
			if od.mapped || od.home != s || !od.idle() {
				report("shard %d: retired OD (last oid %v) is not empty, unmapped and at home", si, od.oid)
			}
		}
		if n != int(s.nfreeODs) {
			report("shard %d: free list holds %d ODs, count says %d", si, n, s.nfreeODs)
		}
	}

	// Object-side walk: shards own the ground truth.
	for si := range m.shards {
		s := &m.shards[si]
		mapped := s.mappedODs()
		if len(mapped) != int(s.nods) {
			report("shard %d: %d ODs mapped, count says %d", si, len(mapped), s.nods)
		}
		for _, od := range mapped {
			oid := od.oid
			if !od.mapped || od.home != s || m.shardOf(oid) != s || s.lookup(oid) != od {
				report("od %v: misfiled (shard %d, mapped %v)", oid, si, od.mapped)
			}
			if freeODs[od] {
				report("od %v: mapped and on the free list", oid)
			}
			if od.idle() {
				report("od %v: mapped with no lock, waiter, permit or ledger", oid)
			}
			seen := make(map[xid.TID]bool)
			for _, gl := range od.granted {
				if gl.od != od {
					report("granted LRD %v/%v: od backpointer wrong", gl.tid, oid)
				}
				if freeReqs[gl] {
					report("object %v: granted LRD of txn %v is on the free list", oid, gl.tid)
				}
				if seen[gl.tid] {
					report("object %v: duplicate granted LRD for txn %v", oid, gl.tid)
				}
				seen[gl.tid] = true
				ts := tsOf(gl.tid)
				if ts == nil {
					report("object %v: grant held by terminated txn %v", oid, gl.tid)
					continue
				}
				ts.lat.Lock()
				live := ts.is(gl.tid)
				var indexed *objDesc
				if live {
					indexed = ts.locks[oid]
				}
				ts.lat.Unlock()
				if !live {
					report("object %v: grant held by dead txn %v", oid, gl.tid)
				} else if indexed != od {
					report("object %v: txn %v LRD index disagrees with OD chain", oid, gl.tid)
				}
				// Mutual exclusion among unsuspended grants.
				if !gl.suspended {
					for _, other := range od.granted {
						if other != gl && !other.suspended && other.tid != gl.tid &&
							other.mode.Conflicts(gl.mode) {
							report("object %v: unsuspended conflicting grants %v(%v) vs %v(%v)",
								oid, gl.tid, gl.mode, other.tid, other.mode)
						}
					}
				}
			}
			for _, req := range od.pending {
				if req.od != od {
					report("pending LRD %v/%v: od backpointer wrong", req.tid, oid)
				}
				if freeReqs[req] {
					report("object %v: pending LRD of txn %v is on the free list", oid, req.tid)
				}
				pendingTids[req.tid] = true
				pendingOn[waitKey{req.tid, oid}]++
				if tsOf(req.tid) == nil {
					report("object %v: pending request by unknown txn %v", oid, req.tid)
				}
			}
			if e := od.esc; e != nil {
				var sumPos, sumNeg uint64
				for tid, r := range e.holders {
					sumPos += r.pos
					sumNeg += r.neg
					ts := tsOf(tid)
					if ts == nil {
						report("object %v: escrow reservation by terminated txn %v", oid, tid)
						continue
					}
					gl := od.ownerReq(tid)
					if gl == nil || !gl.mode.Has(xid.OpIncr) && !gl.mode.Has(xid.OpDecr) {
						report("object %v: escrow reservation by %v without an incr/decr grant", oid, tid)
					}
					ts.lat.Lock()
					indexed := ts.is(tid) && ts.escrows[oid] == od
					ts.lat.Unlock()
					if !indexed {
						report("object %v: escrow reservation by %v missing from its index", oid, tid)
					}
				}
				if sumPos != e.infPos || sumNeg != e.infNeg {
					report("object %v: escrow in-flight sums (+%d/-%d) disagree with holders (+%d/-%d)",
						oid, e.infPos, e.infNeg, sumPos, sumNeg)
				}
				if e.bounded {
					if e.val < e.lo || e.val > e.hi {
						report("object %v: escrow value %d outside bounds [%d,%d]", oid, e.val, e.lo, e.hi)
					}
					if e.infPos > e.hi-e.val {
						report("object %v: escrow over-reserved high: val %d + inflight %d > hi %d",
							oid, e.val, e.infPos, e.hi)
					}
					if e.infNeg > e.val-e.lo {
						report("object %v: escrow over-reserved low: val %d - inflight %d < lo %d",
							oid, e.val, e.infNeg, e.lo)
					}
				}
			}
			for _, p := range od.permits {
				if p.isDead() {
					report("object %v: dead PD (%v→%v) still chained", oid, p.grantor, p.grantee)
					continue
				}
				if p.od != od || p.oid != oid {
					report("PD (%v→%v) on %v: od backpointer wrong", p.grantor, p.grantee, oid)
				}
				gts := tsOf(p.grantor)
				if gts == nil {
					report("object %v: PD by terminated grantor %v", oid, p.grantor)
				} else if !permitIndexed(gts, p, true) {
					report("object %v: PD (%v→%v) missing from grantor index", oid, p.grantor, p.grantee)
				}
				if !p.grantee.IsNil() {
					ets := tsOf(p.grantee)
					if ets == nil {
						report("object %v: PD to terminated grantee %v", oid, p.grantee)
					} else if !permitIndexed(ets, p, false) {
						report("object %v: PD (%v→%v) missing from grantee index", oid, p.grantor, p.grantee)
					}
				}
			}
		}
	}

	// Transaction-side walk: indexes must not point at anything the OD
	// chains no longer contain.
	m.txns.Range(func(_ uint64, ts *txnState) bool {
		ts.lat.Lock()
		defer ts.lat.Unlock()
		if ts.dead {
			report("txn %v: dead state still mapped", ts.tid)
			return true
		}
		for oid, od := range ts.locks {
			if !od.is(oid) {
				report("txn %v: lock index entry for %v points at an OD not mapped under it (oid %v)", ts.tid, oid, od.oid)
				continue
			}
			if od.ownerReq(ts.tid) == nil {
				report("txn %v: indexed LRD on %v absent from OD chain", ts.tid, oid)
			}
		}
		for _, oid := range ts.waits {
			k := waitKey{ts.tid, oid}
			if pendingOn[k] == 0 {
				report("txn %v: wait-set request on %v not pending", ts.tid, oid)
				continue
			}
			pendingOn[k]--
		}
		for oid, od := range ts.escrows {
			if !od.is(oid) {
				report("txn %v: escrow index entry for %v points at an OD not mapped under it (oid %v)", ts.tid, oid, od.oid)
				continue
			}
			if od.esc == nil {
				report("txn %v: escrow index entry for %v without a ledger reservation", ts.tid, oid)
			} else if _, held := od.esc.holders[ts.tid]; !held {
				report("txn %v: escrow index entry for %v without a ledger reservation", ts.tid, oid)
			}
		}
		for _, p := range ts.byGrantor {
			if p.isDead() {
				continue
			}
			if p.grantor != ts.tid {
				report("txn %v: grantor index holds PD by %v", ts.tid, p.grantor)
			}
			if !permitChained(p) {
				report("txn %v: live grantor PD on %v not chained", ts.tid, p.oid)
			}
		}
		for _, p := range ts.byGrantee {
			if p.isDead() {
				continue
			}
			if p.grantee != ts.tid {
				report("txn %v: grantee index holds PD to %v", ts.tid, p.grantee)
			}
			if !permitChained(p) {
				report("txn %v: live grantee PD on %v not chained", ts.tid, p.oid)
			}
		}
		return true
	})

	for k, n := range pendingOn {
		if n > 0 {
			report("object %v: pending request by %v not in its wait set", k.oid, k.tid)
		}
	}

	// Wait-graph agreement: no edges without a blocked request behind them.
	for _, w := range m.wg.Waiters() {
		if !pendingTids[w] {
			report("wait-graph: waiter %v has no pending lock request", w)
		}
	}
	return bad
}

// mappedODs lists the ODs on the shard's chains. Caller holds s.lat.
func (s *lockShard) mappedODs() []*objDesc {
	var out []*objDesc
	for _, head := range s.buckets {
		for od := head; od != nil; od = od.next {
			out = append(out, od)
		}
	}
	return out
}

// permitIndexed reports whether p appears in ts's grantor (or grantee)
// index. Takes ts.lat; caller holds shard latches only.
func permitIndexed(ts *txnState, p *permit, asGrantor bool) bool {
	ts.lat.Lock()
	defer ts.lat.Unlock()
	if ts.dead {
		return false
	}
	list := ts.byGrantee
	if asGrantor {
		list = ts.byGrantor
	}
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

// permitChained reports whether p is on the PD chain of the OD mapped under
// its oid. Caller holds all shard latches.
func permitChained(p *permit) bool {
	if !p.od.is(p.oid) {
		return false
	}
	for _, q := range p.od.permits {
		if q == p {
			return true
		}
	}
	return false
}

// Footprint is what the lock table holds at one instant: the ODs mapped —
// the objects with a lock, a waiter, a permit or a declared ledger — and the
// descriptors parked on the shards' free lists. A diagnostic, not a setting.
type Footprint struct {
	ODs      int // mapped object descriptors
	FreeODs  int // retired ODs awaiting reuse
	FreeLRDs int // retired LRDs awaiting reuse
}

// Footprint sums the shards' counts, one shard latch at a time; the total is
// exact at a quiescent point.
func (m *Manager) Footprint() Footprint {
	var f Footprint
	for i := range m.shards {
		s := &m.shards[i]
		s.lat.Lock()
		f.ODs += int(s.nods)
		f.FreeODs += int(s.nfreeODs)
		f.FreeLRDs += int(s.nfree)
		s.lat.Unlock()
	}
	return f
}
