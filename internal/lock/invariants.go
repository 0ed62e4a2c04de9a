package lock

import (
	"fmt"
	"slices"

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
//  2. Index agreement: every lone lock and every granted LRD belongs to a
//     live transaction whose lock list has exactly one entry for the
//     object, and every list entry names an object the transaction holds
//     (its lone lock, or a granted LRD on its OD) — so no grant is held by
//     a terminated (released) transaction, and ReleaseAll can always find
//     what it must free. No LRD in use is on a free list. An OD's own first
//     LRD is in use exactly while it is on the OD's granted chain, is never
//     on a free list, and is zero on every free-listed OD.
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
//     entry is in the shard its oid hashes to and is found by its oid's
//     probe; a lone lock's entry has a holder and a mode, an inflated one
//     neither, and its OD describes the entry's oid, belongs to no other
//     entry and has something on it (a granted or pending LRD, a PD, a
//     declared ledger); every OD on a free list is in no entry, empty and
//     in its own shard; every transaction index names objects by oid, and
//     no live PD points at an OD that is not in its oid's entry; the
//     entry count agrees with the table, and every free list passes the
//     pool's audit. A side record is owned by at most one OD in an entry
//     and never also on a free list; a free-listed OD points at noSide, a
//     free-listed side record has empty lists and no ledger, and noSide is
//     empty.
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

	// Nothing on a free list may still be linked into a chain, nor may a
	// retired OD carry anything into its next life.
	retiredReqs := make(map[*lockReq]bool)
	retiredODs := make(map[*objDesc]bool)
	retiredSides := make(map[*odSide]bool)
	sideOwner := make(map[*odSide]xid.OID) // the own side records of ODs in entries
	if len(noSide.pending)+len(noSide.permits) != 0 || noSide.esc != nil {
		report("noSide holds %d pending LRDs, %d PDs and ledger %v", len(noSide.pending), len(noSide.permits), noSide.esc)
	}
	for si := range m.shards {
		s := &m.shards[si]
		if err := s.reqPool.Audit(func(r *lockReq) { retiredReqs[r] = true }); err != nil {
			report("shard %d: LRD free list: %v", si, err)
		}
		if err := s.odPool.Audit(func(od *objDesc) {
			retiredODs[od] = true
			if od.home != s || !od.idle() || od.odSide != &noSide {
				report("shard %d: retired OD (last oid %v) is not empty, at home and without a side record", si, od.oid)
			}
		}); err != nil {
			report("shard %d: OD free list: %v", si, err)
		}
		if err := s.sidePool.Audit(func(sd *odSide) {
			retiredSides[sd] = true
			if len(sd.pending)+len(sd.permits) != 0 || sd.esc != nil || sd.cond.L != &s.lat {
				report("shard %d: retired side record is not empty and bound to its shard", si)
			}
		}); err != nil {
			report("shard %d: side record free list: %v", si, err)
		}
	}
	if err := m.free.Audit(nil); err != nil {
		report("txnState free list: %v", err)
	}
	for od := range retiredODs {
		if retiredReqs[&od.first] {
			report("retired OD (last oid %v): its first LRD is on an LRD free list", od.oid)
		}
		if od.first != (lockReq{}) {
			report("retired OD (last oid %v): first LRD not zeroed", od.oid)
		}
	}

	// The live states' lock lists, counted per (transaction, object), so the
	// object-side walk checks each grant against them in constant time.
	lockEntries := make(map[waitKey]int)
	m.txns.Range(func(_ uint64, ts *txnState) bool {
		ts.lat.Lock()
		if !ts.dead {
			for _, oid := range ts.locks {
				lockEntries[waitKey{ts.tid, oid}]++
			}
		}
		ts.lat.Unlock()
		return true
	})
	// listedHolder checks that tid, holding a lock on oid, is live and lists
	// the object exactly once.
	listedHolder := func(tid xid.TID, oid xid.OID) {
		ts := tsOf(tid)
		if ts == nil {
			report("object %v: grant held by terminated txn %v", oid, tid)
			return
		}
		ts.lat.Lock()
		live := ts.is(tid)
		ts.lat.Unlock()
		if !live {
			report("object %v: grant held by dead txn %v", oid, tid)
		} else if n := lockEntries[waitKey{tid, oid}]; n != 1 {
			report("object %v: txn %v lock list has %d entries for its grant, want 1", oid, tid, n)
		}
	}

	// Object-side walk: shards own the ground truth.
	odOwner := make(map[*objDesc]xid.OID) // the ODs in entries
	for si := range m.shards {
		s := &m.shards[si]
		used := 0
		for slot := range s.table {
			e := &s.table[slot]
			if e.empty() {
				continue
			}
			used++
			oid := e.oid
			if i, found := s.find(oid); m.shardOf(oid) != s || !found || i != slot {
				report("object %v: entry misfiled (shard %d, slot %d, its probe finds %d/%v)", oid, si, slot, i, found)
			}
			if e.od == nil {
				if e.tid.IsNil() {
					report("object %v: lone lock with no holder", oid)
				}
				listedHolder(e.tid, oid)
				continue
			}
			od := e.od
			if !e.tid.IsNil() || e.mode != 0 {
				report("object %v: inflated entry keeps lone holder %v (%v)", oid, e.tid, e.mode)
			}
			if od.oid != oid || od.home != s {
				report("od %v: in the entry of %v in shard %d (home %p)", od.oid, oid, si, od.home)
			}
			if other, dup := odOwner[od]; dup {
				report("od %v: in the entries of %v and %v", od.oid, other, oid)
			}
			odOwner[od] = oid
			if retiredODs[od] {
				report("od %v: in an entry and on the free list", oid)
			}
			if od.idle() {
				report("od %v: in an entry with no lock, waiter, permit or ledger", oid)
			}
			if sd := od.odSide; sd == nil {
				report("od %v: no side record, not even noSide", oid)
			} else if sd != &noSide {
				if retiredSides[sd] {
					report("od %v: side record is on a free list", oid)
				}
				if other, dup := sideOwner[sd]; dup {
					report("od %v: side record shared with od %v", oid, other)
				}
				sideOwner[sd] = oid
			}
			if inUse := od.first.od != nil; inUse != slices.Contains(od.granted, &od.first) {
				report("od %v: first LRD in use %v, on the granted chain %v", oid, inUse, !inUse)
			}
			if retiredReqs[&od.first] {
				report("od %v: first LRD is on an LRD free list", oid)
			}
			seen := make(map[xid.TID]bool)
			for _, gl := range od.granted {
				if gl.od != od {
					report("granted LRD %v/%v: od backpointer wrong", gl.tid, oid)
				}
				if retiredReqs[gl] {
					report("object %v: granted LRD of txn %v is on the free list", oid, gl.tid)
				}
				if seen[gl.tid] {
					report("object %v: duplicate granted LRD for txn %v", oid, gl.tid)
				}
				seen[gl.tid] = true
				listedHolder(gl.tid, oid)
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
				if retiredReqs[req] {
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
					_, indexed := ts.escrows[oid]
					indexed = indexed && ts.is(tid)
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
		if used != int(s.n) {
			report("shard %d: %d entries in the table, count says %d", si, used, s.n)
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
		for _, oid := range ts.locks {
			s := m.shardOf(oid)
			i, ok := s.find(oid)
			switch {
			case !ok:
				report("txn %v: lock list names %v, which has no entry", ts.tid, oid)
			case s.table[i].od == nil:
				if s.table[i].tid != ts.tid {
					report("txn %v: lock list names %v, a lone lock of %v", ts.tid, oid, s.table[i].tid)
				}
			case s.table[i].od.ownerReq(ts.tid) == nil:
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
		for oid := range ts.escrows {
			od := m.shardOf(oid).lookup(oid)
			if od == nil {
				report("txn %v: escrow index entry for %v, which has no OD", ts.tid, oid)
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

// permitChained reports whether p is on the PD chain of the OD in its oid's
// entry. Caller holds all shard latches.
func permitChained(p *permit) bool {
	if p.od.home.lookup(p.oid) != p.od {
		return false
	}
	for _, q := range p.od.permits {
		if q == p {
			return true
		}
	}
	return false
}

// Footprint is what the lock table holds at one instant: its entries — the
// objects with a lock, a waiter, a permit or a declared ledger — the ODs of
// those that have more than a lone lock, and the descriptors parked on the
// shards' free lists. A diagnostic, not a setting.
type Footprint struct {
	Entries  int // objects in the table
	ODs      int // of those, inflated into an object descriptor
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
		f.Entries += int(s.n)
		for i := range s.table {
			if s.table[i].od != nil {
				f.ODs++
			}
		}
		f.FreeODs += s.odPool.Len()
		f.FreeLRDs += s.reqPool.Len()
		s.lat.Unlock()
	}
	return f
}
