package lock

import (
	"repro/internal/xid"
)

// Permit records that grantor allows grantee to perform ops on the given
// objects despite conflicts with grantor's locks (§2.2 of the paper).
// Wildcards follow the paper's additional forms:
//
//   - grantee == NilTID: any transaction may perform the operations
//     (permit(ti, ob_set, operations));
//   - ops == 0: all operations (permit(ti, tj));
//   - oids == nil: every object grantor has accessed or has permission to
//     access (permit(ti, tj, operations)), materialized per §4.2 by walking
//     grantor's LRD list and incoming permits.
//
// Transitivity: with the default eager closure, inserting a permit from g
// derives the implied permits for every transaction that had permitted g on
// the same object (ops intersected), recursively. With lazy closure (A2
// ablation) the derivation happens at lock time instead.
//
// Cross-shard discipline: the grantor/grantee transaction states are
// resolved before any shard latch is taken; each object's PD work then runs
// under that object's shard latch alone.
func (m *Manager) Permit(grantor, grantee xid.TID, oids []xid.OID, ops xid.OpSet) {
	if ops == 0 {
		ops = xid.OpAll
	}
	// Materialize both transaction states up front so PD insertion under
	// shard latches only ever looks them up.
	m.txnOf(grantor)
	if !grantee.IsNil() {
		m.txnOf(grantee)
	}
	if oids == nil {
		oids = m.accessible(grantor)
	}
	for _, oid := range oids {
		s := m.shardOf(oid)
		s.lat.Lock()
		od := s.od(oid)
		m.permitOneLocked(grantor, grantee, od, ops)
		s.retireIfIdle(od) // the grantor may have terminated: nothing inserted
		s.lat.Unlock()
	}
}

// accessible lists the objects grantor has accessed (its LRDs) or has
// permission to access (permits naming it as grantee). Reads the
// transaction state under its latch alone; permit liveness is an atomic
// flag, so no shard latch is needed.
func (m *Manager) accessible(grantor xid.TID) []xid.OID {
	ts := m.stateOf(grantor)
	if ts == nil {
		return nil
	}
	ts.lat.Lock()
	defer ts.lat.Unlock()
	if !ts.is(grantor) {
		return nil
	}
	seen := make(map[xid.OID]bool)
	var out []xid.OID
	for _, oid := range ts.locks {
		if !seen[oid] {
			seen[oid] = true
			out = append(out, oid)
		}
	}
	for _, p := range ts.byGrantee {
		if p.isDead() {
			continue
		}
		if !seen[p.oid] {
			seen[p.oid] = true
			out = append(out, p.oid)
		}
	}
	return out
}

// permitOneLocked inserts (or widens) one PD and, under eager closure,
// materializes the implied transitive permits. Caller holds the shard
// latch of od.
func (m *Manager) permitOneLocked(grantor, grantee xid.TID, od *objDesc, ops xid.OpSet) {
	type ins struct {
		grantor, grantee xid.TID
		ops              xid.OpSet
	}
	work := []ins{{grantor, grantee, ops}}
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		if w.grantor == w.grantee && !w.grantee.IsNil() {
			continue
		}
		grew := m.insertPD(od, w.grantor, w.grantee, w.ops)
		if !grew || !m.opts.EagerClosure {
			continue
		}
		// Anyone who permitted w.grantor on this object implicitly permits
		// w.grantee for the intersection.
		for _, p := range od.permits {
			if p.isDead() {
				continue
			}
			if (p.grantee == w.grantor || p.grantee.IsNil()) && p.grantor != w.grantor {
				if shared := p.ops.Intersect(w.ops); shared != 0 {
					work = append(work, ins{p.grantor, w.grantee, shared})
				}
			}
		}
	}
	od.wake() // new permission may unblock waiters
}

// insertPD adds or widens the PD (grantor→grantee, ops) on od and reports
// whether the permission actually grew (for closure termination). A new
// descriptor registers in the grantor's and grantee's transaction states;
// if either side's state is dead or gone — the transaction terminated, and
// its ReleaseAll snapshot will not cover this descriptor — the permit dies
// with it immediately. Caller holds the shard latch; txnState latches nest
// inside it, one at a time.
func (m *Manager) insertPD(od *objDesc, grantor, grantee xid.TID, ops xid.OpSet) bool {
	for _, p := range od.permits {
		if p.isDead() || p.grantor != grantor || p.grantee != grantee {
			continue
		}
		if p.ops.Has(ops) {
			return false
		}
		p.ops = p.ops.Union(ops)
		return true
	}
	grantorTS := m.stateOf(grantor)
	if grantorTS == nil {
		return false // grantor terminated; nothing to permit
	}
	grantorTS.lat.Lock()
	if !grantorTS.is(grantor) {
		grantorTS.lat.Unlock()
		return false
	}
	p := od.home.newPermit()
	p.od, p.oid, p.grantor, p.grantee, p.ops = od, od.oid, grantor, grantee, ops
	p.refs.Store(2) // the grantor's index and od's list
	grantorTS.byGrantor = append(grantorTS.byGrantor, p)
	grantorTS.lat.Unlock()
	side := od.ownSide()
	side.permits = append(side.permits, p)
	if !grantee.IsNil() {
		alive := false
		if granteeTS := m.stateOf(grantee); granteeTS != nil {
			granteeTS.lat.Lock()
			if granteeTS.is(grantee) {
				p.refs.Add(1)
				granteeTS.byGrantee = append(granteeTS.byGrantee, p)
				alive = true
			}
			granteeTS.lat.Unlock()
		}
		if !alive {
			// Grantee terminated: a permission to it is dead on arrival.
			// The grantor-side index entry lingers, skipped lazily.
			od.dropPermit(p)
			return false
		}
	}
	return true
}

// permits reports whether holder allows requester to perform ops on od,
// either by a direct PD or — under lazy closure — through a chain of
// permits starting at holder. Caller holds the shard latch.
func (m *Manager) permits(holder, requester xid.TID, od *objDesc, ops xid.OpSet) bool {
	if m.opts.EagerClosure {
		for _, p := range od.permits {
			if p.isDead() || p.grantor != holder {
				continue
			}
			if (p.grantee == requester || p.grantee.IsNil()) && p.ops.Has(ops) {
				return true
			}
		}
		return false
	}
	// Lazy closure: DFS along grantor chains, intersecting operations.
	type node struct {
		tid xid.TID
		ops xid.OpSet
	}
	visited := make(map[xid.TID]xid.OpSet)
	stack := []node{{holder, xid.OpAll}}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n.tid].Has(n.ops) {
			continue
		}
		visited[n.tid] = visited[n.tid].Union(n.ops)
		for _, p := range od.permits {
			if p.isDead() || p.grantor != n.tid {
				continue
			}
			shared := p.ops.Intersect(n.ops)
			if !shared.Has(ops) {
				continue
			}
			if p.grantee == requester || p.grantee.IsNil() {
				return true
			}
			stack = append(stack, node{p.grantee, shared})
		}
	}
	return false
}

// Permitted reports whether holder currently permits requester to perform
// ops on oid (diagnostics and tests).
func (m *Manager) Permitted(holder, requester xid.TID, oid xid.OID, ops xid.OpSet) bool {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	od := s.lookup(oid)
	if od == nil {
		return false
	}
	return m.permits(holder, requester, od, ops)
}

// PermitCount returns the number of live permit descriptors on oid
// (benchmark E11 scans this list).
func (m *Manager) PermitCount(oid xid.OID) int {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	od := s.lookup(oid)
	if od == nil {
		return 0
	}
	return len(od.permits)
}
