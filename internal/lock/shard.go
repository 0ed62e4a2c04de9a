package lock

import (
	"runtime"
	"slices"

	"repro/internal/htab"
	"repro/internal/latch"
	"repro/internal/xid"
)

// defaultShards is the lock-table shard count when Options.Shards is 0.
// 64 shards keep hot-spot collisions rare for tens of workers while the
// per-shard footprint (one latch, one map) stays trivial.
const defaultShards = 64

// Free-list caps: a list never holds more than this many retired
// descriptors, so what a burst retires beyond it goes back to the
// collector. Descriptors on a list hold no object data and no pointers
// into the table.
const (
	maxFreeReqs = 256  // per shard
	maxFreeTxns = 1024 // per manager
	// A recycled txnState keeps its (emptied) index maps; one that grew
	// past this many entries is dropped instead, so a single huge
	// transaction does not leave a huge map behind for small ones to clear.
	maxKeptIndex = 64
)

// lockShard is one slice of the lock table. It owns every object descriptor
// whose oid hashes to it — the OD's granted/pending LRD chains and PD list —
// all guarded by the shard latch, mirroring the paper's §4.1 use of EOS
// test-and-set latches on the OD hash chains. Condition variables (one per
// OD, built on the shard latch) park blocked requests.
//
// The shard also owns the free list of the LRDs its ODs retire. An LRD is
// reachable only from one OD's granted or pending chain (plus, while
// pending, the stack of the acquire call that parked it), always under
// this latch — the transaction side indexes ODs, never LRDs — so the moment
// it is unlinked from its chain under the latch nobody else can hold it,
// and it goes straight back on the list.
type lockShard struct {
	//asset:latch order=20 spin
	lat   latch.Latch
	ods   map[xid.OID]*objDesc
	free  *lockReq // retired LRDs, linked through lockReq.next
	nfree int
	// Pad to a cache line so adjacent shards' latch words don't false-share.
	_ [64 - 8 - 8 - 8 - 8]byte
}

// shardOf returns the shard owning oid.
func (m *Manager) shardOf(oid xid.OID) *lockShard {
	return &m.shards[htab.Hash(uint64(oid))&m.shardMask]
}

// od returns oid's object descriptor, creating it if absent. Caller holds
// s.lat in X mode.
func (s *lockShard) od(oid xid.OID) *objDesc {
	if od := s.ods[oid]; od != nil {
		return od
	}
	return s.newOD(oid)
}

// newOD is od's miss path, outlined so the allocation is charged here and
// not to the //asset:noalloc callers od is inlined into. The descriptor
// carries its cond and room for its first holder, so a new object costs one
// heap object plus its map slot.
//
//go:noinline
func (s *lockShard) newOD(oid xid.OID) *objDesc {
	od := &objDesc{oid: oid, home: s}
	od.cond.L = &s.lat
	od.granted = od.grantedBuf[:0]
	s.ods[oid] = od
	return od
}

// newReq takes an LRD off the shard's free list, or makes one. Caller holds
// s.lat. Not inlined: the make-one path must not be charged to
// //asset:noalloc callers.
//
//go:noinline
func (s *lockShard) newReq() *lockReq {
	r := s.free
	if r == nil {
		return &lockReq{}
	}
	s.free = r.next
	s.nfree--
	r.next = nil
	return r
}

// freeReq retires an LRD that was just unlinked from its OD chain. Caller
// holds s.lat, under which the unlinking happened.
func (s *lockShard) freeReq(r *lockReq) {
	if s.nfree >= maxFreeReqs {
		return
	}
	*r = lockReq{next: s.free}
	s.free = r
	s.nfree++
}

// ownerReq returns tid's granted LRD on od, or nil. Caller holds the shard
// latch. The OD chain — not the transaction's own index — is the ground
// truth consulted by the grant path, so a delegation that retagged or merged
// the LRD is always observed.
func (od *objDesc) ownerReq(tid xid.TID) *lockReq {
	for _, gl := range od.granted {
		if gl.tid == tid {
			return gl
		}
	}
	return nil
}

// dropGranted removes gl from od's granted chain by identity and retires
// it. Caller holds the shard latch.
func (od *objDesc) dropGranted(gl *lockReq) {
	if i := slices.Index(od.granted, gl); i >= 0 {
		od.granted = slices.Delete(od.granted, i, i+1) // clears the vacated slot
		od.home.freeReq(gl)
	}
}

// dropPermit marks p dead and removes it from od's PD list. The descriptor
// stays in the transaction-side indexes and is skipped there lazily. Caller
// holds the shard latch.
func (od *objDesc) dropPermit(p *permit) {
	if p.dead.Swap(true) {
		return
	}
	for i, q := range od.permits {
		if q == p {
			od.permits = append(od.permits[:i], od.permits[i+1:]...)
			break
		}
	}
}

// txnState is the per-transaction side of the lock table: the objects the
// transaction holds granted LRDs on ("list of t's lock requests" in the
// paper's TD), the objects it has pending requests on, and its permit
// descriptors by grantor/grantee role. It indexes ODs, which live as long
// as the table, never LRDs, which are recycled: every consumer goes from the
// OD to the LRD under the OD's shard latch.
//
// All fields are guarded by lat, which in the latch order comes AFTER shard
// latches: it is only ever acquired with at most one shard latch held, or
// with none.
//
// Ownership. A txnState is live while it is mapped under its tid with dead
// clear. ReleaseAll retires it: under lat it sets dead — from then on every
// other path refuses to touch the indexes, so the releaser owns them without
// the latch — unmaps it, walks the indexes, empties them, and puts the state
// on the manager's free list, from where txnOf hands it to another tid. A
// pointer obtained from the table (or kept across a window in which the
// latch was not held) is therefore valid only after is(tid) has confirmed,
// under lat, that the state still belongs to that tid.
type txnState struct {
	//asset:latch order=40 spin
	lat  latch.Latch
	tid  xid.TID
	dead bool // retired (or not yet handed out); registrations must not land here
	// locks indexes the objects tid holds a granted LRD on. Kept in step
	// with the OD chains: installGrant adds, delegation moves, ReleaseAll
	// walks.
	locks map[xid.OID]*objDesc
	// waits holds the objects of the transaction's parked requests (one
	// entry per request), so CancelWaits and victim marking touch exactly
	// the shards involved instead of scanning the whole table.
	waits []*objDesc
	// escrows indexes the objects this transaction holds escrow
	// reservations on (lazily allocated), so settlement at termination
	// touches exactly the shards involved. Kept in step with the OD
	// ledgers: installGrant adds, delegation moves, settlement clears.
	escrows map[xid.OID]*objDesc
	// Permit descriptors naming this transaction as grantor / grantee.
	// Dead descriptors linger and are skipped; ReleaseAll drops them all.
	byGrantor []*permit
	byGrantee []*permit

	next *txnState // free-list link
}

// is reports whether ts is tid's live state. Caller holds ts.lat.
func (ts *txnState) is(tid xid.TID) bool { return !ts.dead && ts.tid == tid }

// txnFreeList holds retired txnStates. Its latch is a leaf: push and pop
// only, taken with no other lock-manager latch held.
type txnFreeList struct {
	//asset:latch order=45 spin
	lat  latch.Latch
	head *txnState
	n    int
}

// get pops a retired state (dead, indexes empty) or makes one.
//
//go:noinline
func (f *txnFreeList) get() *txnState {
	f.lat.Lock()
	ts := f.head
	if ts != nil {
		f.head = ts.next
		f.n--
	}
	f.lat.Unlock()
	if ts == nil {
		ts = &txnState{dead: true}
	}
	ts.next = nil
	if ts.locks == nil {
		ts.locks = make(map[xid.OID]*objDesc)
	}
	return ts
}

// put takes back a state that is dead, unmapped and empty.
func (f *txnFreeList) put(ts *txnState) {
	f.lat.Lock()
	if f.n < maxFreeTxns {
		ts.next = f.head
		f.head = ts
		f.n++
	}
	f.lat.Unlock()
}

// txnOf returns tid's live txnState, creating one if needed. If a concurrent
// ReleaseAll is tearing the state down (dead set, htab entry not yet gone),
// it waits out the teardown and starts fresh — a grant must never register
// into a state whose release has already begun.
//
//asset:noalloc
func (m *Manager) txnOf(tid xid.TID) *txnState {
	for {
		if ts, ok := m.txns.Get(uint64(tid)); ok {
			ts.lat.Lock()
			live := ts.is(tid)
			ts.lat.Unlock()
			if live {
				return ts
			}
			// Teardown in progress, or a state mapped a moment ago that its
			// creator has not brought to life yet: retry once it settles.
			runtime.Gosched()
			continue
		}
		// Map first, bring to life second: a state that loses the insert
		// race goes back on the free list without ever having been live, so
		// no holder of a stale pointer to it can have mistaken it for tid's.
		ts := m.free.get()
		if _, inserted := m.txns.PutIfAbsent(uint64(tid), ts); inserted {
			ts.lat.Lock()
			ts.tid, ts.dead = tid, false
			ts.lat.Unlock()
			return ts
		}
		m.free.put(ts)
	}
}

// stateOf returns the state mapped under tid, or nil. The pointer may be
// stale by the time it is used: callers lock ts.lat and check is(tid).
func (m *Manager) stateOf(tid xid.TID) *txnState {
	ts, _ := m.txns.Get(uint64(tid))
	return ts
}

// registerWait records that tid parked a request on od. Caller holds od's
// shard latch; ts.lat nests inside it. Registration into a state that is no
// longer tid's is skipped: the release already emptied the wait set, and the
// waiter's own grant path detects the retired state and gives up.
func (ts *txnState) registerWait(tid xid.TID, od *objDesc) {
	ts.lat.Lock()
	if ts.is(tid) {
		ts.waits = append(ts.waits, od)
	}
	ts.lat.Unlock()
}

// unregisterWait removes one parked request on od from the wait set.
func (ts *txnState) unregisterWait(tid xid.TID, od *objDesc) {
	ts.lat.Lock()
	if ts.is(tid) {
		for i, w := range ts.waits {
			if w == od {
				last := len(ts.waits) - 1
				ts.waits[i] = ts.waits[last]
				ts.waits[last] = nil
				ts.waits = ts.waits[:last]
				break
			}
		}
	}
	ts.lat.Unlock()
}

// waitObjects returns the objects tid has parked requests on at this
// instant. Called with no latch held.
func (m *Manager) waitObjects(tid xid.TID) []*objDesc {
	ts := m.stateOf(tid)
	if ts == nil {
		return nil
	}
	var out []*objDesc
	ts.lat.Lock()
	if ts.is(tid) && len(ts.waits) > 0 {
		out = append(out, ts.waits...)
	}
	ts.lat.Unlock()
	return out
}
