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
	// ODs are nearly twice an LRD's size, and a shard needs spares only for
	// the objects that are released together: 64 per shard is 4,096 across
	// the default table, 0.7 MB at most. A bulk load that locks more than
	// that in one transaction gives the excess back to the collector.
	maxFreeODs = 64 // per shard
	// A recycled txnState keeps its (emptied) index maps; one that grew
	// past this many entries is dropped instead, so a single huge
	// transaction does not leave a huge map behind for small ones to clear.
	maxKeptIndex = 64
	// A recycled OD keeps the (emptied) backing arrays of its pending queue
	// and PD list up to this capacity, so an object that was once a hot spot
	// does not park a long array on the free list.
	maxKeptChain = 8
	// minBuckets is a shard's initial OD bucket count; the array doubles
	// when the mapped ODs outnumber the buckets and never shrinks (8 bytes
	// per object of the largest set ever locked at once).
	minBuckets = 8
)

// lockShard is one slice of the lock table. It owns every object descriptor
// whose oid hashes to it — the OD's granted/pending LRD chains and PD list —
// all guarded by the shard latch, mirroring the paper's §4.1 use of EOS
// test-and-set latches on the OD hash chains. Condition variables (one per
// OD, built on the shard latch) park blocked requests.
//
// ODs hang off the bucket array in chains linked through objDesc.next, the
// paper's own structure: mapping and unmapping one is a few pointer writes
// and never allocates, which matters now that both are on the path of every
// lock on an idle object. An OD is mapped exactly while it has something to
// describe — a granted or pending LRD, a PD, a declared escrow ledger — and
// is unmapped and pushed on the shard's free list in the latch hold that
// takes the last of those away (retireIfIdle), so the table is sized by the
// locks in force, not by the objects ever locked.
//
// The shard also owns the free list of the LRDs its ODs retire. An LRD is
// reachable only from one OD's granted or pending chain (plus, while
// pending, the stack of the acquire call that parked it), always under
// this latch — the transaction side indexes ODs, never LRDs — so the moment
// it is unlinked from its chain under the latch nobody else can hold it,
// and it goes straight back on the list.
type lockShard struct {
	//asset:latch order=20 spin
	lat     latch.Latch
	buckets []*objDesc // OD hash chains; len is a power of two
	free    *lockReq   // retired LRDs, linked through lockReq.next
	freeODs *objDesc   // retired ODs, linked through objDesc.next
	// Counts of mapped ODs and of the two free lists. With them the shard is
	// exactly one cache line, so adjacent shards' latch words don't
	// false-share.
	nods, nfree, nfreeODs int32
	_                     [4]byte
}

// shardIndexOf returns the index of the shard owning oid.
func (m *Manager) shardIndexOf(oid xid.OID) uint64 {
	return htab.Hash(uint64(oid)) & m.shardMask
}

// shardOf returns the shard owning oid.
func (m *Manager) shardOf(oid xid.OID) *lockShard {
	return &m.shards[m.shardIndexOf(oid)]
}

// bucket returns the head of the chain oid hashes to. The shard index took
// the hash's low bits; the chains use the high ones.
func (s *lockShard) bucket(oid xid.OID) **objDesc {
	return &s.buckets[(htab.Hash(uint64(oid))>>32)&uint64(len(s.buckets)-1)]
}

// lookup returns oid's object descriptor, or nil when the object has no
// lock, waiter, permit or ledger. Caller holds s.lat.
func (s *lockShard) lookup(oid xid.OID) *objDesc {
	for od := *s.bucket(oid); od != nil; od = od.next {
		if od.oid == oid {
			return od
		}
	}
	return nil
}

// od returns oid's object descriptor, mapping one if absent. Whoever maps an
// OD and then installs nothing on it calls retireIfIdle before letting go of
// the latch. Caller holds s.lat in X mode.
func (s *lockShard) od(oid xid.OID) *objDesc {
	if od := s.lookup(oid); od != nil {
		return od
	}
	return s.mapOD(oid)
}

// mapOD is od's miss path: it takes a descriptor off the shard's free list,
// or makes one, and links it under oid. Outlined so the make-one path is
// charged here and not to the //asset:noalloc callers od is inlined into.
// The descriptor carries its cond and room for its first holder, so a new
// one is a single heap object.
//
//go:noinline
func (s *lockShard) mapOD(oid xid.OID) *objDesc {
	od := s.freeODs
	if od != nil {
		s.freeODs = od.next
		s.nfreeODs--
	} else {
		od = &objDesc{home: s}
		od.cond.L = &s.lat
		od.granted = od.grantedBuf[:0]
	}
	if int(s.nods) >= len(s.buckets) {
		s.grow()
	}
	od.oid, od.mapped = oid, true
	b := s.bucket(oid)
	od.next = *b
	*b = od
	s.nods++
	return od
}

// grow doubles the bucket array and rechains the mapped ODs. Caller holds
// s.lat.
func (s *lockShard) grow() {
	old := s.buckets
	s.buckets = make([]*objDesc, 2*len(old))
	for _, od := range old {
		for od != nil {
			next := od.next
			b := s.bucket(od.oid)
			od.next = *b
			*b = od
			od = next
		}
	}
}

// retireIfIdle unmaps od and puts it on the shard's free list if nothing is
// left on it: no granted or pending LRD, no PD, no declared escrow ledger (a
// ledger is state of the object, not of a lock: its bounds must outlive its
// reservations, so a declared counter keeps its OD until DropEscrow). It is
// the last thing a latch hold does with od — every site that shrinks a chain,
// or that mapped od and installed nothing, ends with it — because from here
// on the descriptor may be handed to another oid of this shard. With pending
// empty nobody is parked on od.cond; a wake-up callback that had already
// started may still Broadcast on it, which after reuse is a spurious wake-up
// of the new object's waiters, and every wait loop re-evaluates on wake-up.
//
// The cond is never reset (it is bound to this shard's latch for good, and an
// OD never changes shard), and the other fields are reset one by one: the
// descriptor must not be overwritten as a whole, it embeds a sync.Cond.
// Caller holds s.lat; od is mapped.
func (s *lockShard) retireIfIdle(od *objDesc) {
	if !od.idle() {
		return
	}
	p := s.bucket(od.oid)
	for *p != od {
		p = &(*p).next
	}
	*p = od.next
	s.nods--
	od.mapped, od.next = false, nil // oid stays, for whoever reports a stale pointer
	if s.nfreeODs >= maxFreeODs {
		return
	}
	od.grantedBuf[0] = nil // a stale copy if granted outgrew the buffer
	od.granted = od.grantedBuf[:0]
	od.pending = keptChain(od.pending)
	od.permits = keptChain(od.permits)
	od.next = s.freeODs
	s.freeODs = od
	s.nfreeODs++
}

// keptChain returns an emptied chain's backing array for reuse, or nil if it
// grew large. Removal cleared every vacated slot, so the array holds nothing.
func keptChain[T any](chain []*T) []*T {
	if cap(chain) > maxKeptChain {
		return nil
	}
	return chain[:0]
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
	if i := slices.Index(od.permits, p); i >= 0 {
		od.permits = slices.Delete(od.permits, i, i+1) // clears the vacated slot
	}
}

// txnState is the per-transaction side of the lock table: the objects the
// transaction holds granted LRDs on ("list of t's lock requests" in the
// paper's TD), the objects it has pending requests on, and its permit
// descriptors by grantor/grantee role. It never indexes LRDs: every consumer
// goes from the OD to the LRD under the OD's shard latch. Parked requests are
// indexed by oid and resolved under the shard latch. Granted locks and
// reservations are indexed by OD pointer, which is good for as long as the
// lock or the ledger it stands for keeps the OD mapped; ODs are recycled too,
// so a consumer confirms od.is(oid) under od.home's latch before it believes
// the pointer (an OD never changes shard, so home is safe to read).
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
	waits []xid.OID
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

// registerWait records that tid parked a request on oid. Caller holds oid's
// shard latch; ts.lat nests inside it. Registration into a state that is no
// longer tid's is skipped: the release already emptied the wait set, and the
// waiter's own grant path detects the retired state and gives up.
func (ts *txnState) registerWait(tid xid.TID, oid xid.OID) {
	ts.lat.Lock()
	if ts.is(tid) {
		ts.waits = append(ts.waits, oid)
	}
	ts.lat.Unlock()
}

// unregisterWait removes one parked request on oid from the wait set.
func (ts *txnState) unregisterWait(tid xid.TID, oid xid.OID) {
	ts.lat.Lock()
	if ts.is(tid) {
		if i := slices.Index(ts.waits, oid); i >= 0 {
			last := len(ts.waits) - 1
			ts.waits[i] = ts.waits[last]
			ts.waits = ts.waits[:last]
		}
	}
	ts.lat.Unlock()
}

// waitObjects returns the objects tid has parked requests on at this
// instant. Called with no latch held.
func (m *Manager) waitObjects(tid xid.TID) []xid.OID {
	ts := m.stateOf(tid)
	if ts == nil {
		return nil
	}
	var out []xid.OID
	ts.lat.Lock()
	if ts.is(tid) && len(ts.waits) > 0 {
		out = append(out, ts.waits...)
	}
	ts.lat.Unlock()
	return out
}
