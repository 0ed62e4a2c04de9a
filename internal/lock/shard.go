package lock

import (
	"runtime"
	"slices"

	"repro/internal/htab"
	"repro/internal/latch"
	"repro/internal/pool"
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
	maxFreeReqs  = 256  // per shard
	maxFreePDs   = 64   // per shard
	maxFreeSides = 64   // per shard
	maxFreeTxns  = 1024 // per manager
	// An OD (144 B, its first holder's LRD inside) is nearly three times an
	// LRD's size, and a shard needs spares only for the objects that are
	// released together: 64 per shard is 4,096 across the default table,
	// about 0.6 MB at most. A bulk load that locks more than that in one
	// transaction gives the excess back to the collector.
	maxFreeODs = 64 // per shard
	// A recycled txnState keeps its (emptied) lock list and reservation
	// map. A lock list that grew past this many entries is kept only while
	// the transaction that just used it needed it (see keptLocks); a
	// reservation map past it is dropped, so a single huge transaction does
	// not leave a huge index behind for small ones to carry or clear.
	maxKeptIndex = 64
	// A recycled OD keeps the (emptied) backing array of its granted chain,
	// and a recycled side record those of its pending queue and PD list, up
	// to this capacity, so an object that was once a hot spot does not park
	// a long array on a free list.
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
// side record, built on the shard latch) park blocked requests.
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
// The shard also owns the free lists of the side records its ODs retire
// with, and of the LRDs its ODs retire. An LRD is
// reachable only from one OD's granted or pending chain (plus, while
// pending, the stack of the acquire call that parked it), always under
// this latch — the transaction side indexes ODs, never LRDs — so the moment
// it is unlinked from its chain under the latch nobody else can hold it,
// and it goes straight back on the list.
//
// The fields fill exactly one cache line, so adjacent shards' latch words
// don't false-share.
type lockShard struct {
	//asset:latch order=20 spin
	lat      latch.Latch
	nods     int32                         // mapped ODs
	buckets  []*objDesc                    // OD hash chains; len is a power of two
	reqPool  pool.Stack[lockReq, *lockReq] // retired LRDs
	odPool   pool.Stack[objDesc, *objDesc] // retired ODs
	sidePool pool.Stack[odSide, *odSide]   // retired side records
	pdPool   pool.Stack[permit, *permit]   // retired PDs
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
// The descriptor carries room for its first holder, so a new one is a
// single heap object.
//
//go:noinline
func (s *lockShard) mapOD(oid xid.OID) *objDesc {
	od := s.odPool.Pop()
	if od == nil {
		od = &objDesc{home: s, odSide: &noSide}
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
// on the descriptor may be handed to another oid of this shard. Its side
// record, if it took one, goes back on the shard's free list. With pending
// empty nobody is parked on that record's cond; a wake-up callback that had
// already started may still Broadcast on it, which after reuse is a spurious
// wake-up of another object's waiters, and every wait loop re-evaluates on
// wake-up.
//
// The reset is field by field: home is read without the latch (an OD never
// changes shard), so it is never written again, and first is zero already
// (dropGranted). Caller holds s.lat; od is mapped.
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
	od.grantedBuf[0] = nil          // a stale copy if granted outgrew the buffer
	if od.granted = keptChain(od.granted); od.granted == nil {
		od.granted = od.grantedBuf[:0]
	}
	if od.odSide != &noSide {
		s.freeSide(od.odSide)
		od.odSide = &noSide
	}
	s.odPool.Push(od, maxFreeODs)
}

// newSide takes a side record off the shard's free list, or makes one
// whose cond is bound to the shard latch. Caller holds s.lat. Not inlined,
// as newReq.
//
//go:noinline
func (s *lockShard) newSide() *odSide {
	if sd := s.sidePool.Pop(); sd != nil {
		return sd
	}
	sd := &odSide{}
	sd.cond.L = &s.lat
	return sd
}

// freeSide retires the side record of an OD that is retiring, keeping the
// emptied arrays of its lists unless they grew large. The cond is never
// reset: it is bound to this shard's latch for good. The record embeds a
// sync.Cond, so it is reset field by field. Caller holds s.lat.
func (s *lockShard) freeSide(sd *odSide) {
	sd.pending = keptChain(sd.pending)
	sd.permits = keptChain(sd.permits)
	s.sidePool.Push(sd, maxFreeSides)
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
	if r := s.reqPool.Pop(); r != nil {
		return r
	}
	return &lockReq{}
}

// freeReq retires an LRD that was just unlinked from its OD chain, keeping
// its parked record, emptied, for the next wait. Caller holds s.lat, under
// which the unlinking happened.
func (s *lockShard) freeReq(r *lockReq) {
	w := r.wait
	if w != nil {
		*w = parked{tids: w.tids[:0]}
	}
	*r = lockReq{wait: w}
	s.reqPool.Push(r, maxFreeReqs)
}

// newPermit takes a PD off the shard's free list, or makes one, holding no
// reference yet. Caller holds s.lat. Not inlined, as newReq.
//
//go:noinline
func (s *lockShard) newPermit() *permit {
	if p := s.pdPool.Pop(); p != nil {
		return p
	}
	return &permit{}
}

// unrefPermit drops a reference on p, a PD of this shard's; the last one
// retires it. Caller holds s.lat.
func (s *lockShard) unrefPermit(p *permit) {
	if p.refs.Add(-1) != 0 {
		return
	}
	p.od, p.oid, p.grantor, p.grantee, p.ops = nil, xid.NilOID, xid.NilTID, xid.NilTID, 0
	p.dead.Store(false)
	s.pdPool.Push(p, maxFreePDs)
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
// it: the OD's own first LRD is zeroed, which frees it for the next holder,
// and any other goes back on the shard's free list. Caller holds the shard
// latch.
func (od *objDesc) dropGranted(gl *lockReq) {
	if i := slices.Index(od.granted, gl); i >= 0 {
		od.granted = slices.Delete(od.granted, i, i+1) // clears the vacated slot
		if gl == &od.first {
			od.first = lockReq{}
		} else {
			od.home.freeReq(gl)
		}
	}
}

// dropPermit marks p dead and removes it from od's PD list, dropping the
// list's reference. The descriptor stays in the transaction-side indexes
// and is skipped there lazily. Caller holds the shard latch.
func (od *objDesc) dropPermit(p *permit) {
	if p.dead.Swap(true) {
		return
	}
	if i := slices.Index(od.permits, p); i >= 0 {
		od.permits = slices.Delete(od.permits, i, i+1) // clears the vacated slot
	}
	od.home.unrefPermit(p)
}

// held is one entry of a transaction's lock list: an object it was granted
// a lock on and the OD that lock lives on.
type held struct {
	oid xid.OID
	od  *objDesc
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
	// locks lists the objects tid holds a granted LRD on, in acquisition
	// order, one entry per LRD: installGrant appends, a delegation appends
	// to the delegatee's list under the shard latch that retags the LRD and
	// takes the moved entries out of the delegator's in one pass after its
	// shard visits, ReleaseAll walks it in order. Between those two steps of
	// a delegation an entry may name an OD that no longer carries tid's LRD;
	// every consumer finds the LRD on the chain under the shard latch.
	locks []held
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

	pool.Link[txnState]
}

// is reports whether ts is tid's live state. Caller holds ts.lat.
func (ts *txnState) is(tid xid.TID) bool { return !ts.dead && ts.tid == tid }

// newTxnState pops a retired state (dead, indexes empty) off the manager's
// free list or makes one.
//
//go:noinline
func (m *Manager) newTxnState() *txnState {
	ts := m.free.Pop()
	if ts == nil {
		ts = &txnState{dead: true}
	}
	return ts
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
		ts := m.newTxnState()
		if _, inserted := m.txns.PutIfAbsent(uint64(tid), ts); inserted {
			ts.lat.Lock()
			ts.tid, ts.dead = tid, false
			ts.lat.Unlock()
			return ts
		}
		m.free.Push(ts, maxFreeTxns)
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
