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
	// An OD (128 B, its first holder's LRD inside) is made only for an
	// object that is contended, permitted or escrow-declared: a lone lock
	// is an entry of its shard's table and no descriptor at all, so even a
	// bulk load that locks thousands of objects in one transaction retires
	// none. 64 spares per shard, 4,096 across the default table, cover the
	// objects that are contended at once.
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
	// minBuckets is a shard's initial table size in entries. The table
	// doubles when an insert takes it past half full and never shrinks: 32
	// bytes a slot, two to four slots per object of the largest set ever
	// locked at once.
	minBuckets = 8
)

// entry is one slot of a shard's table: an object with a lock, a waiter, a
// permit or a declared ledger. A lone lock — one holder, unsuspended, no
// waiter, no PD, no ledger, the lock of nearly every object — is the entry
// itself: od is nil and tid and mode are the holder's. Anything more inflates
// the entry: its od points at the object's descriptor, which carries the
// lone holder on as its first LRD, and tid and mode are zero. A slot is
// empty when it has neither a descriptor nor a mode (a lock has a mode).
type entry struct {
	oid  xid.OID
	tid  xid.TID
	od   *objDesc
	mode xid.OpSet
}

func (e *entry) empty() bool { return e.od == nil && e.mode == 0 }

// lockShard is one slice of the lock table. It owns every object whose oid
// hashes to it: the object's entry in its table and, for an object that has
// one, its OD — the granted/pending LRD chains and PD list — all guarded by
// the shard latch, the way the paper's §4.1 guards the OD hash chains with
// EOS test-and-set latches. Condition variables (one per side record, built
// on the shard latch) park blocked requests.
//
// The table is an open-addressing array: linear probing from the slot the
// oid's hash names, backward-shift deletion, so there are no tombstones and
// a lookup stops at the first empty slot. A lone lock is its entry alone;
// taking and releasing it writes one slot and never touches a descriptor.
// An object is in the table exactly while it has something to describe — a
// lock, and for an inflated entry also a pending LRD, a PD or a declared
// escrow ledger — and its entry is deleted in the latch hold that takes the
// last of those away (for an OD, retireIfIdle), so the table is sized by the
// locks in force, not by the objects ever locked.
//
// The shard also owns the free lists of its ODs, of the side records they
// retire with and of the LRDs its ODs retire. An LRD is reachable only from
// one OD's granted or pending chain (plus, while pending, the stack of the
// acquire call that parked it), always under this latch — the transaction
// side lists oids, never LRDs or ODs — so the moment it is unlinked from its
// chain under the latch nobody else can hold it, and it goes straight back
// on the list.
//
// The fields fill exactly one cache line, so adjacent shards' latch words
// don't false-share.
type lockShard struct {
	//asset:latch order=20 spin
	lat      latch.Latch
	n        int32                         // entries in use
	table    []entry                       // len is a power of two, at most half full
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

// slot returns the slot oid's probe starts at. The shard index took the
// hash's low bits; the table uses the high ones.
func (s *lockShard) slot(oid xid.OID) int {
	return int((htab.Hash(uint64(oid)) >> 32) & uint64(len(s.table)-1))
}

// find returns the index of oid's entry and true, or the index of the empty
// slot an entry for oid would take and false. An index is good until the
// table next changes. Caller holds s.lat.
func (s *lockShard) find(oid xid.OID) (int, bool) {
	mask := len(s.table) - 1
	for i := s.slot(oid); ; i = (i + 1) & mask {
		e := &s.table[i]
		if e.empty() {
			return i, false
		}
		if e.oid == oid {
			return i, true
		}
	}
}

// put fills the empty slot i, which find returned for e.oid, and grows the
// table once that takes it past half full. Caller holds s.lat.
func (s *lockShard) put(i int, e entry) {
	s.table[i] = e
	s.n++
	if 2*int(s.n) > len(s.table) {
		s.grow()
	}
}

// remove empties slot i and shifts back the entries of the probe run after
// it that the hole would otherwise cut off from their home slots. Caller
// holds s.lat.
func (s *lockShard) remove(i int) {
	mask := len(s.table) - 1
	for j := (i + 1) & mask; !s.table[j].empty(); j = (j + 1) & mask {
		// The entry at j may fill the hole at i if its probe passes i on the
		// way from its home slot to j.
		if home := s.slot(s.table[j].oid); (j-home)&mask >= (j-i)&mask {
			s.table[i] = s.table[j]
			i = j
		}
	}
	s.table[i] = entry{}
	s.n--
}

// grow doubles the table and reinserts its entries. Not inlined, so the
// make stays here and out of the frames put is inlined into, whose warmed
// passages TestAcquireReleaseAllocBudget holds at zero allocations.
// Caller holds s.lat.
//
//go:noinline
func (s *lockShard) grow() {
	old := s.table
	s.table = make([]entry, 2*len(old))
	for k := range old {
		if !old[k].empty() {
			i, _ := s.find(old[k].oid)
			s.table[i] = old[k]
		}
	}
}

// lookup returns oid's object descriptor, or nil when the object has none:
// no entry, or a lone lock's. Caller holds s.lat.
func (s *lockShard) lookup(oid xid.OID) *objDesc {
	if i, ok := s.find(oid); ok {
		return s.table[i].od
	}
	return nil
}

// od returns oid's object descriptor, inflating its entry or mapping a new
// one if it has none. Whoever calls it and then installs nothing on the OD
// calls retireIfIdle before letting go of the latch. Caller holds s.lat.
func (s *lockShard) od(oid xid.OID) *objDesc {
	i, ok := s.find(oid)
	if ok && s.table[i].od != nil {
		return s.table[i].od
	}
	return s.inflate(i, ok, oid)
}

// inflate is od's miss path: it takes a descriptor off the shard's free
// list, or makes one, and puts it in oid's entry: in the lone lock's entry
// at i if found, its holder moving into the OD's first LRD, or in a new
// entry in the empty slot i. Outlined so the make-one path stays here and
// out of the frames od is inlined into, whose warmed passages
// TestAcquireReleaseAllocBudget holds at zero allocations.
//
//go:noinline
func (s *lockShard) inflate(i int, found bool, oid xid.OID) *objDesc {
	od := s.odPool.Pop()
	if od == nil {
		od = &objDesc{home: s, odSide: &noSide}
		od.granted = od.grantedBuf[:0]
	}
	od.oid = oid
	if !found {
		s.put(i, entry{oid: oid, od: od})
		return od
	}
	e := &s.table[i]
	od.first = lockReq{tid: e.tid, od: od, mode: e.mode}
	od.granted = append(od.granted, &od.first)
	*e = entry{oid: oid, od: od}
	return od
}

// retireIfIdle deletes od's entry and puts od on the shard's free list if
// nothing is left on it: no granted or pending LRD, no PD, no declared
// escrow ledger (a ledger is state of the object, not of a lock: its bounds
// must outlive its reservations, so a declared counter keeps its OD until
// DropEscrow). It is the last thing a latch hold does with od — every site
// that shrinks a chain, or that inflated od and installed nothing, ends with
// it — because from here on the descriptor may be handed to another oid of
// this shard. Its side record, if it took one, goes back on the shard's free
// list. With pending empty nobody is parked on that record's cond; a wake-up
// callback that had already started may still Broadcast on it, which after
// reuse is a spurious wake-up of another object's waiters, and every wait
// loop re-evaluates on wake-up.
//
// The reset is field by field: home is read without the latch (an OD never
// changes shard), so it is never written again, and first is zero already
// (dropGranted); oid stays, for whoever reports a stale pointer. An OD
// that is no longer in its entry is left alone. Caller holds s.lat.
func (s *lockShard) retireIfIdle(od *objDesc) {
	if !od.idle() {
		return
	}
	i, ok := s.find(od.oid)
	if !ok || s.table[i].od != od {
		return
	}
	s.remove(i)
	od.grantedBuf[0] = nil // a stale copy if granted outgrew the buffer
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
// s.lat. Not inlined: the make-one path stays out of its callers' frames,
// whose warmed passages TestAcquireReleaseAllocBudget holds at zero
// allocations.
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

// txnState is the per-transaction side of the lock table: the objects the
// transaction holds granted locks on ("list of t's lock requests" in the
// paper's TD), the objects it has pending requests on, the objects it holds
// escrow reservations on, and its permit descriptors by grantor/grantee
// role. Every object is listed by oid and resolved, under its shard latch,
// through the shard's table: the transaction side holds no pointer to an
// entry, an OD or an LRD, so nothing it lists can go stale when the table
// moves an entry, inflates one or recycles a descriptor.
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
	// locks lists the objects tid holds a granted lock on, in acquisition
	// order, one entry per lock: a grant appends, a delegation appends to
	// the delegatee's list under the shard latch that retags the lock and
	// takes the moved entries out of the delegator's in one pass after its
	// shard visits, ReleaseAll walks it in order. Between those two steps of
	// a delegation an entry may name an object tid no longer holds; every
	// consumer finds the holder in the table under the shard latch.
	locks []xid.OID
	// waits holds the objects of the transaction's parked requests (one
	// entry per request), so CancelWaits and victim marking touch exactly
	// the shards involved instead of scanning the whole table.
	waits []xid.OID
	// escrows indexes the objects this transaction holds escrow
	// reservations on (lazily allocated), so settlement at termination
	// touches exactly the shards involved. Kept in step with the OD
	// ledgers: installGrant adds, delegation moves, settlement clears.
	escrows map[xid.OID]struct{}
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

// registerWait records that tid parked a request on oid and reports
// whether it did. Caller holds oid's shard latch; ts.lat nests inside it.
// Registration into a state that is no longer tid's is refused: the release
// already emptied the wait set, and the waiter gives up.
func (ts *txnState) registerWait(tid xid.TID, oid xid.OID) bool {
	ts.lat.Lock()
	live := ts.is(tid)
	if live {
		ts.waits = append(ts.waits, oid)
	}
	ts.lat.Unlock()
	return live
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
