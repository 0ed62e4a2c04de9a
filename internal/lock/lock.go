// Package lock implements the ASSET lock manager of §4 of the paper: object
// descriptors (OD) holding granted and pending lock request descriptors
// (LRD) and a list of permit descriptors (PD), the read-lock/write-lock
// algorithm with permit-driven suspension, lock delegation, and release at
// transaction termination.
//
// Two behaviours distinguish it from a classical lock manager:
//
//   - permit: a transaction ti can allow tj to acquire locks that conflict
//     with ti's own. When that happens, ti's conflicting granted lock is
//     *suspended* — it stays on the object, and ti must in turn obtain
//     permission (or wait) before operating on the object again. Permits
//     compose transitively: once ti has permitted tj, a permit from tj to tk
//     implies one from ti to tk on the intersection of objects/operations.
//
//   - delegate: the lock (and thereby undo/commit responsibility, handled by
//     the caller) moves from ti to tj, as used by nested, split/join and
//     similar models.
//
// Blocking requests join a FIFO pending queue per object; every block
// registers edges in the shared waits-for graph, so deadlocks — including
// ones crossing into commit dependencies — are detected at block time.
//
// # Sharding and latch order
//
// The lock table is sharded: oids hash onto Options.Shards lockShards, each
// owning an open-addressing array of entries, one per object with a lock,
// under one short-term latch, the way §4.1 latches the OD hash chains in
// EOS. A lone lock is its entry alone; an object that is contended,
// permitted or escrow-declared has its entry point at an OD with the
// LRD/PD chains. Lock traffic on objects in different shards never
// serializes. Transaction-side state (lock list, wait set,
// permit indexes) lives in per-transaction txnState records in a sharded
// hash table. Latches nest in one global order (see DESIGN.md §8):
//
//	shard latch  →  txnState latch  →  wait-graph mutex
//
// with the added rule that ordinary operations hold at most ONE shard latch
// at a time — cross-shard operations (delegate and permit over object sets,
// multi-object release, victim marking) visit shards sequentially, making
// cross-shard latch deadlock structurally impossible. Only the invariant
// checker (invariants.go) holds all shard latches at once, acquiring them
// in ascending index order.
package lock

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/htab"
	"repro/internal/pool"
	"repro/internal/waitgraph"
	"repro/internal/xid"
)

// Errors returned by Lock.
var (
	// ErrDeadlock is returned to a requester chosen as a deadlock victim.
	ErrDeadlock = errors.New("lock: deadlock victim")
	// ErrCancelled is returned when the waiter's transaction was aborted
	// while it was blocked.
	ErrCancelled = errors.New("lock: wait cancelled (transaction aborted)")
	// ErrContext is returned by LockCtx when the request's context was
	// cancelled or its deadline expired; the returned error wraps the
	// context's cancellation cause (context.Cause), so errors.Is against
	// context.Canceled, context.DeadlineExceeded, or a caller-supplied
	// cause (e.g. a session's lease expiry) classifies the abandonment.
	// A context deadline is how a caller bounds a wait.
	ErrContext = errors.New("lock: wait abandoned by context")
)

// reqStatus is the LRD status field: granted, pending, or upgrading (a
// pending request by a transaction that already holds a weaker lock).
type reqStatus int8

const (
	statusGranted reqStatus = iota
	statusPending
	statusUpgrading
)

// lockReq is the lock request descriptor (LRD) of §4.1: one transaction's
// granted or pending request on one object. All fields are guarded by the
// owning shard's latch. An LRD is linked into exactly one chain of its OD
// and is recycled through the shard's free list the moment it is unlinked
// (see lockShard).
//
// A granted LRD uses tid, od, mode and suspended; delta and escrow are the
// terms of a request that is still to be decided. What only a parked
// request needs — its wake-up flags and its waits-for edges — is in wait,
// which a pending LRD gets on its first park and keeps across recycling, so
// the LRD an OD embeds (objDesc.first), which is only ever granted, carries
// a nil pointer for it.
type lockReq struct {
	tid       xid.TID
	od        *objDesc
	delta     int64 // reserved delta (meaningful when escrow)
	mode      xid.OpSet
	status    reqStatus
	suspended bool // granted lock suspended by a permitted conflicting grant
	escrow    bool // request carries an escrow reservation of delta
	wait      *parked

	pool.Link[lockReq]
}

// parked is the part of a pending LRD that only a parked request needs:
// how its wait was ended from outside, and the waits-for edges it
// registered, one per blocker tryGrant reported. Those from queued on are
// for requests ahead of it in the queue, which removePending takes back
// when such a request leaves. Guarded by the shard latch, like its LRD.
type parked struct {
	ctxErr    error // waiter's context was cancelled or expired
	cancelled bool  // waiter was aborted; it must give up
	victim    bool  // waiter was chosen as deadlock victim
	tids      []xid.TID
	queued    int
}

// objDesc is the object descriptor (OD) of Figure 1: granted and pending
// LRD lists and the object's permit list, guarded by the home shard's latch
// (home itself never changes: an OD is recycled only within its shard). Only
// an object with more than a lone lock has one: its entry in the shard's
// table is inflated (lockShard.od) by a second holder, a waiter, a PD or a
// declared escrow ledger, and points at it exactly while one of its lists is
// non-empty or a ledger is declared; lockShard.retireIfIdle deletes the
// entry and recycles the OD otherwise. Nothing outside the shard keeps a
// pointer to an OD, except a live PD, whose presence on the PD list keeps
// the OD in its entry.
//
// The OD carries one granted LRD of its own, first: inflation moves the
// lone holder into it, a grant takes it while it is free (first.od == nil)
// and an LRD off the shard's free list only beside another holder. first is
// on granted exactly while it is in use, is never on a free list, and is
// zeroed when it leaves granted (dropGranted). Pending LRDs always come from
// the free list.
//
// What only a contended, permitted or escrow-declared object needs — the
// pending queue, the PD list, the escrow ledger and the cond waiters park
// on — is in a side record (odSide), which the OD takes off its shard's
// free list when it first queues a request, lists a PD or declares a
// ledger (ownSide) and gives back when it retires. Until then it points at
// noSide, which is empty and never written, so reading od.pending,
// od.permits or od.esc needs no check.
type objDesc struct {
	oid     xid.OID
	home    *lockShard
	granted []*lockReq
	*odSide
	// grantedBuf backs granted until a second holder arrives: most objects
	// never have one.
	grantedBuf [1]*lockReq
	first      lockReq // the LRD of a holder that found it free

	pool.Link[objDesc]
}

// odSide is an OD's side record: its FIFO queue of pending LRDs, its PD
// list, its escrow ledger, and the cond its waiters park on, bound to the
// shard latch for good (a side record, like an OD, never leaves its
// shard). It is owned by one OD from ownSide until retireIfIdle, and
// otherwise sits on the shard's free list with both lists empty and no
// ledger.
type odSide struct {
	pending []*lockReq // FIFO
	permits []*permit
	esc     *escrowState // bounded escrow ledger; nil when not declared
	cond    sync.Cond    // on the shard latch; signalled on release/suspension change

	pool.Link[odSide]
}

// noSide is the side record of every OD that has no own: both lists empty,
// no ledger. Nothing ever writes to it, parks on it or signals it.
var noSide odSide

// ownSide returns od's own side record, taking one off the shard's free
// list, or making one, if od still points at noSide. Caller holds the
// shard latch.
func (od *objDesc) ownSide() *odSide {
	if od.odSide == &noSide {
		od.odSide = od.home.newSide()
	}
	return od.odSide
}

// wake wakes the requests parked on od, which re-evaluate. An OD with no
// side record of its own has none. Caller holds the shard latch.
func (od *objDesc) wake() {
	if od.odSide != &noSide {
		od.cond.Broadcast()
	}
}

// permit is the permit descriptor (PD): grantor allows grantee (NilTID =
// any transaction) to perform ops on the object even when they conflict with
// grantor's locks. ops is guarded by the shard latch; dead is atomic because
// transaction-side index scans (accessible, invariant checks) read it under
// a txnState latch while shard-side code flips it under the shard latch.
//
// PDs are recycled through their OD's shard's free list. refs counts what
// holds one: the OD's PD list while it is live, each transaction-side index
// it is in (a dead PD lingers there until the state is recycled), and a
// delegation's snapshot of the delegator's grants. A reference is taken
// only by a holder of another, and dropped under the home shard's latch;
// the last drop puts the PD on that shard's list.
type permit struct {
	od      *objDesc
	oid     xid.OID // od's oid for the PD's whole life; readable without the shard latch
	grantor xid.TID
	grantee xid.TID // NilTID = any transaction
	ops     xid.OpSet
	dead    atomic.Bool // lazily removed from secondary indexes
	refs    atomic.Int32

	pool.Link[permit]
}

func (p *permit) isDead() bool { return p.dead.Load() }

// idle reports whether od has nothing left to describe: no granted or
// pending LRD, no PD, no declared escrow ledger. Caller holds od.home.lat.
func (od *objDesc) idle() bool {
	return len(od.granted)+len(od.pending)+len(od.permits) == 0 && od.esc == nil
}

// Options configures a lock manager.
type Options struct {
	// OnVictim is invoked (on its own goroutine) when deadlock detection
	// selects a transaction other than the requester as the victim; the
	// transaction system should abort it. May be nil.
	OnVictim func(xid.TID)
	// EagerClosure controls permit transitivity. When true, implied
	// permits are materialized at insertion; core's Open sets it. When
	// false, as in the zero Options, they are discovered by walking
	// grantor chains at lock time (ablation A2).
	EagerClosure bool
	// Shards is the lock-table shard count, rounded up to a power of two;
	// <= 0 selects the default (64). 1 reproduces the legacy fully-serial
	// lock table.
	Shards int
}

// Manager is the sharded lock manager. Object state lives in shards (one
// latch each); transaction state lives in txnState records.
type Manager struct {
	opts      Options
	shards    []lockShard
	shardMask uint64
	txns      *htab.Map[*txnState]
	free      pool.Shared[txnState, *txnState] // retired txnStates
	wg        *waitgraph.Graph
}

// New returns a lock manager wired to the shared waits-for graph.
func New(wg *waitgraph.Graph, opts Options) *Manager {
	if wg == nil {
		wg = waitgraph.New()
	}
	n := opts.Shards
	if n <= 0 {
		n = defaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	m := &Manager{
		opts:      opts,
		shards:    make([]lockShard, p),
		shardMask: uint64(p - 1),
		txns:      htab.New[*txnState](0),
		wg:        wg,
	}
	for i := range m.shards {
		m.shards[i].table = make([]entry, minBuckets)
	}
	return m
}

// NumShards returns the configured shard count (after power-of-two
// rounding). Tests and benchmarks use it to label configurations.
func (m *Manager) NumShards() int { return len(m.shards) }

// Lock acquires (or upgrades to) the given mode on oid for tid, blocking
// until granted. It returns ErrDeadlock if the request was chosen as a
// deadlock victim and ErrCancelled if the transaction was aborted while
// waiting. Nothing else ends the wait; LockCtx adds the context.
func (m *Manager) Lock(tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	return m.LockCtx(context.Background(), tid, oid, mode)
}

// LockCtx is Lock with a caller-supplied context: a cancelled or
// deadline-expired context wakes the waiter parked on the object's cond and
// returns ErrContext (wrapping the context error), with the pending request
// removed and its wait-graph edges cleared — the lock table is left exactly
// as if the request had never been made. A context deadline is how a caller
// bounds a wait. A background (or never-cancellable) context adds no
// overhead over Lock.
func (m *Manager) LockCtx(ctx context.Context, tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	return m.LockAs(ctx, Holder{}, tid, oid, mode)
}

// Holder is a transaction's state in the lock table, resolved once by tid
// (Manager.Holder), so that a transaction that takes many locks skips the
// lookup by tid on each (LockAs, EscrowReserveAs). It is tid's until tid's
// ReleaseAll retires it: a request through a Holder kept past that is
// refused with ErrCancelled, as a request racing a release is.
type Holder struct{ ts *txnState }

// Holder returns tid's Holder, creating tid's state if it has none.
func (m *Manager) Holder(tid xid.TID) Holder { return Holder{m.txnOf(tid)} }

// LockAs is LockCtx for the transaction h is the Holder of; the zero Holder
// resolves tid.
func (m *Manager) LockAs(ctx context.Context, h Holder, tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	return m.acquire(ctx, h.ts, tid, oid, mode, 0, false)
}

// acquire is the shared body of LockAs and EscrowReserveAs, which pass tid's
// state as ts; a nil ts, the zero Holder's, is resolved by tid.
// An escrow request additionally runs the bounds-admission test at grant
// time and records its reservation atomically with the grant; it can fail
// with ErrEscrow when the test proves the reservation can never be
// admitted.
//
// An object with no entry, or with a lone lock of the requester's own, is
// decided on the entry: a new lone lock fills an empty slot, and the holder's
// own request is covered or an upgrade nothing can block (a lone lock has no
// waiter, no PD and no ledger). Anything else inflates the entry and
// evaluates the request from a descriptor on the stack: a request that is
// granted without waiting never has a pending LRD, a wait registration or a
// ctx watcher, and costs at most the one granted LRD installGrant takes off
// the shard's free list. Only a request that has to wait goes through park.
func (m *Manager) acquire(ctx context.Context, ts *txnState, tid xid.TID, oid xid.OID, mode xid.OpSet, delta int64, escrow bool) error {
	if mode == 0 {
		return errEmptyMode(oid)
	}
	if ctx.Err() != nil {
		return errCtxDead(ctx)
	}
	if ts == nil {
		ts = m.txnOf(tid)
	}
	s := m.shardOf(oid)
	s.lat.Lock()
	i, found := s.find(oid)
	e := &s.table[i]
	switch {
	case !found:
		err := m.grantEntry(ts, s, i, tid, oid, mode)
		s.lat.Unlock()
		return err
	case e.od == nil && e.tid == tid:
		e.mode = e.mode.Union(mode)
		s.lat.Unlock()
		return nil
	}
	od := e.od
	if od == nil {
		od = s.inflate(i, true, oid)
	}

	own := od.ownerReq(tid)
	// Fast path: own unsuspended covering lock (§4.2 step 1a). An escrow
	// request on an object with a declared ledger cannot take it — the
	// reservation must still pass admission — but with no ledger the
	// reservation is vacuous and the covering mode suffices.
	if own != nil && !own.suspended && own.mode.Has(mode) && (!escrow || od.esc == nil) {
		s.lat.Unlock()
		return nil
	}

	probe := lockReq{tid: tid, od: od, mode: mode, status: statusPending, escrow: escrow, delta: delta}
	if own != nil {
		probe.status = statusUpgrading
	}
	// Not being on the pending queue, the probe stands behind every request
	// that is: exactly where it would be appended.
	var blockBuf [4]xid.TID
	var permitBuf [4]*lockReq
	blockers, _, permitted, never := m.tryGrant(&probe, blockBuf[:0], permitBuf[:0])
	if len(blockers) > 0 {
		// Nothing of this request is on od yet, so once the latch is gone od
		// may be retired and handed to another oid: park is given the oid and
		// resolves the descriptor again.
		s.lat.Unlock()
		return m.park(ctx, ts, s, oid, probe)
	}
	var err error
	if never {
		err = ErrEscrow
	} else {
		err = m.grant(ts, &probe, permitted)
	}
	if err != nil {
		s.retireIfIdle(od) // nothing was installed; od may have been inflated for this request alone
	}
	s.lat.Unlock()
	return err
}

//go:noinline
func errEmptyMode(oid xid.OID) error {
	return fmt.Errorf("lock: empty mode requested on %v", oid)
}

//go:noinline
func errCtxDead(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrContext, context.Cause(ctx))
}

// grantEntry grants tid a lone lock on oid, an object with no entry, in the
// empty slot i. Like installGrant it refuses, installing nothing, if ts is
// no longer tid's state. Caller holds s.lat.
func (m *Manager) grantEntry(ts *txnState, s *lockShard, i int, tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	ts.lat.Lock()
	if !ts.is(tid) {
		ts.lat.Unlock()
		return ErrCancelled
	}
	ts.locks = append(ts.locks, oid)
	ts.lat.Unlock()
	s.put(i, entry{oid: oid, tid: tid, mode: mode})
	return nil
}

// grant installs a request that tryGrant found grantable, then suspends
// the permitted conflicting locks. The order matters: installGrant refuses
// when a concurrent ReleaseAll retired the transaction's state while the
// request raced to the grant, and suspending the permitted holders before
// knowing the grant landed would leave their locks suspended with no
// conflicting grant to justify it — a half-merged state nothing would ever
// repair. Both steps happen under the same continuous latch hold, so the
// ordering is invisible to other threads. Caller holds the shard latch.
func (m *Manager) grant(ts *txnState, req *lockReq, permitted []*lockReq) error {
	if !m.installGrant(ts, req.od, req.tid, req.mode, req.delta, req.escrow) {
		// The transaction was released while we raced to the grant; nothing
		// was installed, treat as an aborted waiter.
		return ErrCancelled
	}
	for _, gl := range permitted {
		gl.suspended = true
	}
	if len(permitted) > 0 {
		req.od.wake() // suspension may unblock re-checkers
	}
	return nil
}

// park is acquire's slow path: the request had blockers on its first pass.
// It enqueues a pending LRD on the OD's side record (taking one for the OD
// if it has none), registers it with the transaction so cancel/victim
// marking can find it without a table scan, and waits on the side record's
// cond until the request is granted or given up — which may be at once,
// the table having moved on since acquire let go of the shard latch.
// It wakes on a grant, a victim marking, an abort (CancelWaits) or its
// context's AfterFunc, which is armed only here, just before the first
// Wait. The OD acquire evaluated the probe on is not trusted: it is looked
// up again by oid, and the entry inflated again if the OD was retired in
// between. From the enqueue to leave the pending LRD keeps the OD in its
// entry. Called with no latches held.
//
//go:noinline
func (m *Manager) park(ctx context.Context, ts *txnState, s *lockShard, oid xid.OID, probe lockReq) error {
	tid := probe.tid
	s.lat.Lock()
	od := s.od(oid)
	probe.od = od
	probe.status = statusPending
	if od.ownerReq(tid) != nil {
		probe.status = statusUpgrading
	}
	req := s.newReq()
	w := req.wait
	if w == nil {
		w = new(parked)
	}
	*req = probe
	req.wait = w
	side := od.ownSide()
	side.pending = append(side.pending, req)
	registered := ts.registerWait(tid, oid)

	// The ctx watcher flags req's parked record under the shard latch. It
	// may fire after the request is already resolved (the stop and the
	// firing race); leave accounts for that before it lets req be recycled.
	// It cannot fire unseen before a Wait: it needs the shard latch, which
	// this goroutine holds until Wait releases it.
	var stopWatch func() bool

	// Wait-for edges registered for the current blocker set. Always cleared
	// while the shard latch is still held, so an observer holding every
	// shard latch sees edges if and only if the pending request is present.
	clearEdges := func() {
		for _, h := range w.tids {
			m.wg.Remove(tid, h)
		}
		w.tids = w.tids[:0]
	}
	// leave takes the request off the queue, under the shard latch. The
	// LRD goes back on the free list only if the ctx watcher cannot still be
	// on its way to flag it: a watcher that already started is blocked on
	// this latch holding the pointer, so that LRD is left to the collector
	// instead.
	leave := func() {
		m.removePending(od, req)
		ts.unregisterWait(tid, oid)
		clearEdges()
		if stopWatch == nil || stopWatch() {
			s.freeReq(req)
		}
	}
	// exit finalizes a non-grant outcome; the request may have been the last
	// thing on od.
	exit := func(err error) error {
		leave()
		s.retireIfIdle(od)
		s.lat.Unlock()
		return err
	}
	if !registered {
		// ts is no longer tid's: its release has begun, and no grant could
		// land. Nobody can cancel a wait it does not know of.
		return exit(ErrCancelled)
	}

	var lastKilled xid.TID
	var blockBuf [4]xid.TID
	var permitBuf [4]*lockReq
	for {
		blockers, queued, permitted, never := m.tryGrant(req, blockBuf[:0], permitBuf[:0])
		if w.cancelled {
			return exit(ErrCancelled)
		}
		if w.victim {
			return exit(ErrDeadlock)
		}
		if w.ctxErr != nil {
			// Context death abandons the request even when it became
			// grantable in the same wake-up: the caller is tearing the
			// transaction down and must not pick up new grants.
			return exit(fmt.Errorf("%w: %w", ErrContext, w.ctxErr))
		}
		if never {
			// The escrow test proved no resolution of the other holders'
			// reservations can admit this delta within the declared bounds.
			return exit(ErrEscrow)
		}
		if len(blockers) == 0 {
			leave() // req may be recycled from here on; probe has its terms
			err := m.grant(ts, &probe, permitted)
			if err != nil {
				s.retireIfIdle(od)
			}
			s.lat.Unlock()
			return err
		}
		// Re-register wait edges against the current blocker set.
		clearEdges()
		victim, _ := m.wg.Add(tid, blockers...)
		w.tids = append(w.tids, blockers...)
		w.queued = queued
		if !victim.IsNil() {
			if victim == tid {
				return exit(ErrDeadlock)
			}
			if victim != lastKilled {
				lastKilled = victim
				// Victim marking touches other shards; drop ours first
				// (ordinary operations hold at most one shard latch).
				s.lat.Unlock()
				m.killVictim(victim)
				s.lat.Lock()
				continue
			}
		}
		if stopWatch == nil && ctx.Done() != nil {
			stopWatch = context.AfterFunc(ctx, func() {
				s.lat.Lock()
				// Cause, not Err: a session teardown cancelling the request
				// carries its reason (e.g. lease expiry) as the cause, and
				// that reason must survive into the returned error.
				w.ctxErr = context.Cause(ctx)
				side.cond.Broadcast()
				s.lat.Unlock()
			})
		}
		side.cond.Wait()
	}
}

// tryGrant evaluates §4.2 steps 1a/1b for req. It returns the transactions
// that block the request (empty means grantable), the index in them from
// which they are requests ahead of it in the queue, the conflicting
// granted locks whose holders permit the requester (to be suspended on
// grant), and never when req is an escrow request the bounds can never
// admit. The requester's own granted LRD, if any, is recognized by tid on
// the OD chain — never by a caller-held pointer, which delegation can
// stale. Caller holds the shard latch.
//
// The results are appended to blockers and permitted, buffers of the
// caller's, which a request that is decided in one pass keeps in its frame.
func (m *Manager) tryGrant(req *lockReq, blockers []xid.TID, permitted []*lockReq) (_ []xid.TID, queued int, _ []*lockReq, never bool) {
	od := req.od
	for _, gl := range od.granted {
		if gl.tid == req.tid {
			continue // our own lock never blocks us
		}
		// Suspended locks conflict like granted ones: only the holder's own
		// fast path is affected by suspension. A third party without
		// permission must still wait (it would otherwise see uncommitted
		// data of the suspended holder).
		if !gl.mode.Conflicts(req.mode) {
			continue
		}
		if m.permits(gl.tid, req.tid, od, req.mode) {
			permitted = append(permitted, gl)
			continue
		}
		blockers = append(blockers, gl.tid)
	}
	// FIFO fairness: an ordinary pending request also waits behind earlier
	// conflicting pending requests; upgrades jump the queue.
	queued = len(blockers)
	if req.status != statusUpgrading {
		for _, p := range od.pending {
			if p == req {
				break
			}
			if w := p.wait; p.tid != req.tid && p.mode.Conflicts(req.mode) &&
				!w.victim && !w.cancelled && w.ctxErr == nil {
				blockers = append(blockers, p.tid)
			}
		}
	}
	if len(blockers) > 0 {
		return blockers, queued, nil, false
	}
	// Mode-compatible escrow request: run the bounds-admission test. A
	// failing test blocks on the other reservation holders — any of their
	// terminations (commit of a helpful delta, abort of a competing one)
	// frees headroom and broadcasts the cond — unless no resolution of
	// theirs could ever admit the delta, which fails fast via never.
	if req.escrow && od.esc != nil {
		ok, never, holders := od.esc.admit(req.tid, req.delta)
		if !ok {
			if never {
				return nil, 0, nil, true
			}
			return holders, len(holders), nil, false
		}
	}
	return nil, 0, permitted, false
}

// installGrant merges the granted mode into the requester's LRD on the OD
// chain (taking the OD's own first LRD, or one off the shard's free list
// beside another holder, if needed) and clears any
// suspension (§4.2 step 2). An escrow grant also records its reservation in
// the OD's ledger and the transaction's reservation index under the same
// txnState-latch hold, so a concurrent ReleaseAll either finds both the
// grant and the reservation or neither. It reports false — installing
// nothing — if ts is no longer tid's state (a concurrent ReleaseAll retired
// it), in which case a new grant would leak. Caller holds the shard latch.
func (m *Manager) installGrant(ts *txnState, od *objDesc, tid xid.TID, mode xid.OpSet, delta int64, escrow bool) bool {
	reserve := escrow && od.esc != nil
	// Look on the chain rather than trusting any earlier lookup: a
	// delegation may have handed us a lock while we slept.
	if gl := od.ownerReq(tid); gl != nil && !reserve {
		gl.mode = gl.mode.Union(mode)
		gl.suspended = false
		return true
	}
	ts.lat.Lock()
	if !ts.is(tid) {
		ts.lat.Unlock()
		return false
	}
	if gl := od.ownerReq(tid); gl != nil {
		gl.mode = gl.mode.Union(mode)
		gl.suspended = false
	} else {
		gl := &od.first
		if gl.od != nil {
			gl = od.home.newReq()
		}
		gl.tid, gl.od, gl.mode = tid, od, mode
		od.granted = append(od.granted, gl)
		ts.locks = append(ts.locks, od.oid)
	}
	if reserve {
		od.esc.reserve(tid, delta)
		ts.indexEscrow(od.oid)
	}
	ts.lat.Unlock()
	return true
}

// indexEscrow records oid in the reservation index, which most
// transactions never need and so make on first use. Caller holds ts.lat.
//
//go:noinline
func (ts *txnState) indexEscrow(oid xid.OID) {
	if ts.escrows == nil {
		ts.escrows = make(map[xid.OID]struct{})
	}
	ts.escrows[oid] = struct{}{}
}

// removePending drops req from its OD's pending queue (by identity) and
// wakes later waiters, whose queue position improved. A later waiter that
// counted req as a request ahead of it loses that edge here, not when it
// next runs: req's transaction may request again first, and the stale
// edge would close a cycle that does not exist and kill an innocent
// victim. Caller holds the shard latch.
func (m *Manager) removePending(od *objDesc, req *lockReq) {
	if i := slices.Index(od.pending, req); i >= 0 {
		od.pending = slices.Delete(od.pending, i, i+1) // clears the vacated slot
		for _, p := range od.pending[i:] {
			w := p.wait
			if j := slices.Index(w.tids[w.queued:], req.tid); j >= 0 {
				w.tids = slices.Delete(w.tids, w.queued+j, w.queued+j+1)
				m.wg.Remove(p.tid, req.tid)
			}
		}
	}
	od.wake()
}

// killVictim marks the victim's pending requests and notifies the
// transaction system so it aborts the victim. Called with NO latches held.
func (m *Manager) killVictim(victim xid.TID) {
	m.flagWaits(victim, true)
	if m.opts.OnVictim != nil {
		// The victim callback is the one sanctioned fire-and-forget spawn:
		// it is the notification seam to the transaction system, which owns
		// its own lifetime (core aborts run on the caller's stack there).
		//lint:allow goroleak fire-and-forget victim notification; callee owns its lifetime
		go m.opts.OnVictim(victim)
	}
}

// CancelWaits wakes every pending request of tid with ErrCancelled; the
// abort path calls it before releasing locks.
func (m *Manager) CancelWaits(tid xid.TID) {
	m.flagWaits(tid, false)
}

// flagWaits marks every parked request of tid as deadlock victim or as
// cancelled and wakes it, one shard at a time. It goes from the oids in the
// transaction's wait set to whatever OD each names now and the requests on
// its pending queue, under each shard latch, so it never holds an OD or an
// LRD outside the latch that guards it: a waiter that left in the meantime
// is simply not found. Called with no latches held.
func (m *Manager) flagWaits(tid xid.TID, victim bool) {
	for _, oid := range m.waitObjects(tid) {
		s := m.shardOf(oid)
		s.lat.Lock()
		if od := s.lookup(oid); od != nil {
			for _, p := range od.pending {
				if p.tid != tid {
					continue
				}
				if victim {
					p.wait.victim = true
				} else {
					p.wait.cancelled = true
				}
			}
			od.wake()
		}
		s.lat.Unlock()
	}
}

// Holds reports whether tid currently holds an unsuspended lock covering
// mode on oid.
func (m *Manager) Holds(tid xid.TID, oid xid.OID, mode xid.OpSet) bool {
	s := m.shardOf(oid)
	s.lat.Lock()
	defer s.lat.Unlock()
	i, ok := s.find(oid)
	if !ok {
		return false
	}
	e := &s.table[i]
	if e.od == nil {
		return e.tid == tid && e.mode.Has(mode)
	}
	gl := e.od.ownerReq(tid)
	return gl != nil && !gl.suspended && gl.mode.Has(mode)
}

// HeldObjects returns the objects tid holds locks on, in the order it
// acquired them.
func (m *Manager) HeldObjects(tid xid.TID) []xid.OID {
	ts := m.stateOf(tid)
	if ts == nil {
		return nil
	}
	ts.lat.Lock()
	defer ts.lat.Unlock()
	if !ts.is(tid) {
		return nil
	}
	return slices.Clone(ts.locks)
}

// ReleaseAll implements §4.2 commit step 6 / abort step 3: drop every lock
// tid holds and every permission given by or to tid, then wake waiters.
// Escrow reservations still indexed here are discarded — the abort half of
// reservation settlement; the commit path folds them into the ledger via
// EscrowCommit first, which clears the index. The transaction's state is
// retired under its latch (see txnState), then each affected shard is
// visited in turn — at most one shard latch held at a time — straight from
// the retired indexes, which nobody else may touch any more; then the
// emptied state is recycled. The lock list is walked in acquisition order.
// Each object's holder is found in the table under the shard latch: tid
// holds every object its list names, except while a delegation that moved
// the lock has yet to take the list entry out (it does so after its shard
// visits), and such an entry drops nothing.
func (m *Manager) ReleaseAll(tid xid.TID) {
	if ts := m.retire(tid); ts != nil {
		for oid := range ts.escrows {
			s := m.shardOf(oid)
			s.lat.Lock()
			if od := s.lookup(oid); od != nil && od.esc != nil {
				od.esc.settle(tid, false)
				od.wake()
			}
			s.lat.Unlock()
		}
		for _, oid := range ts.locks {
			s := m.shardOf(oid)
			s.lat.Lock()
			// The table decides, under the latch: a racing delegation may
			// have retagged the lock to another transaction, whose lock must
			// survive.
			if i, ok := s.find(oid); ok {
				if e := &s.table[i]; e.od == nil {
					if e.tid == tid {
						s.remove(i)
					}
				} else if gl := e.od.ownerReq(tid); gl != nil {
					od := e.od
					od.dropGranted(gl)
					od.wake()
					s.retireIfIdle(od)
				}
			}
			s.lat.Unlock()
		}
		releasePermits(ts.byGrantor)
		releasePermits(ts.byGrantee)
		m.recycle(ts)
	}
	m.wg.RemoveNode(tid)
}

// releasePermits drops the PDs of a retired state that are still live, and
// the index's reference on every one. A dead PD's od may have been retired
// and reused since: only home is read from it, and a PD found live under
// the latch is on its OD's list, which keeps that OD in its entry.
func releasePermits(pds []*permit) {
	for _, p := range pds {
		s := p.od.home
		s.lat.Lock()
		if !p.isDead() {
			od := p.od
			od.dropPermit(p)
			od.wake()
			s.retireIfIdle(od)
		}
		s.unrefPermit(p)
		s.lat.Unlock()
	}
}

// retire takes tid's live state out of service: dead under its latch, then
// unmapped. From the moment dead is set the caller owns the indexes.
// Returns nil when tid has no live state (nothing held, or a concurrent
// release got there first).
func (m *Manager) retire(tid xid.TID) *txnState {
	ts := m.stateOf(tid)
	if ts == nil {
		return nil
	}
	ts.lat.Lock()
	if !ts.is(tid) {
		ts.lat.Unlock()
		return nil
	}
	ts.dead = true
	ts.waits = ts.waits[:0]
	ts.lat.Unlock()
	m.txns.Delete(uint64(tid))
	return ts
}

// recycle empties a retired state whose indexes have been walked and puts
// it on the free list. The tid is cleared under the latch: a holder of a
// stale pointer reads it there.
func (m *Manager) recycle(ts *txnState) {
	ts.lat.Lock()
	ts.tid = xid.NilTID
	ts.locks = keptLocks(ts.locks)
	ts.escrows = emptied(ts.escrows)
	clear(ts.byGrantor)
	ts.byGrantor = ts.byGrantor[:0]
	clear(ts.byGrantee)
	ts.byGrantee = ts.byGrantee[:0]
	ts.lat.Unlock()
	m.free.Push(ts, maxFreeTxns)
}

// keptLocks empties a retired state's lock list for the state's next
// transaction. A list that grew past maxKeptIndex is kept only while the
// transaction that just used it needed it: a run of bulk transactions
// reuses one array instead of regrowing it from nothing every time, and
// the first transaction within maxKeptIndex lets it go, so at most the
// states of bulk transactions that ran at once hold one each.
func keptLocks(locks []xid.OID) []xid.OID {
	if cap(locks) > maxKeptIndex && len(locks) <= maxKeptIndex {
		return nil
	}
	clear(locks)
	return locks[:0]
}

// emptied clears an index map for reuse, or drops one that grew large.
func emptied(idx map[xid.OID]struct{}) map[xid.OID]struct{} {
	if len(idx) > maxKeptIndex {
		return nil
	}
	clear(idx)
	return idx
}
