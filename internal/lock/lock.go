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
// owning its ODs' LRD/PD chains under one short-term latch, the way §4.1
// latches the OD hash chains in EOS. Lock traffic on objects in different
// shards never serializes. Transaction-side state (LRD index, wait set,
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
	"time"

	"repro/internal/htab"
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
	// ErrTimeout is returned when a request waited longer than the
	// configured WaitTimeout (the fallback resolution when deadlock
	// detection is disabled).
	ErrTimeout = errors.New("lock: wait timed out")
	// ErrContext is returned by LockCtx when the request's context was
	// cancelled or its deadline expired; the returned error wraps the
	// context's cancellation cause (context.Cause), so errors.Is against
	// context.Canceled, context.DeadlineExceeded, or a caller-supplied
	// cause (e.g. a session's lease expiry) classifies the abandonment.
	// Per-request deadlines travel in the context, superseding the single
	// global WaitTimeout for callers that use them.
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
type lockReq struct {
	tid       xid.TID
	od        *objDesc
	mode      xid.OpSet
	status    reqStatus
	suspended bool  // granted lock suspended by a permitted conflicting grant
	cancelled bool  // waiter was aborted; it must give up
	victim    bool  // waiter was chosen as deadlock victim
	timedOut  bool  // waiter exceeded Options.WaitTimeout
	ctxErr    error // waiter's context was cancelled or expired
	escrow    bool  // request carries an escrow reservation of delta
	delta     int64 // reserved delta (meaningful when escrow)
	escNever  bool  // escrow test concluded the reservation can never be admitted

	next *lockReq // free-list link; nil while the LRD is in use
}

// objDesc is the object descriptor (OD) of Figure 1: granted and pending
// LRD lists and the object's permit list, guarded by the home shard's latch
// (home itself never changes: an OD is recycled only within its shard). An OD
// is mapped in its shard exactly while one of its lists is non-empty or an
// escrow ledger is declared on it; lockShard.retireIfIdle unmaps and recycles
// it otherwise, so a pointer kept across an unlatched window is believed only
// after is(oid) has confirmed it under the latch.
type objDesc struct {
	oid     xid.OID
	home    *lockShard
	next    *objDesc // bucket chain while mapped, free list while retired
	mapped  bool
	granted []*lockReq
	pending []*lockReq // FIFO
	permits []*permit
	esc     *escrowState // bounded escrow ledger; nil when not declared
	cond    sync.Cond    // on the shard latch; signalled on release/suspension change
	// grantedBuf backs granted until a second holder arrives: most objects
	// never have one.
	grantedBuf [1]*lockReq
}

// permit is the permit descriptor (PD): grantor allows grantee (NilTID =
// any transaction) to perform ops on the object even when they conflict with
// grantor's locks. ops is guarded by the shard latch; dead is atomic because
// transaction-side index scans (accessible, invariant checks) read it under
// a txnState latch while shard-side code flips it under the shard latch.
type permit struct {
	od      *objDesc
	oid     xid.OID // od's oid for the PD's whole life; readable without the shard latch
	grantor xid.TID
	grantee xid.TID // NilTID = any transaction
	ops     xid.OpSet
	dead    atomic.Bool // lazily removed from secondary indexes
}

func (p *permit) isDead() bool { return p.dead.Load() }

// is reports whether od is the descriptor mapped under oid, i.e. still the
// one its holder knew by that oid. Caller holds od.home.lat.
func (od *objDesc) is(oid xid.OID) bool { return od.mapped && od.oid == oid }

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
	// NoQueueFairness disables FIFO ordering of pending requests (a request
	// is granted as soon as it is compatible with the granted group). Used
	// by ablation benchmarks.
	NoQueueFairness bool
	// EagerClosure controls permit transitivity. When true (the default
	// used by New), implied permits are materialized at insertion. When
	// false they are discovered by walking grantor chains at lock time
	// (ablation A2).
	EagerClosure bool
	// WaitTimeout bounds how long a request may block; 0 means forever.
	// Timeouts are the deadlock resolution of last resort when detection
	// is disabled (and a belt-and-braces bound when it is not).
	WaitTimeout time.Duration
	// NoDetection disables deadlock victim selection entirely (ablation
	// A4): wait-for edges are still recorded for diagnostics, but cycles
	// go unnoticed and blocked requests wait until granted, cancelled, or
	// timed out. Combine with WaitTimeout, or deadlocks wait forever.
	NoDetection bool
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
	free      txnFreeList
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
		m.shards[i].buckets = make([]*objDesc, minBuckets)
	}
	return m
}

// NumShards returns the configured shard count (after power-of-two
// rounding). Tests and benchmarks use it to label configurations.
func (m *Manager) NumShards() int { return len(m.shards) }

// Lock acquires (or upgrades to) the given mode on oid for tid, blocking
// until granted. It returns ErrDeadlock if the request was chosen as a
// deadlock victim and ErrCancelled if the transaction was aborted while
// waiting.
func (m *Manager) Lock(tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	return m.LockCtx(context.Background(), tid, oid, mode)
}

// LockCtx is Lock with a caller-supplied context: a cancelled or
// deadline-expired context wakes the waiter parked on the object's cond and
// returns ErrContext (wrapping the context error), with the pending request
// removed and its wait-graph edges cleared — the lock table is left exactly
// as if the request had never been made. Context deadlines are the
// per-request replacement for the single global Options.WaitTimeout, which
// still applies as a backstop when both are configured. A background (or
// never-cancellable) context adds no overhead over Lock.
func (m *Manager) LockCtx(ctx context.Context, tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	return m.acquire(ctx, tid, oid, mode, 0, false)
}

// acquire is the shared body of LockCtx and EscrowReserveCtx. An escrow
// request additionally runs the bounds-admission test at grant time and
// records its reservation atomically with the grant; it can fail with
// ErrEscrow when the test proves the reservation can never be admitted.
//
// The first pass evaluates the request from a descriptor on the stack: a
// request that is granted without waiting — every uncontended lock — never
// has a pending LRD, a wait registration, a timer or a ctx watcher, and
// costs at most the one granted LRD installGrant takes off the shard's free
// list. Only a request that has to wait goes through park.
//
//asset:noalloc
func (m *Manager) acquire(ctx context.Context, tid xid.TID, oid xid.OID, mode xid.OpSet, delta int64, escrow bool) error {
	if mode == 0 {
		return errEmptyMode(oid)
	}
	if ctx.Err() != nil {
		return errCtxDead(ctx)
	}
	ts := m.txnOf(tid)
	s := m.shardOf(oid)
	s.lat.Lock()
	od := s.od(oid)

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
	blockers, permitted := m.tryGrant(&probe)
	if len(blockers) > 0 {
		// Nothing of this request is on od yet, so once the latch is gone od
		// may be retired and handed to another oid: park is given the oid and
		// resolves the descriptor again.
		s.lat.Unlock()
		return m.park(ctx, ts, s, oid, probe)
	}
	var err error
	if probe.escNever {
		err = ErrEscrow
	} else {
		err = m.grant(ts, &probe, permitted)
	}
	if err != nil {
		s.retireIfIdle(od) // nothing was installed; od may have been mapped for this request alone
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
		req.od.cond.Broadcast() // suspension may unblock re-checkers
	}
	return nil
}

// park is acquire's slow path: the request had blockers on its first pass.
// It enqueues a pending LRD, registers it with the transaction so
// cancel/victim marking can find it without a table scan, and waits on the
// object's cond until the request is granted or given up — which may be at
// once, the table having moved on since acquire let go of the shard latch.
// The timeout timer and the ctx watcher are armed only here, just before
// the first Wait. The OD acquire evaluated the probe on is not trusted: it
// is looked up again by oid, and mapped again if it was retired in between.
// From the enqueue to leave the pending LRD keeps it mapped. Called with no
// latches held.
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
	*req = probe
	od.pending = append(od.pending, req)
	ts.registerWait(tid, oid)

	// Both wake-up sources flag req under the shard latch. Either may fire
	// after the request is already resolved (the stop and the firing race);
	// leave accounts for that before it lets req be recycled. Neither can
	// fire unseen before a Wait: it needs the shard latch, which this
	// goroutine holds until Wait releases it.
	var timer *time.Timer
	var stopWatch func() bool

	// Wait-for edges registered for the current blocker set. Always cleared
	// while the shard latch is still held, so an observer holding every
	// shard latch sees edges if and only if the pending request is present.
	var waitedOn []xid.TID
	clearEdges := func() {
		for _, h := range waitedOn {
			m.wg.Remove(tid, h)
		}
		waitedOn = nil
	}
	// leave takes the request off the queue, under the shard latch. The
	// LRD goes back on the free list only if no wake-up callback can still
	// be on its way to flag it: a callback that already started is blocked
	// on this latch holding the pointer, so that LRD is left to the
	// collector instead.
	leave := func() {
		m.removePending(od, req)
		ts.unregisterWait(tid, oid)
		clearEdges()
		quiet := true
		if timer != nil && !timer.Stop() {
			quiet = false
		}
		if stopWatch != nil && !stopWatch() {
			quiet = false
		}
		if quiet {
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

	var lastKilled xid.TID
	for {
		blockers, permitted := m.tryGrant(req)
		if req.cancelled {
			return exit(ErrCancelled)
		}
		if req.victim {
			return exit(ErrDeadlock)
		}
		if req.ctxErr != nil {
			// Context death abandons the request even when it became
			// grantable in the same wake-up: the caller is tearing the
			// transaction down and must not pick up new grants.
			return exit(fmt.Errorf("%w: %w", ErrContext, req.ctxErr))
		}
		if req.timedOut && len(blockers) > 0 {
			return exit(ErrTimeout)
		}
		if req.escNever {
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
		waitedOn = append(waitedOn, blockers...)
		if !m.opts.NoDetection && !victim.IsNil() {
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
		if timer == nil && m.opts.WaitTimeout > 0 {
			timer = time.AfterFunc(m.opts.WaitTimeout, func() {
				s.lat.Lock()
				req.timedOut = true
				od.cond.Broadcast()
				s.lat.Unlock()
			})
		}
		if stopWatch == nil && ctx.Done() != nil {
			stopWatch = context.AfterFunc(ctx, func() {
				s.lat.Lock()
				// Cause, not Err: a session teardown cancelling the request
				// carries its reason (e.g. lease expiry) as the cause, and
				// that reason must survive into the returned error.
				req.ctxErr = context.Cause(ctx)
				od.cond.Broadcast()
				s.lat.Unlock()
			})
		}
		od.cond.Wait()
	}
}

// tryGrant evaluates §4.2 steps 1a/1b for req. It returns the transactions
// that block the request (empty means grantable) and the conflicting
// granted locks whose holders permit the requester (to be suspended on
// grant). The requester's own granted LRD, if any, is recognized by tid on
// the OD chain — never by a caller-held pointer, which delegation can
// stale. Caller holds the shard latch.
func (m *Manager) tryGrant(req *lockReq) (blockers []xid.TID, permitted []*lockReq) {
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
	if !m.opts.NoQueueFairness && req.status != statusUpgrading {
		for _, p := range od.pending {
			if p == req {
				break
			}
			if p.tid != req.tid && p.mode.Conflicts(req.mode) &&
				!p.victim && !p.cancelled && !p.timedOut && p.ctxErr == nil {
				blockers = append(blockers, p.tid)
			}
		}
	}
	if len(blockers) > 0 {
		return blockers, nil
	}
	// Mode-compatible escrow request: run the bounds-admission test. A
	// failing test blocks on the other reservation holders — any of their
	// terminations (commit of a helpful delta, abort of a competing one)
	// frees headroom and broadcasts the cond — unless no resolution of
	// theirs could ever admit the delta, which fails fast via escNever.
	if req.escrow && od.esc != nil {
		ok, never, holders := od.esc.admit(req.tid, req.delta)
		if !ok {
			if never {
				req.escNever = true
				return nil, nil
			}
			return holders, nil
		}
	}
	return nil, permitted
}

// installGrant merges the granted mode into the requester's LRD on the OD
// chain (taking one off the shard's free list if needed) and clears any
// suspension (§4.2 step 2). An escrow grant also records its reservation in
// the OD's ledger and the transaction's reservation index under the same
// txnState-latch hold, so a concurrent ReleaseAll either finds both the
// grant and the reservation or neither. It reports false — installing
// nothing — if ts is no longer tid's state (a concurrent ReleaseAll retired
// it), in which case a new grant would leak. Caller holds the shard latch.
//
//asset:noalloc
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
		gl := od.home.newReq()
		gl.tid, gl.od, gl.mode, gl.status = tid, od, mode, statusGranted
		od.granted = append(od.granted, gl)
		ts.locks[od.oid] = od
	}
	if reserve {
		od.esc.reserve(tid, delta)
		ts.indexEscrow(od)
	}
	ts.lat.Unlock()
	return true
}

// indexEscrow records od in the reservation index, which most transactions
// never need and so make on first use. Caller holds ts.lat.
//
//go:noinline
func (ts *txnState) indexEscrow(od *objDesc) {
	if ts.escrows == nil {
		ts.escrows = make(map[xid.OID]*objDesc)
	}
	ts.escrows[od.oid] = od
}

// removePending drops req from its OD's pending queue (by identity) and
// wakes later waiters, whose queue position improved. Caller holds the
// shard latch.
func (m *Manager) removePending(od *objDesc, req *lockReq) {
	if i := slices.Index(od.pending, req); i >= 0 {
		od.pending = slices.Delete(od.pending, i, i+1) // clears the vacated slot
	}
	od.cond.Broadcast()
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
					p.victim = true
				} else {
					p.cancelled = true
				}
			}
			od.cond.Broadcast()
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
	od := s.lookup(oid)
	if od == nil {
		return false
	}
	gl := od.ownerReq(tid)
	return gl != nil && !gl.suspended && gl.mode.Has(mode)
}

// HeldObjects returns the objects tid holds locks on, in unspecified order.
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
	out := make([]xid.OID, 0, len(ts.locks))
	for oid := range ts.locks {
		out = append(out, oid)
	}
	return out
}

// ReleaseAll implements §4.2 commit step 6 / abort step 3: drop every lock
// tid holds and every permission given by or to tid, then wake waiters.
// Escrow reservations still indexed here are discarded — the abort half of
// reservation settlement; the commit path folds them into the ledger via
// EscrowCommit first, which clears the index. The transaction's state is
// retired under its latch (see txnState), then each affected shard is
// visited in turn — at most one shard latch held at a time — straight from
// the retired indexes, which nobody else may touch any more; then the
// emptied state is recycled. The indexes are kept in step with the chains,
// so an entry's OD should still carry tid's lock and hence be mapped under
// the entry's oid; the walk confirms is(oid) under the shard latch all the
// same, rather than rest the safety of a recycled descriptor on an argument
// that spans two structures.
//
//asset:noalloc
func (m *Manager) ReleaseAll(tid xid.TID) {
	if ts := m.retire(tid); ts != nil {
		for oid, od := range ts.escrows {
			s := od.home
			s.lat.Lock()
			if od.is(oid) && od.esc != nil {
				od.esc.settle(tid, false)
				od.cond.Broadcast()
			}
			s.lat.Unlock()
		}
		for oid, od := range ts.locks {
			s := od.home
			s.lat.Lock()
			// The chain decides, under the latch: a racing delegation may
			// have retagged the LRD to another transaction, whose lock must
			// survive.
			if od.is(oid) {
				if gl := od.ownerReq(tid); gl != nil {
					od.dropGranted(gl)
					od.cond.Broadcast()
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

// releasePermits drops the PDs of a retired state that are still live. A
// dead PD's od may have been retired and reused since: only home is read from
// it, and a PD found live under the latch is on its OD's list, which keeps
// that OD mapped.
func releasePermits(pds []*permit) {
	for _, p := range pds {
		s := p.od.home
		s.lat.Lock()
		if !p.isDead() {
			p.od.dropPermit(p)
			p.od.cond.Broadcast()
			s.retireIfIdle(p.od)
		}
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
	ts.locks = emptied(ts.locks)
	ts.escrows = emptied(ts.escrows)
	clear(ts.byGrantor)
	ts.byGrantor = ts.byGrantor[:0]
	clear(ts.byGrantee)
	ts.byGrantee = ts.byGrantee[:0]
	ts.lat.Unlock()
	m.free.put(ts)
}

// emptied clears an index map for reuse, or drops one that grew large.
func emptied(idx map[xid.OID]*objDesc) map[xid.OID]*objDesc {
	if len(idx) > maxKeptIndex {
		return nil
	}
	clear(idx)
	return idx
}
