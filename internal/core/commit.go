package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dep"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Commit commits transaction id, implementing §4.2's commit algorithm. It
// blocks until the transaction's code has completed, then resolves
// dependencies: outgoing CD/AD edges block until the supporting transaction
// terminates (an aborted AD supporter aborts this transaction); GC edges
// gather the whole group, every member of which is driven to completion and
// committed atomically under a single commit record. Commit returns nil on
// success (the paper's 1) and ErrAborted if the transaction aborts instead
// (the paper's 0).
func (m *Manager) Commit(id xid.TID) error {
	return m.CommitCtx(context.Background(), id)
}

// CommitCtx is Commit bounded by a context: if ctx expires while the
// driver is blocked — on the body's completion or on a CD/AD/GC dependency
// obstacle — the transaction is aborted (its group with it) and CommitCtx
// returns the abort reason. Once the group passes the commit point
// (commit record appended) the context is ignored; the commit's outcome is
// reported as usual.
func (m *Manager) CommitCtx(ctx context.Context, id xid.TID) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	m.mu.Lock()
	t, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if done != nil && ctx.Err() != nil {
		// Dead on arrival: a cancelled caller must not push the group past
		// the commit point.
		m.ctxAbortLocked(t, ctx)
		done = nil
	}
	// The group lives in this driver's frame, not in manager-owned scratch:
	// the driver keeps using it after commitGroupLocked has released the
	// mutex around the log force, when another driver may be examining a
	// group of its own.
	var groupBuf [4]*txn
	for {
		switch t.st() {
		case xid.StatusCommitted:
			m.mu.Unlock()
			return nil
		case xid.StatusAborted, xid.StatusAborting:
			err := t.abErr
			m.mu.Unlock()
			if err == nil {
				err = ErrAborted
			}
			return err
		case xid.StatusInitiated:
			m.mu.Unlock()
			return ErrNotBegun
		case xid.StatusPrepared:
			// The transaction voted in a distributed commit; only the
			// coordinator's verdict (Decide) may terminate it.
			m.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrPrepared, id)
		case xid.StatusRunning:
			// commit blocks until execution completes (§2.1).
			ch := t.doneCh()
			m.mu.Unlock()
			select {
			case <-ch:
			case <-done:
				m.mu.Lock()
				m.ctxAbortLocked(t, ctx)
				m.mu.Unlock()
				done = nil
			}
			m.mu.Lock()
			continue
		}

		// t is completed (or committing under another driver). Drive its
		// whole GC group.
		group, waitFor := m.examineGroupLocked(t, groupBuf[:0])
		if group == nil {
			// The group aborted underneath us.
			continue
		}
		if waitFor.waitCh != nil {
			// Block until the obstacle resolves, watching for our own
			// abort. Register waits-for edges so cross-mechanism deadlocks
			// are caught.
			var victim xid.TID
			for _, member := range group {
				if member.id != waitFor.id {
					if v, _ := m.waits.Add(member.id, waitFor.id); !v.IsNil() {
						victim = v
					}
				}
			}
			if !victim.IsNil() {
				if vt, ok := m.txns.Get(uint64(victim)); ok {
					m.abortLocked(vt, fmt.Errorf("%w: commit-wait deadlock victim: %w", ErrAborted, ErrDeadlock))
				}
			}
			waitCh := waitFor.waitCh
			myAbort := t.abortCh()
			m.mu.Unlock()
			select {
			case <-waitCh:
			case <-myAbort:
			case <-done:
				m.mu.Lock()
				m.ctxAbortLocked(t, ctx)
				m.mu.Unlock()
				done = nil
			}
			m.mu.Lock()
			for _, member := range group {
				if member.id != waitFor.id {
					m.waits.Remove(member.id, waitFor.id)
				}
			}
			continue
		}

		// No obstacles: commit the group atomically. The outcome is read
		// from the transaction status on the next loop pass rather than
		// assumed: a failed commit-record append or log force aborts the
		// group, and the caller must see that failure — returning nil here
		// would acknowledge a commit whose record may never have reached
		// the disk.
		m.commitGroupLocked(group)
	}
}

// obstacle names what a commit driver must wait for: a transaction's
// completion or termination. The zero value (nil waitCh) means nothing
// stands in the way.
type obstacle struct {
	id     xid.TID
	waitCh <-chan struct{}
}

// examineGroupLocked inspects t's GC component, gathering its members into
// group (a buffer the caller owns; its contents are overwritten). It returns
// the group and a zero obstacle when every member is completed and free of
// blocking dependencies, the group and an obstacle when the driver must
// wait, and a nil group when the group aborted (t included). The component
// and the edges it walks are read through buffers in its own frame, so an
// ungrouped transaction with no dependencies is examined without touching
// the heap. Caller holds m.mu.
//
//asset:noalloc
func (m *Manager) examineGroupLocked(t *txn, group []*txn) ([]*txn, obstacle) {
	var compBuf [4]xid.TID
	var edgeBuf [4]dep.Edge
	comp := m.deps.AppendGCComponent(compBuf[:0], t.id)
	for _, mid := range comp {
		member, ok := m.txns.Get(uint64(mid))
		if !ok {
			continue // reaped: cannot happen for live groups
		}
		group = append(group, member)
	}
	// An aborted member dooms the group.
	for _, member := range group {
		if member.st() == xid.StatusAborting || member.st() == xid.StatusAborted {
			m.abortGroupLocked(group, errMemberAborted(member.id))
			return nil, obstacle{}
		}
	}
	// Every member must have completed execution. (An initiated member
	// blocks the commit until someone begins it, per the paper's blocking
	// commit; its done channel covers both.) A member already in the
	// committing state is being driven by another commit — with batched
	// commits the driver may be off the mutex forcing the log — so this
	// driver waits for that outcome instead of double-committing.
	for _, member := range group {
		switch member.st() {
		case xid.StatusInitiated, xid.StatusRunning:
			return group, obstacle{id: member.id, waitCh: member.doneCh()}
		case xid.StatusCommitting, xid.StatusPrepared:
			// Prepared is "committing with the verdict pending": the local
			// driver waits for the coordinator's decision like it waits for
			// a batched flush.
			return group, obstacle{id: member.id, waitCh: member.termCh()}
		}
	}
	// Exclusion: a group containing a transaction whose EXC partner is
	// already committing (or committed) must lose — this check runs under
	// the manager mutex, so of two racing EXC partners exactly one passes
	// even when batched commits force the log off the mutex.
	for _, member := range group {
		for _, e := range m.deps.AppendOutgoing(edgeBuf[:0], member.id) {
			if !e.Types.Has(xid.DepEXC) {
				continue
			}
			if p, ok := m.txns.Get(uint64(e.Other)); ok &&
				(p.st() == xid.StatusCommitting || p.st() == xid.StatusCommitted ||
					p.st() == xid.StatusPrepared) {
				// A prepared partner counts as committing: it promised a
				// coordinator it can commit, so it must win the exclusion.
				m.abortGroupLocked(group, errExcludedBy(p.id))
				return nil, obstacle{}
			}
		}
	}
	// Blocking dependencies to transactions outside the group must be
	// resolved by the supporter's termination (commit steps 2a/2b).
	for _, member := range group {
		for _, e := range m.deps.AppendOutgoing(edgeBuf[:0], member.id) {
			// Only CD/AD delay a commit; BD/BAD gate begin (already
			// satisfied once the member ran) and EXC never waits.
			if !e.Types.CommitBlocking() || inGroupOf(group, e.Other) {
				continue
			}
			sup, ok := m.txns.Get(uint64(e.Other))
			if !ok || sup.st().Terminated() {
				// Terminated supporters leave no edges (RemoveNode), but be
				// defensive: a committed supporter satisfies everything; an
				// aborted one with an AD would have aborted us already.
				continue
			}
			return group, obstacle{id: sup.id, waitCh: sup.termCh()}
		}
	}
	return group, obstacle{}
}

// inGroupOf reports whether id is a member of group. Groups are a handful
// of transactions; a scan beats building a set per examination.
func inGroupOf(group []*txn, id xid.TID) bool {
	for _, member := range group {
		if member.id == id {
			return true
		}
	}
	return false
}

// abortGroupLocked aborts every member of group for one reason. Caller
// holds m.mu.
func (m *Manager) abortGroupLocked(group []*txn, reason error) {
	for _, member := range group {
		m.abortLocked(member, reason)
	}
}

// The abort reasons of the group paths, built off the //asset:noalloc
// functions that use them.

//go:noinline
func errMemberAborted(id xid.TID) error {
	return fmt.Errorf("%w: group member %v aborted", ErrAborted, id)
}

//go:noinline
func errExcludedBy(id xid.TID) error {
	return fmt.Errorf("%w: excluded by committing partner %v", ErrAborted, id)
}

//go:noinline
func errCommitLog(step string, err error) error {
	return fmt.Errorf("core: commit %s failed: %w", step, err)
}

//go:noinline
func errExcludedByCommitted() error {
	return fmt.Errorf("%w: excluded by a committed partner", ErrAborted)
}

// commitGroupLocked performs the final commit of a ready group: one commit
// record, durable flush, then lock release and dependency cleanup for every
// member. Caller holds m.mu.
//
// The release calls below are the commit's visibility point; the durable
// flush must dominate them on every path (decide-before-release, §11).
//
//asset:durable before=ReleaseAll,EscrowCommit
//asset:noalloc
func (m *Manager) commitGroupLocked(group []*txn) {
	// Commit record for the whole group; one log force covers all members
	// (this is what experiment E6 measures).
	if _, err := m.appendLocked(wal.Record{Type: wal.TCommit, TIDs: m.committingLocked(group)}); err != nil {
		m.abortGroupLocked(group, errCommitLog("record append", err))
		return
	}
	var flushErr error
	if m.cfg.BatchedCommits || m.cfg.GroupCommit {
		// Group commit, either flavour: release the manager mutex around
		// the physical force so concurrent committers share one fsync —
		// via the Coalescer's flush gate (BatchedCommits) or the
		// segmented log's leader/cohort batch protocol (GroupCommit).
		// The members sit in the committing state meanwhile; every other
		// path treats committing as untouchable (Abort waits on term,
		// drivers wait via examineGroupLocked, FormDependency rejects).
		m.mu.Unlock()
		flushErr = m.log.Flush()
		m.mu.Lock()
	} else {
		flushErr = m.log.Flush()
	}
	if flushErr != nil {
		m.abortGroupLocked(group, errCommitLog("flush", flushErr))
		return
	}
	m.stats.logForces.Add(1)
	m.stats.groupSize.Add(uint64(len(group)))
	var abortBuf [4]*txn
	forcedAborts := m.forcedAbortsLocked(group, abortBuf[:0])
	for _, member := range group {
		// The member's committed updates change durable state relative to
		// the last checkpoint.
		for _, u := range member.undo {
			if u.kind == wal.KindDelete {
				m.markDirtyLocked(u.oid, dirtyDelete)
			} else {
				m.markDirtyLocked(u.oid, dirtyUpsert)
			}
		}
		member.undo = nil
		member.setSt(xid.StatusCommitted)
		m.deps.RemoveNode(member.id)
		// Fold the member's escrow reservations into their ledgers before
		// the locks drop: a waiter admitted by the freed headroom must see
		// the committed value the fold produces.
		m.locks.EscrowCommit(member.id)
		m.locks.ReleaseAll(member.id)
		m.waits.RemoveNode(member.id)
		m.releaseSlot(member)
		m.live.Add(-1)
		m.stats.commits.Add(1)
		member.closeDone()
		member.closeTerm()
		if m.cfg.ReapTerminated {
			m.txns.Delete(uint64(member.id))
		}
	}
	if len(forcedAborts) > 0 {
		m.abortGroupLocked(forcedAborts, errExcludedByCommitted())
	}
	m.cond.Broadcast()
}

// committingLocked turns every member of group committing and returns their
// tids for the commit record, in the manager's tid scratch: valid until the
// next call, which the append that follows precedes. Caller holds m.mu.
func (m *Manager) committingLocked(group []*txn) []xid.TID {
	m.tidBuf = m.tidBuf[:0]
	for _, member := range group {
		m.tidBuf = append(m.tidBuf, member.id)
		member.setSt(xid.StatusCommitting)
	}
	return m.tidBuf
}

// forcedAbortsLocked collects, into buf, the dependents a commit of group
// dooms: begin-on-abort transactions (their trigger can no longer fire) and
// exclusion partners (at most one side commits). Called before the edges
// disappear with RemoveNode. Caller holds m.mu.
func (m *Manager) forcedAbortsLocked(group, buf []*txn) []*txn {
	var edgeBuf [4]dep.Edge
	for _, member := range group {
		for _, e := range m.deps.AppendIncoming(edgeBuf[:0], member.id) {
			if e.Types.Has(xid.DepBAD) || e.Types.Has(xid.DepEXC) {
				if dependent, ok := m.txns.Get(uint64(e.Other)); ok {
					buf = append(buf, dependent)
				}
			}
		}
	}
	return buf
}

// Abort aborts transaction id, implementing §4.2's abort algorithm: install
// before images for every update the transaction is responsible for,
// release its locks, abort dependents connected by AD/GC (and BD) edges,
// and drop CD edges. It returns nil if the abort succeeds or the
// transaction was already aborted, and ErrAlreadyCommitted if it committed
// first (the paper's 0).
func (m *Manager) Abort(id xid.TID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, err := m.lookup(id)
	if err != nil {
		return err
	}
	for t.st() == xid.StatusCommitting {
		// The transaction is past its commit record (a batched-commit
		// driver may be forcing the log); wait for the outcome rather than
		// yanking a half-committed group.
		term := t.termCh()
		m.mu.Unlock()
		<-term
		m.mu.Lock()
	}
	switch t.st() {
	case xid.StatusCommitted:
		return ErrAlreadyCommitted
	case xid.StatusAborted:
		return nil
	case xid.StatusPrepared:
		// No unilateral abort once the yes vote is out; the coordinator's
		// verdict (Decide) is the only terminator.
		return fmt.Errorf("%w: %v", ErrPrepared, id)
	}
	m.abortLocked(t, fmt.Errorf("%w: explicit abort", ErrAborted))
	return nil
}

// abortReason normalizes an abort cause so it always matches
// errors.Is(err, ErrAborted) while preserving the original error (and in
// particular ErrDeadlock identity, which retry loops dispatch on).
func abortReason(err error) error {
	if err == nil || errors.Is(err, ErrAborted) {
		return err
	}
	return errors.Join(ErrAborted, err)
}

// AbortReason returns why the transaction aborted, or nil if it has not
// aborted (or was reaped).
func (m *Manager) AbortReason(id xid.TID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.txns.Get(uint64(id)); ok {
		return t.abErr
	}
	return nil
}

// abortTxn is the internal abort entry point (function failure, panic,
// dependency propagation from outside the mutex).
func (m *Manager) abortTxn(t *txn, reason error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abortLocked(t, reason)
}

// abortLocked aborts t and, transitively, every dependent that must abort
// with it (AD, GC, and BD edges). It runs in three phases so that undo is
// correct even when cascade members wrote the same objects through permits:
// (1) mark the whole cascade set aborting and cancel its lock waits, (2)
// install every member's before images in one pass, in reverse global LSN
// order, logging each installation, (3) release locks, drop dependencies,
// and finalize statuses. Caller holds m.mu.
//
// A prepared transaction is exempt: its fate belongs to the coordinator,
// so every unilateral path — watchdog, context expiry, lease teardown,
// Close, cascades reaching it — is a silent no-op here. Only the verdict
// path (Decide, failPrepareLocked) passes includePrepared.
func (m *Manager) abortLocked(t *txn, reason error) {
	m.abortCascadeLocked(t, reason, false)
}

func (m *Manager) abortCascadeLocked(t *txn, reason error, includePrepared bool) {
	if t.st() == xid.StatusPrepared && !includePrepared {
		return
	}
	// Abort-cause accounting happens here so every path — lock-wait
	// victims, commit-wait victims, the OnVictim callback, the watchdog,
	// context watchers — is counted exactly once (per cascade root).
	if !t.st().Terminated() && t.st() != xid.StatusAborting {
		switch {
		case errors.Is(reason, ErrDeadlock):
			m.stats.deadlocks.Add(1)
		case errors.Is(reason, ErrTxnDeadline):
			m.stats.reaped.Add(1)
		case errors.Is(reason, context.DeadlineExceeded):
			m.stats.expired.Add(1)
		case errors.Is(reason, context.Canceled):
			m.stats.cancelled.Add(1)
		}
	}
	// Phase 1: close the cascade set over AD/GC/BD incoming edges.
	var edgeBuf [4]dep.Edge
	var set []*txn
	work := []*txn{t}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		if u.st().Terminated() || u.st() == xid.StatusAborting ||
			(u.st() == xid.StatusPrepared && !includePrepared) {
			continue
		}
		// abErr strictly before the status store: lock-free readers that
		// observe the aborting status must also observe the reason.
		u.abErr = reason
		u.setSt(xid.StatusAborting)
		u.closeAbort()
		// Doom before cancelling waits: a dying transaction attracts no
		// wait-graph edges, so detectors racing this teardown cannot select
		// a second victim for a cycle the abort is already breaking.
		m.waits.Doom(u.id)
		m.locks.CancelWaits(u.id)
		set = append(set, u)
		for _, e := range m.deps.AppendIncoming(edgeBuf[:0], u.id) {
			if e.Types.Has(xid.DepAD) || e.Types.Has(xid.DepGC) || e.Types.Has(xid.DepBD) {
				if dep, ok := m.txns.Get(uint64(e.Other)); ok {
					work = append(work, dep)
				}
			}
		}
	}
	if len(set) == 0 {
		return
	}
	// Phase 2: undo all updates of the set in reverse global order. Per the
	// paper's caveat, later updates by permitted cooperating transactions —
	// inside or outside the set — are overwritten too; each installation is
	// logged so recovery reproduces exactly this state.
	var undos []struct {
		tid xid.TID
		rec undoRec
	}
	for _, u := range set {
		for _, rec := range u.undo {
			undos = append(undos, struct {
				tid xid.TID
				rec undoRec
			}{u.id, rec})
		}
		u.undo = nil
		// An aborted in-doubt member's withheld images simply vanish; there
		// is nothing in the cache to roll back.
		u.redo = nil
	}
	sort.Slice(undos, func(i, j int) bool { return undos[i].rec.lsn > undos[j].rec.lsn })
	for _, ur := range undos {
		rec := ur.rec
		switch rec.kind {
		case wal.KindDelta:
			// Logical undo: add the negated delta, leaving concurrent
			// committed increments intact.
			m.appendLocked(wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindDelta, After: m.deltaImage(-rec.delta)})
			if obj := m.cache.Object(rec.oid); obj != nil {
				obj.Lat.Lock()
				addInPlace(obj, -rec.delta)
				obj.Lat.Unlock()
				m.markDirtyLocked(rec.oid, dirtyUpsert)
			}
		case wal.KindCreate:
			m.appendLocked(wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindDelete})
			m.cache.Delete(rec.oid)
			m.markDirtyLocked(rec.oid, dirtyDelete)
			// The object never existed; any escrow bounds declared for it
			// (a rolled-back bounded-counter creation) go with it.
			m.locks.DropEscrow(rec.oid)
		case wal.KindDelete:
			m.appendLocked(wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindCreate, After: rec.before})
			m.cache.Install(rec.oid, rec.before)
			m.markDirtyLocked(rec.oid, dirtyUpsert)
		default: // modify
			m.appendLocked(wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindModify, After: rec.before})
			m.cache.Install(rec.oid, rec.before)
			m.markDirtyLocked(rec.oid, dirtyUpsert)
		}
	}
	// Phase 3: cleanup and final statuses.
	for _, u := range set {
		m.appendLocked(wal.Record{Type: wal.TAbort, TID: u.id})
		m.deps.RemoveNode(u.id)
		m.locks.ReleaseAll(u.id)
		m.waits.RemoveNode(u.id)
		m.releaseSlot(u)
		u.setSt(xid.StatusAborted)
		m.live.Add(-1)
		m.stats.aborts.Add(1)
		u.closeDone()
		u.closeTerm()
		if m.cfg.ReapTerminated {
			m.txns.Delete(uint64(u.id))
		}
	}
	m.cond.Broadcast()
}
