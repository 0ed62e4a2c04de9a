package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	t, o, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if t != nil {
		// The driver reads t's outcome after waits that release the mutex,
		// by which time t may have been reaped.
		t.pin()
		defer m.unpin(t)
		if done != nil && ctx.Err() != nil {
			// Dead on arrival: a cancelled caller must not push the group
			// past the commit point.
			m.ctxAbortLocked(t, ctx)
			done = nil
		}
	}
	// The group lives in this driver's frame, not in manager-owned scratch:
	// the driver keeps using it after commitLocked has released the mutex
	// around the log force, when another driver may be examining a group
	// of its own.
	var groupBuf [4]*txn
	root := [1]xid.TID{id}
	for {
		if t != nil {
			o = t.outcome()
		}
		switch o.st {
		case xid.StatusCommitted:
			m.mu.Unlock()
			return nil
		case xid.StatusAborted, xid.StatusAborting:
			m.mu.Unlock()
			return o.err()
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
			m.mu.Unlock()
			if m.await(t, &t.done, nil, nil, done) == 2 {
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
		group, waitFor, err := m.examineGroupLocked(root[:], groupBuf[:0], false)
		if err != nil {
			// The group aborted underneath us.
			continue
		}
		if waitFor.t != nil {
			// Block until the obstacle resolves, watching for our own abort.
			if m.awaitObstacleLocked(group, waitFor, t, done, "commit") {
				m.ctxAbortLocked(t, ctx)
				done = nil
			}
			continue
		}

		// No obstacles: commit the group atomically. The outcome is read
		// from the transaction status on the next loop pass rather than
		// assumed: a failed commit-record append or log force aborts the
		// group, and the caller must see that failure — returning nil here
		// would acknowledge a commit whose record may never have reached
		// the disk.
		if err := m.commitLocked(group); err != nil {
			m.abortGroupLocked(group, err, false)
		}
	}
}

// obstacle names what a commit driver must wait for: an event of t, its
// completion or its termination. The zero value (nil t) means nothing
// stands in the way.
type obstacle struct {
	t  *txn
	ev *event
}

// examineGroupLocked inspects the GC closure of roots — the transactions
// joined to any of them by GC edges — gathering its members into group (a
// buffer the caller owns; its contents are overwritten). It returns the
// group and a zero obstacle when every member is completed and free of
// blocking dependencies, and the group and an obstacle when the driver
// must wait. It returns an error when the group cannot commit: a member
// aborted or lost an exclusion, and the group was aborted with it; or the
// examine is a vote's and found a member a commit driver would wait out,
// which the vote refuses instead (refuseVoteLocked). A vote gathers the
// group in ascending tid order, the order of its TPrepare record. The
// component and the edges it walks are read through buffers in its own
// frame, so an ungrouped transaction with no dependencies is examined
// without touching the heap. Caller holds m.mu.
func (m *Manager) examineGroupLocked(roots []xid.TID, group []*txn, vote bool) ([]*txn, obstacle, error) {
	var compBuf [4]xid.TID
	var edgeBuf [4]dep.Edge
	comp := compBuf[:0]
	for _, root := range roots {
		// GC components are disjoint: a root already gathered came with its
		// whole component.
		if !slices.Contains(comp, root) {
			comp = m.deps.AppendGCComponent(comp, root)
		}
	}
	if vote {
		slices.Sort(comp)
	}
	for _, mid := range comp {
		member, ok := m.txns.Get(uint64(mid))
		if !ok {
			// Terminated, its descriptor reaped: only a vote's root can be
			// (a commit driver's own transaction is settled before it
			// examines, and a terminated one has no edges), and its outcome
			// answers for it: aborted, it dooms the group; committed, the
			// vote refuses it.
			if o, _ := m.endedLocked(mid); o.st == xid.StatusCommitted {
				return nil, obstacle{}, m.refuseVoteLocked(roots, mid, o.st)
			}
			return nil, obstacle{}, m.doomLocked(roots, mid)
		}
		group = append(group, member)
	}
	// An aborted member dooms the group.
	for _, member := range group {
		if member.st() == xid.StatusAborting || member.st() == xid.StatusAborted {
			return nil, obstacle{}, m.doomLocked(roots, member.id)
		}
	}
	// Every member must have completed execution. (An initiated member
	// blocks the commit until someone begins it, per the paper's blocking
	// commit; its done channel covers both.) A member already in the
	// committing state is being driven by another commit whose driver is
	// off the mutex, parked on the log's force, so this driver waits for
	// that outcome instead of double-committing.
	for _, member := range group {
		switch member.st() {
		case xid.StatusInitiated, xid.StatusRunning:
			return group, obstacle{t: member, ev: &member.done}, nil
		case xid.StatusCommitting, xid.StatusPrepared, xid.StatusCommitted:
			// Prepared is "committing with the verdict pending": the local
			// driver waits for the coordinator's decision like it waits for
			// another driver's force. A vote refuses all three instead (only
			// a vote's root can be found committed: a commit drops the
			// transaction's edges).
			if vote {
				return nil, obstacle{}, m.refuseVoteLocked(roots, member.id, member.st())
			}
			return group, obstacle{t: member, ev: &member.term}, nil
		}
	}
	// Exclusion: a group containing a transaction whose EXC partner is
	// already committing (or committed) must lose — this check runs under
	// the manager mutex, and a partner turns committing under it before
	// its force releases the mutex, so of two racing EXC partners exactly
	// one passes.
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
				err := errExcludedBy(p.id)
				m.abortRootsLocked(roots, err)
				return nil, obstacle{}, err
			}
		}
	}
	// Blocking dependencies to transactions outside the group must be
	// resolved by the supporter's termination (commit steps 2a/2b), before
	// a vote too: a prepared transaction can wait for nobody.
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
			return group, obstacle{t: sup, ev: &sup.term}, nil
		}
	}
	return group, obstacle{}, nil
}

// awaitObstacleLocked parks the driver of group until obstacle o resolves,
// self (the driver's own transaction, if not nil) aborts or done closes,
// and reports whether done did. While it waits every member waits for o in
// the waits-for graph, so that deadlocks across mechanisms are caught; the
// victim's reason names the driver's kind. The members and o's transaction
// are pinned while it waits: any of them may abort and be reaped meanwhile,
// it removes the members' edges by their tids afterwards, and it takes its
// wake channel back from o's event. The caller holds a reference on self.
// Caller holds m.mu, released while parked.
func (m *Manager) awaitObstacleLocked(group []*txn, o obstacle, self *txn, done <-chan struct{}, kind string) bool {
	for _, member := range group {
		member.pin()
	}
	o.t.pin()
	oid := o.t.id
	var victim xid.TID
	for _, member := range group {
		if member.id != oid {
			if v, _ := m.waits.Add(member.id, oid); !v.IsNil() {
				victim = v
			}
		}
	}
	if !victim.IsNil() {
		if vt, ok := m.txns.Get(uint64(victim)); ok {
			m.abortLocked(vt, fmt.Errorf("%w: %s-wait deadlock victim: %w", ErrAborted, kind, ErrDeadlock))
		}
	}
	m.mu.Unlock()
	var aborting *event
	if self != nil {
		aborting = &self.aborting
	}
	cancelled := m.await(o.t, o.ev, self, aborting, done) == 2
	m.mu.Lock()
	for _, member := range group {
		if member.id != oid {
			m.waits.Remove(member.id, oid)
		}
		m.unpin(member)
	}
	m.unpin(o.t)
	return cancelled
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

// abortGroupLocked aborts every member of group for one reason, prepared
// members too if includePrepared (see abortCascadeLocked). The members are
// pinned for the loop: one member's abort cascades over GC edges and may
// reap the others, whose descriptors must not serve a new transaction by
// the time the loop reaches them. Caller holds m.mu.
func (m *Manager) abortGroupLocked(group []*txn, reason error, includePrepared bool) {
	for _, member := range group {
		member.pin()
	}
	for _, member := range group {
		m.abortCascadeLocked(member, reason, includePrepared)
	}
	for _, member := range group {
		m.unpin(member)
	}
}

// abortRootsLocked aborts every named transaction that can still abort,
// and with it, through the cascade over GC edges, its group: the cleanup
// of a vote that says no, and of a group the examine found doomed.
// Prepared and committing transactions are left to their own protocols.
// Caller holds m.mu.
func (m *Manager) abortRootsLocked(roots []xid.TID, reason error) {
	for _, id := range roots {
		if t, ok := m.txns.Get(uint64(id)); ok && t.st() != xid.StatusCommitting {
			m.abortLocked(t, reason)
		}
	}
}

// doomLocked aborts the group of roots for its member id, which aborted,
// and returns the reason. Caller holds m.mu.
//
//go:noinline
func (m *Manager) doomLocked(roots []xid.TID, id xid.TID) error {
	err := errMemberAborted(id)
	m.abortRootsLocked(roots, err)
	return err
}

// The abort reasons of the group paths, built off the commit and vote
// paths that use them, whose warmed passes TestLocalTxnAllocBudget and
// TestPrepareDecideAllocBudget hold to their allocation budgets.

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

// commitLocked performs the final commit of a ready group, local or on a
// coordinator's verdict: one commit record and one log force cover every
// member (this is what experiment E6 measures), then each member's
// updates are published and its locks and dependencies dropped. The
// members sit in the committing state while the force has the mutex
// released; every other path treats committing as untouchable (Abort
// waits on term, drivers wait via examineGroupLocked, FormDependency
// rejects). A failed append or force publishes nothing and returns the
// error with the members still committing: a local commit then aborts
// the group, a verdict puts it back to prepared. Caller holds m.mu.
//
// The release calls below are the commit's visibility point; the durable
// force must dominate them on every path (decide-before-release, §11).
//
//asset:durable before=ReleaseAll,EscrowCommit
func (m *Manager) commitLocked(group []*txn) error {
	if _, err := m.appendLocked(&wal.Record{Type: wal.TCommit, TIDs: m.committingLocked(group)}); err != nil {
		return errCommitLog("record append", err)
	}
	if err := m.forceLocked(); err != nil {
		return errCommitLog("force", err)
	}
	m.stats.logForces.Add(1)
	m.stats.groupSize.Add(uint64(len(group)))
	var abortBuf [4]*txn
	forcedAborts := m.forcedAbortsLocked(group, abortBuf[:0])
	for _, member := range group {
		// A member recovered in doubt installs the images it withheld
		// since recovery; no other member has any.
		if ops, ok := m.inDoubtRedo[member.id]; ok {
			for _, op := range ops {
				m.installRedoLocked(op)
			}
			delete(m.inDoubtRedo, member.id)
		}
		member.dropUndo()
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
		m.reapLocked(member)
		member.closeDone()
		member.closeTerm()
		m.unpin(member) // the table's
	}
	if len(forcedAborts) > 0 {
		m.abortGroupLocked(forcedAborts, errExcludedByCommitted(), false)
	}
	return nil
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
// exclusion partners (at most one side commits) outside the group, which
// commits. Called before the edges disappear with RemoveNode. Caller holds
// m.mu.
func (m *Manager) forcedAbortsLocked(group, buf []*txn) []*txn {
	var edgeBuf [4]dep.Edge
	for _, member := range group {
		for _, e := range m.deps.AppendIncoming(edgeBuf[:0], member.id) {
			if (e.Types.Has(xid.DepBAD) || e.Types.Has(xid.DepEXC)) && !inGroupOf(group, e.Other) {
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
	return m.AbortWith(id, errExplicitAbort)
}

var errExplicitAbort = fmt.Errorf("%w: explicit abort", ErrAborted)

// AbortWith is Abort with reason recorded as the abort reason (wrapped to
// match ErrAborted if it does not): what the transaction's operations in
// flight, its waiters and a later Commit report. A front end aborting for a
// cause of its own — a session's lease expiry, say — hands it on this way.
func (m *Manager) AbortWith(id xid.TID, reason error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, o, err := m.lookup(id)
	if err != nil {
		return err
	}
	if o.st == xid.StatusCommitting {
		// The transaction is past its commit record and its driver is
		// parked on the log's force; wait for the outcome rather than
		// yanking a half-committed group, pinned so that the outcome is
		// still t's when read.
		t.pin()
		defer m.unpin(t)
		for t.st() == xid.StatusCommitting {
			m.mu.Unlock()
			m.await(t, &t.term, nil, nil, nil)
			m.mu.Lock()
		}
		o = t.outcome()
	}
	switch o.st {
	case xid.StatusCommitted:
		return ErrAlreadyCommitted
	case xid.StatusAborted:
		return nil
	case xid.StatusPrepared:
		// No unilateral abort once the yes vote is out; the coordinator's
		// verdict (Decide) is the only terminator.
		return fmt.Errorf("%w: %v", ErrPrepared, id)
	}
	m.abortLocked(t, abortReason(reason))
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
// aborted or is unknown — never issued, or forgotten by the outcome ring.
func (m *Manager) AbortReason(id xid.TID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, o, _ := m.lookup(id)
	return o.reason
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
		u.dropUndo()
		// An aborted in-doubt member's withheld images simply vanish; there
		// is nothing in the cache to roll back.
		delete(m.inDoubtRedo, u.id)
	}
	sort.Slice(undos, func(i, j int) bool { return undos[i].rec.seq > undos[j].rec.seq })
	for _, ur := range undos {
		rec := ur.rec
		switch rec.kind {
		case wal.KindDelta:
			// Logical undo: add the negated delta, leaving concurrent
			// committed increments intact.
			m.appendLocked(&wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindDelta, After: m.deltaImage(-rec.delta)})
			if obj := m.cache.Object(rec.oid); obj != nil {
				obj.Lat.Lock()
				addInPlace(obj, -rec.delta)
				obj.Lat.Unlock()
			}
		case wal.KindCreate:
			m.appendLocked(&wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindDelete})
			m.cache.Delete(rec.oid)
			// The object never existed; any escrow bounds declared for it
			// (a rolled-back bounded-counter creation) go with it.
			m.locks.DropEscrow(rec.oid)
		case wal.KindDelete:
			m.appendLocked(&wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindCreate, After: rec.before})
			m.cache.Install(rec.oid, rec.before)
		default: // modify
			// Copied back, never installed: an in-place write's image lives
			// in a descriptor buffer the next transaction reuses.
			m.appendLocked(&wal.Record{Type: wal.TUndo, TID: ur.tid, OID: rec.oid, Kind: wal.KindModify, After: rec.before})
			m.cache.Restore(rec.oid, rec.before)
		}
	}
	// Phase 3: cleanup and final statuses.
	for _, u := range set {
		m.appendLocked(&wal.Record{Type: wal.TAbort, TID: u.id})
		m.deps.RemoveNode(u.id)
		m.locks.ReleaseAll(u.id)
		m.waits.RemoveNode(u.id)
		m.releaseSlot(u)
		u.setSt(xid.StatusAborted)
		m.live.Add(-1)
		m.stats.aborts.Add(1)
		m.reapLocked(u)
		u.closeDone()
		u.closeTerm()
		m.unpin(u) // the table's
	}
}
