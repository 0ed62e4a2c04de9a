package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/dep"
	"repro/internal/wal"
	"repro/internal/xid"
)

// TxnOptions carries per-transaction settings for InitiateWith.
type TxnOptions struct {
	// Ctx binds a context to the transaction: its cancellation or deadline
	// expiry aborts the transaction, waking any wait it is parked in
	// (locks, begin/commit dependencies). Nil means no binding (BeginCtx
	// can still bind one later). A context deadline is how one transaction
	// gets a tighter bound than Config.TxnDeadline.
	Ctx context.Context
}

// Initiate registers a new top-level transaction that will execute fn. The
// transaction does not start executing; call Begin. A nil fn makes the
// transaction interactive: its caller drives it through the handle that
// BeginInteractive returns. On failure (a closed manager) it returns the
// null tid with the error.
func (m *Manager) Initiate(fn TxnFunc) (xid.TID, error) {
	return m.initiate(fn, xid.NilTID)
}

// InitiateWith is Initiate with a context binding.
func (m *Manager) InitiateWith(fn TxnFunc, opts TxnOptions) (xid.TID, error) {
	return m.initiateWith(fn, xid.NilTID, opts)
}

// InitiateInteractive is Initiate(nil) that hands back the transaction's
// handle at once instead of its tid: the descriptor itself, which a caller
// that drives the transaction from several goroutines keeps in its tables
// and serializes them on (Tx.Acquire). The transaction is begun with
// BeginInteractive as usual, which returns this same handle. The caller
// holds one reference on it, which Tx.Unpin gives back.
func (m *Manager) InitiateInteractive() (*Tx, error) {
	t, _, err := m.initiateOpts(nil, xid.NilTID, TxnOptions{})
	if err != nil {
		return nil, err
	}
	return &t.tx, nil
}

func (m *Manager) initiate(fn TxnFunc, parent xid.TID) (xid.TID, error) {
	return m.initiateWith(fn, parent, TxnOptions{})
}

func (m *Manager) initiateWith(fn TxnFunc, parent xid.TID, opts TxnOptions) (xid.TID, error) {
	_, id, err := m.initiateOpts(fn, parent, opts)
	return id, err
}

// initiateOpts is mutex-free: the tid counter, live count, closed flag,
// descriptor free list and descriptor table are all safe for concurrent
// use, so registering a transaction never contends with commits, aborts, or
// other initiates. The descriptor holds the table's reference, and an
// interactive one a second, its caller's, which the handle's holders drop
// with Tx.Unpin once they are done with it. The caller holds no reference
// on a bodied descriptor, which Close or the watchdog may abort, reap and
// recycle the moment it is published, so it learns the tid from the second
// result and touches the descriptor only if it is interactive; by tid, a
// reaped transaction still answers from the outcome ring.
func (m *Manager) initiateOpts(fn TxnFunc, parent xid.TID, opts TxnOptions) (*txn, xid.TID, error) {
	if m.closed.Load() {
		return nil, xid.NilTID, ErrClosed
	}
	m.live.Add(1)
	id := xid.TID(m.nextTID.Add(1))
	if uint64(id) >= m.tidFloor.Load() {
		if err := m.raiseTIDFloor(id); err != nil {
			m.live.Add(-1)
			return nil, xid.NilTID, err
		}
	}
	refs := int32(1)
	if fn == nil {
		refs = 2
	}
	t := m.newTxn(id, parent, fn, refs)
	if opts.Ctx != nil {
		t.ctx = opts.Ctx
	}
	if d := m.cfg.TxnDeadline; d > 0 {
		t.deadline.Store(time.Now().Add(d).UnixNano())
		m.ensureWatchdog()
	}
	m.txns.Put(uint64(id), t)
	// Re-check after publishing: Close may have set the flag, flushed, and
	// closed the log between the first check and the Put. Unregistering here
	// fences the race — the transaction can no longer Begin and append to a
	// closed log.
	if m.closed.Load() {
		m.withdraw(t, id)
		if fn == nil {
			m.unpin(t) // the caller's, who never gets the handle
		}
		return nil, xid.NilTID, ErrClosed
	}
	return t, id, nil
}

// withdraw takes back out of the table the descriptor t that initiateOpts
// published as id before it found the manager closed. Close may be aborting
// it at the same time, so the table's reference is dropped under the mutex
// and only if the entry is still there: otherwise Close's abort reaped it,
// and it may be recycled already. An entry still there is live: every
// termination reaps under the mutex it sets the status under.
//
//go:noinline
func (m *Manager) withdraw(t *txn, id xid.TID) {
	m.mu.Lock()
	if m.txns.Delete(uint64(id)) {
		m.live.Add(-1)
		m.unpin(t)
	}
	m.mu.Unlock()
}

// Begin starts execution of the given transactions, each on its own
// goroutine. It returns the first error encountered (a transaction that is
// not in the initiated state, an unsatisfiable begin dependency, or an
// admission shed); earlier transactions in the list still start.
//
// Begin is for a body that must run beside its beginner: parallel
// components, competitors in a race, a cooperating partner, a child whose
// parent may have to leave its wait first. A beginner that will only wait
// should call Execute; one that drives the transaction itself, operation by
// operation, initiates it without a body and calls BeginInteractive.
func (m *Manager) Begin(tids ...xid.TID) error {
	return m.BeginCtx(context.Background(), tids...)
}

// BeginCtx is Begin with a context bound to each transaction (unless one
// was already bound at InitiateWith): cancelling it — before or after the
// body starts — aborts the transaction, waking any lock, dependency, or
// admission wait it is parked in.
func (m *Manager) BeginCtx(ctx context.Context, tids ...xid.TID) error {
	for _, id := range tids {
		t, err := m.beginOne(ctx, id, false)
		if err != nil {
			return err
		}
		//asset:goroutine joined-by=channel
		go m.runBody(t)
	}
	return nil
}

// runBody runs a body on the goroutine Begin started for it, and then drops
// the body's reference on the descriptor.
func (m *Manager) runBody(t *txn) {
	m.run(t)
	m.unpin(t)
}

// Execute is begin followed by wait, with the body run on the calling
// goroutine: the paper's atomic translation does nothing between begin and
// the commit that blocks until execution completes (§3.1.1), so the body
// belongs to the goroutine that will wait for it. The transaction passes the
// same checks, gates and admission as under Begin and is logged the same
// way; Execute returns Begin's error if it could not start, otherwise what
// Wait would: nil once the body has completed, the abort reason if it failed,
// panicked (the panic is recovered; the caller survives) or was aborted from
// outside. The transaction is then committed, delegated or aborted like any
// other.
func (m *Manager) Execute(id xid.TID) error {
	return m.ExecuteCtx(context.Background(), id)
}

// ExecuteCtx is Execute with a context bound to the transaction as under
// BeginCtx: cancelling it aborts the transaction and wakes the wait its body
// is parked in, and ExecuteCtx returns the cause once the body has returned.
func (m *Manager) ExecuteCtx(ctx context.Context, id xid.TID) error {
	t, err := m.beginOne(ctx, id, false)
	if err != nil {
		return err
	}
	m.run(t)
	err = t.outcome().err()
	m.unpin(t) // the body's reference, kept for the outcome
	return err
}

// BeginInteractive begins an interactive transaction — one initiated with a
// nil TxnFunc — and returns its handle: the caller performs through it what
// a body would, then calls Complete where a body would return nil, and the
// transaction is committed, delegated or aborted like any other. It passes
// the same checks, gates and admission as under Begin and is logged the same
// way, and it returns Begin's error if it could not start; no goroutine runs
// for it. ctx governs the begin only: cancelling it while the transaction
// waits at a begin-dependency gate or for admission aborts the transaction,
// and nothing watches it once BeginInteractive has returned (a context bound
// at InitiateWith is watched as under Begin).
//
// The handle's operations must not run concurrently: the caller serializes
// them, as a body's one goroutine does. Primitives that name the transaction
// from outside — Abort, Commit, Wait, Delegate and the rest — may run at
// any time.
func (m *Manager) BeginInteractive(ctx context.Context, id xid.TID) (*Tx, error) {
	t, err := m.beginOne(ctx, id, true)
	if err != nil {
		return nil, err
	}
	return &t.tx, nil
}

// beginOne takes an initiated transaction to running — status check, context
// binding, begin-dependency gates, admission, context watcher — and hands it
// back for the caller to run its body, or, interactive, to drive it without
// one. A body's descriptor comes back with a reference for the body, which
// the caller drops once the body has returned and its outcome has been read.
// Nothing is logged: replay needs a tid only once it has an update or an
// outcome. The status turns running under m.mu, which Checkpoint holds to
// keep the manager quiescent.
func (m *Manager) beginOne(ctx context.Context, id xid.TID, interactive bool) (_ *txn, err error) {
	m.mu.Lock()
	t, o, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if st := o.st; st != xid.StatusInitiated { // read under m.mu: t is unpinned
		m.mu.Unlock()
		if st == xid.StatusAborted || st == xid.StatusAborting {
			return nil, ErrAborted
		}
		return nil, fmt.Errorf("%w: %v is %v", ErrAlreadyBegun, id, st)
	}
	if (t.fn == nil) != interactive {
		m.mu.Unlock()
		return nil, errBeginForm(id, interactive)
	}
	// Pinned across the gates and admission, where m.mu is released; on
	// success the pin becomes the body's reference (an interactive
	// transaction's handle holds one of its own).
	t.pin()
	defer func() {
		if err != nil || interactive {
			m.unpin(t)
		}
	}()
	// Bind the context before the body, watcher, and admission code that
	// read it exist; an InitiateWith binding wins. An interactive begin binds
	// nothing: its ctx bounds the waits below and is forgotten.
	if t.ctx == nil && !interactive {
		t.ctx = ctx
	}
	wctx := t.ctx
	if wctx == nil {
		wctx = ctx
	}
	var ctxDone <-chan struct{}
	if wctx != nil {
		ctxDone = wctx.Done()
	}
	// Begin dependencies (extension): a BD gate waits for the supporter's
	// commit (its abort aborts t); a BAD gate waits for the supporter's
	// abort (its commit aborts t, via the commit-time forced-abort scan).
	for {
		sup, isBAD := m.pendingBeginDepLocked(t)
		if sup == nil {
			break
		}
		// The supporter may terminate and be reaped while t waits; pinned,
		// its descriptor still holds its outcome when t looks.
		sup.pin()
		supID := sup.id
		m.waits.Add(id, supID)
		m.mu.Unlock()
		switch m.await(sup, &sup.term, t, &t.aborting, ctxDone) {
		case 1: // aborted while gated (watchdog, cascade, Close)
			m.waits.Remove(id, supID)
			m.unpin(sup)
			return nil, abortedErr(t.abErr)
		case 2:
			m.waits.Remove(id, supID)
			m.unpin(sup)
			m.mu.Lock()
			m.ctxAbortLocked(t, wctx)
			m.mu.Unlock()
			return nil, abortedErr(t.abErr)
		}
		m.waits.Remove(id, supID)
		m.mu.Lock()
		supAborted := sup.st() == xid.StatusAborted
		m.unpin(sup)
		if !isBAD && supAborted {
			m.abortLocked(t, fmt.Errorf("%w: begin dependency on aborted %v", ErrAborted, supID))
			m.mu.Unlock()
			return nil, ErrAborted
		}
	}
	if t.st() != xid.StatusInitiated { // aborted while waiting to begin
		m.mu.Unlock()
		return nil, abortedErr(t.abErr)
	}
	// Admission control: the MaxLive gate bounds the set of transactions
	// that run and hold locks. Crossed after the begin-dependency gates
	// (a gated transaction consumes no slot) and before the transaction
	// turns running.
	if m.admit != nil {
		m.mu.Unlock()
		if err := m.admitOne(wctx, t); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if t.st() != xid.StatusInitiated { // aborted while queued
			m.releaseSlot(t)
			m.mu.Unlock()
			return nil, abortedErr(t.abErr)
		}
	}
	t.lk = m.locks.Holder(id)
	t.setSt(xid.StatusRunning)
	m.mu.Unlock()
	if ctxDone != nil && t.ctx != nil {
		t.pin() // the watcher's reference, dropped when it exits
		//asset:goroutine joined-by=ctx
		go m.watchCtx(t)
	}
	return t, nil
}

// errBeginForm refuses a begin of the wrong form: Begin or Execute of an
// interactive transaction, which has no body to run, or BeginInteractive of
// one whose body would never run. The transaction stays initiated.
func errBeginForm(id xid.TID, interactive bool) error {
	if interactive {
		return fmt.Errorf("core: %v has a body: begin it with Begin or Execute", id)
	}
	return fmt.Errorf("core: %v is interactive (initiated without a body): begin it with BeginInteractive", id)
}

// pendingBeginDepLocked returns a begin-gating supporter that has not yet
// reached the state t waits for (commit for BD, abort for BAD), or nil if
// the transaction may begin. Caller holds m.mu.
func (m *Manager) pendingBeginDepLocked(t *txn) (sup *txn, isBAD bool) {
	var ebuf [4]dep.Edge
	for _, e := range m.deps.AppendOutgoing(ebuf[:0], t.id) {
		bd, bad := e.Types.Has(xid.DepBD), e.Types.Has(xid.DepBAD)
		if !bd && !bad {
			continue
		}
		s, ok := m.txns.Get(uint64(e.Other))
		if !ok {
			continue
		}
		if bd && s.st() != xid.StatusCommitted {
			return s, false
		}
		if bad && s.st() != xid.StatusAborted {
			return s, true
		}
	}
	return nil, false
}

// run executes a transaction body, on the goroutine Begin started for it or
// on Execute's caller.
func (m *Manager) run(t *txn) {
	defer func() {
		if r := recover(); r != nil {
			m.abortTxn(t, fmt.Errorf("%w: transaction %v panicked: %v", ErrAborted, t.id, r))
		}
	}()
	if err := t.fn(&t.tx); err != nil {
		m.abortTxn(t, abortReason(err))
		return
	}
	t.tx.Complete()
}

// Complete ends the transaction's execution, as its body returning nil
// does: an interactive transaction's caller calls it once it has done what
// it meant to. The transaction turns completed — locks retained, changes
// volatile until an explicit commit (§2.1) — and whoever waits for its
// execution (Wait, Commit, a group's commit driver) goes on. Idempotent; a
// no-op on an aborted transaction and on one not yet begun (Commit then
// says ErrNotBegun).
func (tx *Tx) Complete() {
	m, t := tx.m, tx.t
	m.mu.Lock()
	st := t.st()
	if st == xid.StatusRunning {
		t.setSt(xid.StatusCompleted)
	}
	m.mu.Unlock()
	if st == xid.StatusInitiated {
		return
	}
	t.closeDone()
}

// Wait blocks until t completes execution; it returns nil once the code has
// completed (or the transaction already committed) and ErrAborted if t
// aborted (the paper's wait returns 1 and 0 respectively). On a transaction
// that has terminated it returns at once, with its outcome while the
// manager's outcome ring remembers it and ErrUnknownTxn after.
//
// Wait is for application code outside any transaction. A transaction
// waiting on another transaction MUST use Tx.Wait instead: that wait is a
// real dependency (the waiter holds locks), and only Tx.Wait registers it
// with deadlock detection.
func (m *Manager) Wait(id xid.TID) error {
	return m.WaitCtx(context.Background(), id)
}

// WaitCtx is Wait bounded by a context. When ctx expires first, WaitCtx
// returns its error without touching the target: an outside observer
// abandoning a wait says nothing about the transaction's fate (use Abort,
// or bind the context at begin, to propagate cancellation).
func (m *Manager) WaitCtx(ctx context.Context, id xid.TID) error {
	m.mu.Lock()
	t, o, err := m.lookup(id)
	if t != nil {
		// Pinned: the target may abort and be reaped before this wait reads
		// its reason.
		t.pin()
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if t != nil {
		stopped := m.await(t, &t.done, nil, nil, ctx.Done()) != 0
		o = t.outcome()
		m.unpin(t)
		if stopped {
			return fmt.Errorf("core: wait on %v abandoned: %w", id, ctx.Err())
		}
	}
	return o.err()
}

// Wait blocks until the target transaction completes, like Manager.Wait,
// but registers the wait in the waits-for graph: the waiting transaction
// holds locks, so "parent waits for child, child waits for a lock" chains
// are real dependencies and can deadlock (e.g. two nested transactions
// whose subtransactions need each other's parents' locks). If this
// transaction is selected as the deadlock victim — or is aborted while
// waiting — Wait returns the abort reason.
func (tx *Tx) Wait(id xid.TID) error {
	return tx.WaitCtx(context.Background(), id)
}

// WaitCtx is Tx.Wait bounded by a context: if ctx expires while blocked,
// the waiting transaction is aborted — it holds locks, so abandoning the
// wait without releasing them would just move the liveness problem — and
// WaitCtx returns the abort reason. The transaction's own bound context
// (BeginCtx) wakes this wait too, through the watcher's abort.
func (tx *Tx) WaitCtx(ctx context.Context, id xid.TID) error {
	m, t := tx.m, tx.t
	m.mu.Lock()
	target, o, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	// A target whose execution is over is no wait at all, so it gets no
	// edge: one could close a cycle with a commit driver's edge pointing
	// back and make t the victim of a wait that would not have blocked. A
	// terminated one's descriptor is gone, and nothing is waited for.
	edge := false
	if target != nil {
		// Pinned, as under Manager.Wait; the target may even be the victim.
		target.pin()
		defer m.unpin(target)
		edge = !target.fired(&target.done)
	}
	if edge {
		victim, _ := m.waits.Add(t.id, id)
		if !victim.IsNil() {
			if vt, ok := m.txns.Get(uint64(victim)); ok {
				m.abortLocked(vt, fmt.Errorf("%w: wait-for deadlock victim: %w", ErrAborted, ErrDeadlock))
			}
		}
	}
	m.mu.Unlock()
	if target != nil {
		var ctxDone <-chan struct{}
		if ctx != nil {
			ctxDone = ctx.Done()
		}
		if m.await(target, &target.done, t, &t.aborting, ctxDone) == 2 {
			m.abortTxn(t, abortReason(fmt.Errorf("core: wait on %v cancelled: %w", id, ctx.Err())))
		}
		if edge {
			m.waits.Remove(t.id, id)
		}
		o = target.outcome()
	}
	m.mu.Lock()
	if t.st() == xid.StatusAborting || t.st() == xid.StatusAborted {
		err := t.abErr
		m.mu.Unlock()
		if err == nil {
			err = ErrAborted
		}
		return err
	}
	m.mu.Unlock()
	return o.err()
}

// Delegate transfers from ti to tj the responsibility for ti's operations
// on the given objects — their locks, their undo records, and any
// permissions given by ti on them. A nil oids delegates everything ti is
// responsible for (the delegate(ti, tj) form).
func (m *Manager) Delegate(from, to xid.TID, oids ...xid.OID) error {
	var oidSet []xid.OID
	if len(oids) > 0 {
		oidSet = oids
	}
	m.mu.Lock()
	ft, fo, err := m.lookup(from)
	var tt *txn
	var tto outcome
	if err == nil {
		tt, tto, err = m.lookup(to)
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if st := fo.st; st.Terminated() || st == xid.StatusCommitting || st == xid.StatusPrepared {
		// A prepared delegator's undo/lock set is frozen in its TPrepare
		// promise; moving responsibility now would falsify the vote.
		m.mu.Unlock()
		return fmt.Errorf("%w: delegator %v is %v", ErrTerminated, from, st)
	}
	if st := tto.st; st.Terminated() || st == xid.StatusCommitting || st == xid.StatusPrepared {
		// A committing delegatee has already written its commit record;
		// work delegated now would be mis-attributed at recovery.
		m.mu.Unlock()
		return fmt.Errorf("%w: delegatee %v is %v", ErrTerminated, to, st)
	}
	// The whole transfer — undo responsibility, locks with permit
	// grantorship, and the log record — happens inside the manager's
	// critical section, so no commit of either party can interleave:
	// the TDelegate record is always ordered before any TCommit that
	// covers the delegated updates, which is what recovery relies on.
	m.moveUndoLocked(ft, tt, oidSet)
	var moved [8]xid.OID // unused: the undo records are moved by oid above
	m.locks.AppendDelegate(moved[:0], from, to, oidSet)
	_, err = m.appendLocked(&wal.Record{Type: wal.TDelegate, TID: from, TID2: to, OIDs: oidSet})
	m.mu.Unlock()
	return err
}

// moveUndoLocked moves matching undo records from ft to tt, keeping tt's in
// log order, within the two lists' own arrays where they have room. A moved
// record whose before image lies in ft's image buffer gets a copy in tt's:
// ft's buffer serves the next transaction once ft is recycled, which may be
// long before tt aborts. Caller holds m.mu.
func (m *Manager) moveUndoLocked(ft, tt *txn, oids []xid.OID) {
	if ft == tt {
		return
	}
	var want map[xid.OID]bool // for a set too large to scan per record
	if len(oids) > maxScannedOIDs {
		want = make(map[xid.OID]bool, len(oids))
		for _, o := range oids {
			want[o] = true
		}
	}
	moves := func(oid xid.OID) bool {
		switch {
		case oids == nil:
			return true
		case want != nil:
			return want[oid]
		}
		return slices.Contains(oids, oid)
	}
	n := len(tt.undo)
	keep := ft.undo[:0]
	for _, u := range ft.undo {
		if !moves(u.oid) {
			keep = append(keep, u)
			continue
		}
		if u.kept {
			u.before = tt.keepImage(u.before)
		}
		tt.undo = append(tt.undo, u)
	}
	clear(ft.undo[len(keep):])
	ft.undo = keep
	if n > 0 && len(tt.undo) > n && tt.undo[n-1].seq > tt.undo[n].seq {
		slices.SortFunc(tt.undo, func(a, b undoRec) int { return cmp.Compare(a.seq, b.seq) })
	}
}

// maxScannedOIDs is the largest delegated object set moveUndoLocked scans
// per record instead of indexing it.
const maxScannedOIDs = 16

// Permit lets grantee perform the given operations on the given objects
// despite conflicts with grantor's locks. Wildcards per §2.2: grantee
// NilTID = any transaction; empty ops = all operations; no oids = every
// object grantor has accessed or has permission to access.
func (m *Manager) Permit(grantor, grantee xid.TID, oids []xid.OID, ops xid.OpSet) error {
	m.mu.Lock()
	_, g, err := m.lookup(grantor)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if g.st.Terminated() {
		m.mu.Unlock()
		return fmt.Errorf("%w: grantor %v", ErrTerminated, grantor)
	}
	if !grantee.IsNil() {
		if _, _, err := m.lookup(grantee); err != nil {
			m.mu.Unlock()
			return err
		}
	}
	// Granting under the manager mutex keeps the permit atomic with the
	// grantor's status check (a racing commit cannot release-and-leak).
	m.locks.Permit(grantor, grantee, oids, ops)
	m.mu.Unlock()
	return nil
}

// FormDependency records form_dependency(typ, ti, tj). Dependencies whose
// outcome is already forced are resolved immediately: an AD or GC on an
// aborted ti aborts tj; CD/AD/BD on a terminated ti are vacuously satisfied;
// a GC with a committed ti cannot be honoured and returns ErrTerminated.
func (m *Manager) FormDependency(typ xid.DepType, ti, tj xid.TID) error {
	// Everything below, the aborts included, happens under the mutex the
	// transactions were looked up under: past it, a descriptor found here
	// may already serve another transaction.
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ao, err := m.lookup(ti)
	var b *txn
	var bo outcome
	if err == nil {
		b, bo, err = m.lookup(tj)
	}
	if err != nil {
		return err
	}
	// Terminal states of the dependent tj resolve (or reject) immediately:
	// a transaction that is committing or has terminated cannot take on new
	// constraints. Past them tj is live, and so is its descriptor b.
	switch {
	case bo.st == xid.StatusAborted || bo.st == xid.StatusAborting:
		if typ == xid.DepGC && a != nil {
			// Both or neither: tj already aborted, so ti must abort too
			// (a terminated ti, whose descriptor is gone, is past it).
			m.abortLocked(a, fmt.Errorf("%w: group partner %v aborted", ErrAborted, tj))
		}
		return nil // every other constraint on an aborted tj is moot
	case bo.st == xid.StatusCommitted || bo.st == xid.StatusCommitting:
		return fmt.Errorf("%w: dependent %v is already %v", ErrTerminated, tj, bo.st)
	case bo.st == xid.StatusPrepared:
		// A prepared dependent promised a coordinator it can commit; a new
		// constraint could invalidate the vote.
		return fmt.Errorf("%w: dependent %v", ErrPrepared, tj)
	}
	switch {
	case ao.st == xid.StatusAborted || ao.st == xid.StatusAborting:
		if typ == xid.DepAD || typ == xid.DepGC ||
			(typ == xid.DepBD && bo.st == xid.StatusInitiated) {
			m.abortLocked(b, fmt.Errorf("%w: dependency on aborted %v", ErrAborted, ti))
		}
		return nil
	case ao.st == xid.StatusCommitting && typ == xid.DepGC:
		return fmt.Errorf("%w: group commit with committing %v", ErrTerminated, ti)
	case ao.st == xid.StatusPrepared && typ == xid.DepGC:
		// The prepared supporter's GC closure was fixed by its vote; the
		// group cannot grow while the verdict is pending. (CD/AD on a
		// prepared supporter are fine — the dependent waits on its term.)
		return fmt.Errorf("%w: group commit with prepared %v", ErrPrepared, ti)
	case ao.st == xid.StatusCommitted:
		switch typ {
		case xid.DepGC:
			return fmt.Errorf("%w: group commit with committed %v", ErrTerminated, ti)
		case xid.DepBAD, xid.DepEXC:
			// The committed ti forecloses tj's outcome immediately.
			m.abortLocked(b, fmt.Errorf("%w: excluded by committed %v", ErrAborted, ti))
		}
		return nil // CD/AD/BD on a committed supporter are satisfied
	}
	return m.deps.Form(typ, ti, tj)
}
