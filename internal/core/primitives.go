package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dep"
	"repro/internal/wal"
	"repro/internal/xid"
)

// TxnOptions carries per-transaction resilience settings for InitiateWith.
type TxnOptions struct {
	// Ctx binds a context to the transaction: its cancellation or deadline
	// expiry aborts the transaction, waking any wait it is parked in
	// (locks, begin/commit dependencies). Nil means no binding (BeginCtx
	// can still bind one later).
	Ctx context.Context
	// Deadline overrides Config.TxnDeadline for this transaction: >0 sets
	// a tighter/looser reap point, <0 disables the watchdog for it, 0
	// inherits the config.
	Deadline time.Duration
}

// Initiate registers a new top-level transaction that will execute fn. The
// transaction does not start executing; call Begin. On resource exhaustion
// it returns ErrTooManyTxns with the null tid (the paper returns the null
// tid alone).
func (m *Manager) Initiate(fn TxnFunc) (xid.TID, error) {
	return m.initiate(fn, xid.NilTID)
}

// InitiateWith is Initiate with a context binding and a deadline override.
func (m *Manager) InitiateWith(fn TxnFunc, opts TxnOptions) (xid.TID, error) {
	return m.initiateOpts(fn, xid.NilTID, opts)
}

func (m *Manager) initiate(fn TxnFunc, parent xid.TID) (xid.TID, error) {
	return m.initiateOpts(fn, parent, TxnOptions{})
}

// initiateOpts is mutex-free: the tid counter, live count, closed flag, and
// descriptor table are all safe for concurrent use, so registering a
// transaction never contends with commits, aborts, or other initiates.
func (m *Manager) initiateOpts(fn TxnFunc, parent xid.TID, opts TxnOptions) (xid.TID, error) {
	if m.closed.Load() {
		return xid.NilTID, ErrClosed
	}
	for {
		n := m.live.Load()
		if m.cfg.MaxTransactions > 0 && n >= int64(m.cfg.MaxTransactions) {
			return xid.NilTID, ErrTooManyTxns
		}
		if m.live.CompareAndSwap(n, n+1) {
			break
		}
	}
	id := xid.TID(m.nextTID.Add(1))
	t := m.newTxn(id, parent, fn)
	if opts.Ctx != nil {
		t.ctx = opts.Ctx
	}
	d := opts.Deadline
	if d == 0 {
		d = m.cfg.TxnDeadline
	}
	if d > 0 {
		t.deadline.Store(time.Now().Add(d).UnixNano())
		m.ensureWatchdog()
	}
	m.txns.Put(uint64(id), t)
	// Re-check after publishing: Close may have set the flag, flushed, and
	// closed the log between the first check and the Put. Unregistering here
	// fences the race — the transaction can no longer Begin and append to a
	// closed log.
	if m.closed.Load() {
		m.txns.Delete(uint64(id))
		m.live.Add(-1)
		return xid.NilTID, ErrClosed
	}
	return id, nil
}

// Begin starts execution of the given transactions, each on its own
// goroutine. It returns the first error encountered (a transaction that is
// not in the initiated state, an unsatisfiable begin dependency, or an
// admission shed); earlier transactions in the list still start.
//
// Begin is for a body that must run beside its beginner: parallel
// components, competitors in a race, a cooperating partner, a child whose
// parent may have to leave its wait first, a body that outlives the request
// that begins it. A beginner that will only wait should call Execute.
func (m *Manager) Begin(tids ...xid.TID) error {
	return m.BeginCtx(context.Background(), tids...)
}

// BeginCtx is Begin with a context bound to each transaction (unless one
// was already bound at InitiateWith): cancelling it — before or after the
// body starts — aborts the transaction, waking any lock, dependency, or
// admission wait it is parked in.
func (m *Manager) BeginCtx(ctx context.Context, tids ...xid.TID) error {
	for _, id := range tids {
		t, err := m.beginOne(ctx, id)
		if err != nil {
			return err
		}
		//asset:goroutine joined-by=channel
		go m.run(t)
	}
	return nil
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
	t, err := m.beginOne(ctx, id)
	if err != nil {
		return err
	}
	m.run(t)
	return waitOutcome(t)
}

// beginOne takes an initiated transaction to running — status check, context
// binding, begin-dependency gates, admission, begin record, context watcher
// — and hands it back for the caller to run its body.
func (m *Manager) beginOne(ctx context.Context, id xid.TID) (*txn, error) {
	m.mu.Lock()
	t, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if t.st() != xid.StatusInitiated {
		m.mu.Unlock()
		if t.st() == xid.StatusAborted || t.st() == xid.StatusAborting {
			return nil, ErrAborted
		}
		return nil, fmt.Errorf("%w: %v is %v", ErrAlreadyBegun, id, t.st())
	}
	// Bind the context before the body, watcher, and admission code that
	// read it exist; an InitiateWith binding wins.
	if t.ctx == nil && ctx != nil {
		t.ctx = ctx
	}
	var ctxDone <-chan struct{}
	if t.ctx != nil {
		ctxDone = t.ctx.Done()
	}
	// Begin dependencies (extension): a BD gate waits for the supporter's
	// commit (its abort aborts t); a BAD gate waits for the supporter's
	// abort (its commit aborts t, via the commit-time forced-abort scan).
	for {
		sup, isBAD := m.pendingBeginDepLocked(t)
		if sup == nil {
			break
		}
		term := sup.termCh()
		supID := sup.id
		m.waits.Add(id, supID)
		m.mu.Unlock()
		select {
		case <-term:
		case <-t.abortCh(): // aborted while gated (watchdog, cascade, Close)
			m.waits.Remove(id, supID)
			return nil, txnOutcome(t)
		case <-ctxDone:
			m.waits.Remove(id, supID)
			m.mu.Lock()
			m.ctxAbortLocked(t, t.ctx)
			m.mu.Unlock()
			return nil, txnOutcome(t)
		}
		m.waits.Remove(id, supID)
		m.mu.Lock()
		if !isBAD && sup.st() == xid.StatusAborted {
			m.mu.Unlock()
			m.abortTxn(t, fmt.Errorf("%w: begin dependency on aborted %v", ErrAborted, supID))
			return nil, ErrAborted
		}
	}
	if t.st() != xid.StatusInitiated { // aborted while waiting to begin
		m.mu.Unlock()
		return nil, txnOutcome(t)
	}
	// Admission control: the MaxLive gate bounds the set of transactions
	// that run and hold locks. Crossed after the begin-dependency gates
	// (a gated transaction consumes no slot) and before the transaction
	// turns running.
	if m.admit != nil {
		m.mu.Unlock()
		if err := m.admitOne(t); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if t.st() != xid.StatusInitiated { // aborted while queued
			m.releaseSlot(t)
			m.mu.Unlock()
			return nil, txnOutcome(t)
		}
	}
	t.setSt(xid.StatusRunning)
	// The begin record goes through the manager's reused record, hence
	// under the mutex; a body that has not started cannot append ahead of it.
	if _, err := m.appendLocked(wal.Record{Type: wal.TBegin, TID: id}); err != nil {
		m.abortLocked(t, err)
		m.mu.Unlock()
		return nil, err
	}
	m.mu.Unlock()
	if ctxDone != nil {
		//asset:goroutine joined-by=ctx
		go m.watchCtx(t)
	}
	return t, nil
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
	err := t.fn(&t.tx)
	if err != nil {
		m.abortTxn(t, abortReason(err))
		return
	}
	m.mu.Lock()
	if t.st() == xid.StatusRunning {
		// Completion: locks are retained and changes stay volatile until an
		// explicit commit (§2.1).
		t.setSt(xid.StatusCompleted)
	}
	m.mu.Unlock()
	t.closeDone()
	m.cond.Broadcast()
}

// Wait blocks until t completes execution; it returns nil once the code has
// completed (or the transaction already committed) and ErrAborted if t
// aborted (the paper's wait returns 1 and 0 respectively).
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
	t, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.mu.Unlock()
	select {
	case <-t.doneCh():
	case <-ctx.Done():
		return fmt.Errorf("core: wait on %v abandoned: %w", id, ctx.Err())
	}
	return waitOutcome(t)
}

// waitOutcome is what a wait on t reports once its body is done: the abort
// reason if it aborted, nil otherwise. Lock-free: the reason is written
// before the status that makes it readable.
func waitOutcome(t *txn) error {
	if st := t.st(); st == xid.StatusAborted || st == xid.StatusAborting {
		return txnOutcome(t)
	}
	return nil
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
	target, err := m.lookup(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	victim, _ := m.waits.Add(t.id, id)
	if !victim.IsNil() {
		if vt, ok := m.txns.Get(uint64(victim)); ok {
			m.abortLocked(vt, fmt.Errorf("%w: wait-for deadlock victim: %w", ErrAborted, ErrDeadlock))
		}
	}
	m.mu.Unlock()
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-target.doneCh():
	case <-t.abortCh():
	case <-ctxDone:
		m.abortTxn(t, abortReason(fmt.Errorf("core: wait on %v cancelled: %w", id, ctx.Err())))
	}
	m.waits.Remove(t.id, id)
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
	return waitOutcome(target)
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
	ft, err := m.lookup(from)
	if err == nil {
		_, err = m.lookup(to)
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if ft.st().Terminated() || ft.st() == xid.StatusCommitting || ft.st() == xid.StatusPrepared {
		// A prepared delegator's undo/lock set is frozen in its TPrepare
		// promise; moving responsibility now would falsify the vote.
		m.mu.Unlock()
		return fmt.Errorf("%w: delegator %v is %v", ErrTerminated, from, ft.st())
	}
	tt, _ := m.txns.Get(uint64(to))
	if tt.st().Terminated() || tt.st() == xid.StatusCommitting || tt.st() == xid.StatusPrepared {
		// A committing delegatee has already written its commit record;
		// work delegated now would be mis-attributed at recovery.
		m.mu.Unlock()
		return fmt.Errorf("%w: delegatee %v is %v", ErrTerminated, to, tt.st())
	}
	// The whole transfer — undo responsibility, locks with permit
	// grantorship, and the log record — happens inside the manager's
	// critical section, so no commit of either party can interleave:
	// the TDelegate record is always ordered before any TCommit that
	// covers the delegated updates, which is what recovery relies on.
	m.moveUndoLocked(ft, tt, oidSet)
	m.locks.Delegate(from, to, oidSet)
	_, err = m.appendLocked(wal.Record{Type: wal.TDelegate, TID: from, TID2: to, OIDs: oidSet})
	m.mu.Unlock()
	return err
}

// moveUndoLocked moves matching undo records from ft to tt in LSN order.
// Caller holds m.mu.
func (m *Manager) moveUndoLocked(ft, tt *txn, oids []xid.OID) {
	if ft == tt {
		return
	}
	if oids == nil {
		if len(ft.undo) == 0 {
			return
		}
		tt.undo = mergeByLSN(tt.undo, ft.undo)
		ft.undo = nil
		return
	}
	want := make(map[xid.OID]bool, len(oids))
	for _, o := range oids {
		want[o] = true
	}
	var keep, move []undoRec
	for _, u := range ft.undo {
		if want[u.oid] {
			move = append(move, u)
		} else {
			keep = append(keep, u)
		}
	}
	if len(move) == 0 {
		return
	}
	ft.undo = keep
	tt.undo = mergeByLSN(tt.undo, move)
}

// mergeByLSN merges two LSN-ascending undo lists.
func mergeByLSN(a, b []undoRec) []undoRec {
	out := make([]undoRec, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].lsn <= b[j].lsn {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Permit lets grantee perform the given operations on the given objects
// despite conflicts with grantor's locks. Wildcards per §2.2: grantee
// NilTID = any transaction; empty ops = all operations; no oids = every
// object grantor has accessed or has permission to access.
func (m *Manager) Permit(grantor, grantee xid.TID, oids []xid.OID, ops xid.OpSet) error {
	m.mu.Lock()
	gt, err := m.lookup(grantor)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if gt.st().Terminated() {
		m.mu.Unlock()
		return fmt.Errorf("%w: grantor %v", ErrTerminated, grantor)
	}
	if !grantee.IsNil() {
		if _, err := m.lookup(grantee); err != nil {
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
	m.mu.Lock()
	a, err := m.lookup(ti)
	var b *txn
	if err == nil {
		b, err = m.lookup(tj)
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	// Terminal states of the dependent tj resolve (or reject) immediately:
	// a transaction that is committing or has terminated cannot take on new
	// constraints.
	switch {
	case b.st() == xid.StatusAborted || b.st() == xid.StatusAborting:
		m.mu.Unlock()
		if typ == xid.DepGC {
			// Both or neither: tj already aborted, so ti must abort too.
			m.abortTxn(a, fmt.Errorf("%w: group partner %v aborted", ErrAborted, tj))
		}
		return nil // every other constraint on an aborted tj is moot
	case b.st() == xid.StatusCommitted || b.st() == xid.StatusCommitting:
		m.mu.Unlock()
		return fmt.Errorf("%w: dependent %v is already %v", ErrTerminated, tj, b.st())
	case b.st() == xid.StatusPrepared:
		// A prepared dependent promised a coordinator it can commit; a new
		// constraint could invalidate the vote.
		m.mu.Unlock()
		return fmt.Errorf("%w: dependent %v", ErrPrepared, tj)
	}
	switch {
	case a.st() == xid.StatusAborted || a.st() == xid.StatusAborting:
		m.mu.Unlock()
		if typ == xid.DepAD || typ == xid.DepGC ||
			(typ == xid.DepBD && b.st() == xid.StatusInitiated) {
			m.abortTxn(b, fmt.Errorf("%w: dependency on aborted %v", ErrAborted, ti))
		}
		return nil
	case a.st() == xid.StatusCommitting && typ == xid.DepGC:
		m.mu.Unlock()
		return fmt.Errorf("%w: group commit with committing %v", ErrTerminated, ti)
	case a.st() == xid.StatusPrepared && typ == xid.DepGC:
		// The prepared supporter's GC closure was fixed by its vote; the
		// group cannot grow while the verdict is pending. (CD/AD on a
		// prepared supporter are fine — the dependent waits on its term.)
		m.mu.Unlock()
		return fmt.Errorf("%w: group commit with prepared %v", ErrPrepared, ti)
	case a.st() == xid.StatusCommitted:
		m.mu.Unlock()
		switch typ {
		case xid.DepGC:
			return fmt.Errorf("%w: group commit with committed %v", ErrTerminated, ti)
		case xid.DepBAD, xid.DepEXC:
			// The committed ti forecloses tj's outcome immediately.
			m.abortTxn(b, fmt.Errorf("%w: excluded by committed %v", ErrAborted, ti))
			return nil
		}
		return nil // CD/AD/BD on a committed supporter are satisfied
	}
	defer m.mu.Unlock()
	return m.deps.Form(typ, ti, tj)
}
