package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/wal"
	"repro/internal/xid"
)

// TxnFunc is the body of a transaction. It receives the transaction handle
// (Go's substitute for the paper's implicit self()); returning nil marks the
// transaction completed (locks retained until commit), returning an error —
// or panicking — aborts it. The handle is valid until the function returns,
// like a testing.T: the manager recycles the descriptor behind it once the
// transaction has terminated and nothing holds it, so neither the body nor a
// goroutine it starts may keep the handle past its own end.
type TxnFunc func(tx *Tx) error

// undoRec is one entry of a transaction's undo responsibility list: enough
// to install the before image on abort. Delegation moves these records
// between transactions together with the locks.
type undoRec struct {
	seq    uint64 // the manager's append sequence: log order
	oid    xid.OID
	kind   wal.UpdateKind // the original operation
	before []byte         // modify, delete: the image to reinstall
	delta  int64          // delta: what was added, to be subtracted
}

// txn is the transaction descriptor (TD of §4.1): identity, parentage,
// status, the function to execute, and the undo responsibility list. The
// undo list is guarded by the manager mutex. Status transitions still
// happen under the manager mutex (they are read-modify-write decisions),
// but the field itself is atomic so status *reads* — the hot pre- and
// post-lock checks of every Tx operation, StatusOf, Transactions — need no
// mutex. abErr is written before the status turns aborting and never
// again, so any reader that observes an aborting/aborted status also
// observes the reason.
//
// The descriptor is one object: the handle its body receives is a field of
// it, its three lifecycle events and its caller token grow a channel only
// when somebody parks on them, and the first undo records live in it. It
// stays in the 320-byte size class (TestTxnSizeClass).
//
// Descriptors are recycled through the manager's free list. refs counts
// who holds one: the descriptor table (dropped at the reap, so never under
// ReapTerminated off), a body from beginOne until it has returned, the
// caller of an interactive transaction's handle until it calls Tx.Unpin
// (for good if it never does), and every path that keeps the *txn while
// the manager mutex is released — it pins it under the mutex (or while it
// already holds it) and unpins it after its last use. Whoever drops the
// last reference resets the descriptor and puts it on the free list. A
// reader that holds no reference may read a descriptor only while the
// table vouches for it: under the table's shard latch, or under the
// manager mutex after looking it up by tid (tids never repeat, so a
// recycled descriptor is never found under the old one).
type txn struct {
	id     xid.TID
	parent xid.TID
	fn     TxnFunc // nil: interactive (InitiateInteractive)
	tx     Tx      // the handle fn receives, or an interactive caller drives

	status atomic.Int32 // holds an xid.Status
	// admitted records that the transaction holds a Config.MaxLive
	// admission slot, which commit/abort must return to the gate.
	admitted atomic.Bool
	refs     atomic.Int32 // holders; the last to let go recycles (see above)
	abErr    error        // why the transaction aborted, if it did

	// done fires when the function finishes or the transaction aborts
	// (wait() unblocks on either), term on final termination, aborting when
	// the status turns aborting (waking the commit driver). evMu guards all
	// three and the caller token; it is a leaf, held for a test or a close.
	evMu     sync.Mutex
	done     event
	term     event
	aborting event
	tok      token

	// ctx binds external cancellation to the transaction. Written at
	// InitiateWith, or by BeginCtx before the status turns running (under
	// the manager mutex, before the body/watcher goroutines that read it
	// are spawned; BeginInteractive binds none); nil means no binding.
	// Every lock wait of the body uses it, and a watcher goroutine converts
	// its expiry into an abort.
	ctx context.Context
	// deadline is the watchdog reap point in unix nanoseconds; 0 = none.
	deadline atomic.Int64

	undo []undoRec
	// undoBuf backs undo for a transaction's first updates, which is all
	// most transactions make.
	undoBuf [2]undoRec
	// redo holds the withheld after-images of a transaction recovered in
	// doubt (prepared in the WAL, verdict unknown): installed on a commit
	// verdict, discarded on abort. Empty for ordinary transactions, whose
	// updates live in the cache and roll back via undo.
	redo []wal.RedoOp

	pool.Link[txn]
}

// event is a one-shot broadcast that costs nothing until someone waits on
// it: only a waiter that arrives before the firing makes a channel for the
// firing to close, and a fired event holds closedCh. Guarded by the owning
// txn's evMu.
type event struct {
	ch chan struct{} // nil: not fired, nobody waiting; closedCh: fired
}

// closedCh is what waiters on an already-fired event receive from.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// fire marks e as having happened and wakes its waiters. Idempotent.
func (t *txn) fire(e *event) {
	t.evMu.Lock()
	if e.ch != closedCh {
		if e.ch != nil {
			close(e.ch)
		}
		e.ch = closedCh
	}
	t.evMu.Unlock()
}

// wait returns a channel that is closed once e has fired.
func (t *txn) wait(e *event) <-chan struct{} {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	return e.ch
}

// fired reports whether e has fired.
func (t *txn) fired(e *event) bool {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	return e.ch == closedCh
}

// token is an interactive transaction's one-caller-at-a-time token (see
// Tx.Acquire). Taking a free token sets a flag; only an acquirer that finds
// it held makes a channel, which the release closes to wake every such
// acquirer to try again. Guarded by the owning txn's evMu.
type token struct {
	held bool
	ch   chan struct{}
}

// Acquire takes the handle's token, waiting while another caller holds it
// unless ctx ends first, in which case it returns ctx's cause and holds
// nothing. Callers that drive an interactive transaction from more than one
// goroutine hold the token across each operation and across Complete, which
// serializes them as a body's one goroutine would. The token guards the
// handle's callers only: primitives that name the transaction from outside
// (Abort, Commit, Wait, Delegate and the rest) take none.
func (tx *Tx) Acquire(ctx context.Context) error {
	t := tx.t
	for {
		t.evMu.Lock()
		if !t.tok.held {
			t.tok.held = true
			t.evMu.Unlock()
			return nil
		}
		if t.tok.ch == nil {
			t.tok.ch = make(chan struct{})
		}
		ch := t.tok.ch
		t.evMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}

// Release gives back the token Acquire took.
func (tx *Tx) Release() {
	t := tx.t
	t.evMu.Lock()
	t.tok.held = false
	if ch := t.tok.ch; ch != nil {
		t.tok.ch = nil
		close(ch)
	}
	t.evMu.Unlock()
}

func (t *txn) closeDone()  { t.fire(&t.done) }
func (t *txn) closeTerm()  { t.fire(&t.term) }
func (t *txn) closeAbort() { t.fire(&t.aborting) }

func (t *txn) doneCh() <-chan struct{}  { return t.wait(&t.done) }
func (t *txn) termCh() <-chan struct{}  { return t.wait(&t.term) }
func (t *txn) abortCh() <-chan struct{} { return t.wait(&t.aborting) }

// bgCtx caches context.Background() so lockCtx stays allocation-free:
// the literal backgroundCtx{} composite escapes at every call site it is
// inlined into, which would charge one heap object per unbound Lock/Read.
var bgCtx = context.Background()

// lockCtx is the context the transaction's lock requests wait under.
func (t *txn) lockCtx() context.Context {
	if t.ctx != nil {
		return t.ctx
	}
	return bgCtx
}

// newTxn hands out a descriptor for transaction id, initiated, from the
// free list when it has one, holding refs references. Not inlined: the
// make-one path must not be charged to //asset:noalloc callers.
//
//go:noinline
func (m *Manager) newTxn(id, parent xid.TID, fn TxnFunc, refs int32) *txn {
	t := m.free.Pop()
	if t == nil {
		t = &txn{}
		t.tx = Tx{m: m, t: t}
		t.undo = t.undoBuf[:0]
	}
	t.id, t.parent, t.fn = id, parent, fn
	t.refs.Store(refs)
	t.setSt(xid.StatusInitiated)
	return t
}

// pin takes a reference on t, which the caller must already be entitled
// to touch: it holds a reference of its own, or it holds m.mu and found t
// in the table.
func (t *txn) pin() { t.refs.Add(1) }

// unpin drops a reference on t; the last one recycles the descriptor.
// Safe with or without m.mu held.
func (m *Manager) unpin(t *txn) {
	switch n := t.refs.Add(-1); {
	case n == 0:
		t.reset()
		m.free.Push(t, maxFreeTxns)
	case n < 0:
		overUnpinned(t)
	}
}

//go:noinline
func overUnpinned(t *txn) {
	panic(fmt.Sprintf("core: descriptor of %v unpinned more often than pinned", t.id))
}

// reset empties a descriptor nothing holds any more, so that the free list
// keeps no body, context, error, image or channel alive. The handle (tx)
// stays bound to the descriptor, and undo restarts on undoBuf.
func (t *txn) reset() {
	t.id, t.parent, t.fn = xid.NilTID, xid.NilTID, nil
	t.abErr, t.ctx = nil, nil
	t.deadline.Store(0)
	t.done, t.term, t.aborting, t.tok = event{}, event{}, event{}, token{}
	clear(t.undoBuf[:])
	t.undo = t.undoBuf[:0]
	t.redo = nil
}

// maxFreeTxns bounds the descriptor free list; what a burst retires beyond
// it goes back to the collector.
const maxFreeTxns = 256

// st reads the transaction status; safe without any lock.
func (t *txn) st() xid.Status { return xid.Status(t.status.Load()) }

// setSt publishes a new status. Callers deciding a transition based on the
// current status must hold the manager mutex; the store itself makes the
// new status (and, for aborts, the previously written abErr) visible to
// lock-free readers.
func (t *txn) setSt(s xid.Status) { t.status.Store(int32(s)) }

// checkRunning verifies the transaction may perform operations; safe
// without any lock.
func (t *txn) checkRunning() error {
	switch st := t.st(); st {
	case xid.StatusRunning:
		return nil
	case xid.StatusAborting, xid.StatusAborted:
		return ErrAborted
	default:
		return fmt.Errorf("core: operation in %v transaction %v", st, t.id)
	}
}

// Tx is the handle a TxnFunc uses to operate on the database and to invoke
// transaction primitives with itself as the implicit subject. A body's
// handle is valid until the body returns; an interactive transaction's
// (InitiateInteractive, BeginInteractive) for as long as its caller holds a
// reference: the one initiation hands it, and any it takes with Pin.
type Tx struct {
	m *Manager
	t *txn
}

// Pin takes another reference on an interactive transaction's descriptor,
// for a second holder of the handle. The caller must hold one already.
func (tx *Tx) Pin() { tx.t.pin() }

// Unpin drops a reference Pin or initiation gave. Once the last is gone and
// the manager has reaped the terminated transaction, the descriptor is
// recycled and the handle names whatever transaction gets it next, so the
// holder must not touch it again. A caller that never unpins keeps its
// handle valid for good, and its descriptor is never recycled.
func (tx *Tx) Unpin() { tx.m.unpin(tx.t) }

// ID returns the transaction identifier (the paper's self()).
func (tx *Tx) ID() xid.TID { return tx.t.id }

// Parent returns the tid of the transaction that initiated this one, or the
// null tid for top-level transactions (the paper's parent()).
func (tx *Tx) Parent() xid.TID { return tx.t.parent }

// Manager returns the transaction manager, for invoking primitives on other
// transactions from within a transaction body.
func (tx *Tx) Manager() *Manager { return tx.m }

// Initiate registers a new transaction whose parent is this transaction.
func (tx *Tx) Initiate(fn TxnFunc) (xid.TID, error) {
	return tx.m.initiate(fn, tx.t.id)
}

// Status returns the transaction's current status (one of the query
// primitives §2.1 mentions in passing), read from the descriptor itself,
// lock-free. An interactive transaction's handle stays valid while its
// caller holds a reference, so it still reads the final status once the
// manager has dropped a terminated descriptor from its table; a body's
// handle is valid only until the body returns (see TxnFunc).
func (tx *Tx) Status() xid.Status { return tx.t.st() }
