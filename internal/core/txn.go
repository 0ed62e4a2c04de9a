package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
	"repro/internal/xid"
)

// TxnFunc is the body of a transaction. It receives the transaction handle
// (Go's substitute for the paper's implicit self()); returning nil marks the
// transaction completed (locks retained until commit), returning an error —
// or panicking — aborts it.
type TxnFunc func(tx *Tx) error

// undoRec is one entry of a transaction's undo responsibility list: enough
// to install the before image on abort. Delegation moves these records
// between transactions together with the locks.
type undoRec struct {
	lsn    uint64
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
// The descriptor is one heap object: the handle its body receives is a
// field of it, its three lifecycle events are flags that grow a channel
// only when somebody parks on them, and the first undo records live in it.
// Descriptors are not recycled — commit drivers, begin gates, context
// watchers and Close hold *txn across waits with no latch that could vouch
// for a second life.
type txn struct {
	id     xid.TID
	parent xid.TID
	fn     TxnFunc
	tx     Tx // the handle fn receives

	status atomic.Int32 // holds an xid.Status
	abErr  error        // why the transaction aborted, if it did

	// done fires when the function finishes or the transaction aborts
	// (wait() unblocks on either), term on final termination, aborting when
	// the status turns aborting (waking the commit driver). evMu guards all
	// three; it is a leaf, held for a flag test or a close.
	evMu     sync.Mutex
	done     event
	term     event
	aborting event

	// ctx binds external cancellation to the transaction. Written at
	// InitiateWith, or by BeginCtx before the status turns running (under
	// the manager mutex, before the body/watcher goroutines that read it
	// are spawned); nil means no binding. Every lock wait of the body uses
	// it, and a watcher goroutine converts its expiry into an abort.
	ctx context.Context
	// deadline is the watchdog reap point in unix nanoseconds; 0 = none.
	deadline atomic.Int64
	// admitted records that the transaction holds a Config.MaxLive
	// admission slot, which commit/abort must return to the gate.
	admitted atomic.Bool

	undo []undoRec
	// undoBuf backs undo for a transaction's first updates, which is all
	// most transactions make.
	undoBuf [2]undoRec
	// redo holds the withheld after-images of a transaction recovered in
	// doubt (prepared in the WAL, verdict unknown): installed on a commit
	// verdict, discarded on abort. Empty for ordinary transactions, whose
	// updates live in the cache and roll back via undo.
	redo []wal.RedoOp
}

// event is a one-shot broadcast that costs nothing until someone waits on
// it: firing sets a flag, and only a waiter that arrives before the firing
// makes a channel for the firing to close. Guarded by the owning txn's
// evMu.
type event struct {
	fired bool
	ch    chan struct{}
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
	if !e.fired {
		e.fired = true
		if e.ch != nil {
			close(e.ch)
		}
	}
	t.evMu.Unlock()
}

// wait returns a channel that is closed once e has fired.
func (t *txn) wait(e *event) <-chan struct{} {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	if e.fired {
		return closedCh
	}
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	return e.ch
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

func (m *Manager) newTxn(id, parent xid.TID, fn TxnFunc) *txn {
	t := &txn{id: id, parent: parent, fn: fn}
	t.tx = Tx{m: m, t: t}
	t.undo = t.undoBuf[:0]
	t.setSt(xid.StatusInitiated)
	return t
}

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
// transaction primitives with itself as the implicit subject.
type Tx struct {
	m *Manager
	t *txn
}

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
// primitives §2.1 mentions in passing).
func (tx *Tx) Status() xid.Status { return tx.m.StatusOf(tx.t.id) }
