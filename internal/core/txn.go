package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lock"
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
	seq  uint64 // the manager's append sequence: log order
	oid  xid.OID
	kind wal.UpdateKind // the original operation
	// kept says before is a copy in the responsible descriptor's image
	// buffer (an in-place write's), which a delegation must copy on, rather
	// than a buffer of the record's own.
	kept   bool
	before []byte // modify, delete: the image to reinstall
	delta  int64  // delta: what was added, to be subtracted
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
// it, its three lifecycle events borrow a waiter's recycled wake channel
// (see event) and its caller token grows a channel only when somebody parks
// on it, and the first undo records and the before images of in-place
// writes live in it. It stays in the 320-byte size class (TestTxnSizeClass).
//
// Descriptors are recycled through the manager's free list. refs counts
// who holds one: the descriptor table (dropped at the reap, which follows
// termination at once and leaves the outcome in the manager's ring), a
// body from beginOne until it has returned, the caller of an interactive
// transaction's handle until it calls Tx.Unpin (for good if it never
// does), and every path that keeps the *txn while the manager mutex is
// released — it pins it under the mutex (or while it already holds it)
// and unpins it after its last use. Whoever drops the last reference
// resets the descriptor and puts it on the free list. A reader that holds
// no reference may read a descriptor only while the table vouches for it:
// under the table's shard latch, or under the manager mutex after looking
// it up by tid (tids never repeat, so a recycled descriptor is never found
// under the old one).
type txn struct {
	id     xid.TID
	parent xid.TID
	fn     TxnFunc // nil: interactive (InitiateInteractive)
	tx     Tx      // the handle fn receives, or an interactive caller drives

	status atomic.Int32 // holds an xid.Status
	// admitted records that the transaction holds a Config.MaxLive
	// admission slot, which commit/abort must return to the gate.
	admitted atomic.Bool
	// tokHeld says a caller holds the handle's token (Tx.Acquire); tok is
	// the channel its acquirers park on while it is held, made by the first
	// of them. Both are guarded by evMu.
	tokHeld bool
	refs    atomic.Int32 // holders; the last to let go recycles (see above)
	abErr   error        // why the transaction aborted, if it did

	// done fires when the function finishes or the transaction aborts
	// (Wait unblocks on either), term on final termination, aborting when
	// the status turns aborting (waking the commit driver). evMu guards all
	// three and the caller token; it is a leaf, held for a test, a lend, a
	// reclaim or a firing.
	evMu     sync.Mutex
	done     event
	term     event
	aborting event
	tok      chan struct{}

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
	// imgs holds the before images of the transaction's in-place writes,
	// which its undo records (kept set) point into. Guarded by the manager
	// mutex, like undo; emptied, not dropped, when the descriptor is
	// recycled, unless it grew past maxKeptImages.
	imgs []byte
	// lk is the transaction's state in the lock table, resolved by tid when
	// it begins (before the status turns running, which every lock request
	// checks first), so that its locks skip the lookup by tid.
	lk lock.Holder

	pool.Link[txn]
}

// event is a one-shot signal that costs nothing to wait on. Its channel is
// nil until somebody waits. The first waiter lends it the one-token wake
// channel it took from the manager's free list (waker); a second waiter
// makes a broadcast channel for all of them and moves the first onto it
// with a token. Firing sends the token to a lent channel, closes a
// broadcast one, and leaves closedCh. A waiter holds a reference on the
// descriptor while it waits and takes its channel back (reclaim) before it
// lets go, so a recycled descriptor never holds another's channel. Guarded
// by the owning txn's evMu.
type event struct {
	ch chan struct{} // nil: not fired, nobody waiting; closedCh: fired
}

// closedCh is what waiters on an already-fired event receive from.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// waker is the one-token wake channel a waiter lends to the events it
// waits on. Wakers are recycled through the manager's free list, which
// gets each back empty: its borrower reclaimed it from every event first,
// so nothing sends to it any more, and drained it.
type waker struct {
	ch chan struct{} // capacity 1: a lent channel is the only kind with room
	pool.Link[waker]
}

// maxFreeWakers bounds the manager's waker free list.
const maxFreeWakers = 256

// lent reports whether ch is a waiter's wake channel rather than a
// broadcast channel or closedCh.
func lent(ch chan struct{}) bool { return cap(ch) == 1 }

// wake puts the token in a lent channel unless it holds one already.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// fire marks e as having happened and wakes its waiters. Idempotent.
func (t *txn) fire(e *event) {
	t.evMu.Lock()
	switch {
	case e.ch == nil || e.ch == closedCh:
	case lent(e.ch):
		wake(e.ch)
	default:
		close(e.ch)
	}
	e.ch = closedCh
	t.evMu.Unlock()
}

// lend returns the channel a waiter on e receives from: closedCh once e has
// fired; w's channel, which e keeps until it fires or w is reclaimed, if
// nobody else waits; otherwise the broadcast channel the waiters share. A
// waiter that finds another's channel lent makes that channel, wakes the
// other so that it lends again and finds it, and installs it. A nil w asks
// for the broadcast channel.
func (t *txn) lend(e *event, w *waker) <-chan struct{} {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	switch {
	case e.ch == nil && w != nil:
		e.ch = w.ch
	case e.ch == nil:
		e.ch = make(chan struct{})
	case lent(e.ch) && (w == nil || e.ch != w.ch):
		wake(e.ch)
		e.ch = make(chan struct{})
	}
	return e.ch
}

// reclaim takes w's channel back from e if e still holds it.
func (t *txn) reclaim(e *event, w *waker) {
	t.evMu.Lock()
	if e.ch == w.ch {
		e.ch = nil
	}
	t.evMu.Unlock()
}

// fired reports whether e has fired.
func (t *txn) fired(e *event) bool {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	return e.ch == closedCh
}

// await parks the caller until e, an event of t, fires (it returns 0),
// until also, an event of u, fires (1), or until stop closes (2). u and
// also may be nil, and so may stop. The caller holds a reference on t and
// on u, so that the events are still theirs when the waker is reclaimed
// from them. One waker from the manager's free list serves both events;
// woken without a closed channel to show for it, the caller lends again,
// which tells a firing (closedCh) from a move onto a broadcast channel.
func (m *Manager) await(t *txn, e *event, u *txn, also *event, stop <-chan struct{}) int {
	w := m.wakers.Pop()
	if w == nil {
		w = newWaker()
	}
	which := -1
	for which < 0 {
		a := t.lend(e, w)
		var b <-chan struct{}
		if also != nil {
			b = u.lend(also, w)
		}
		select {
		case <-a:
			if a != w.ch {
				which = 0
			}
		case <-b:
			if b != w.ch {
				which = 1
			}
		case <-stop:
			which = 2
		}
	}
	t.reclaim(e, w)
	if also != nil {
		u.reclaim(also, w)
	}
	select { // a token that came after the wake-up this wait acted on
	case <-w.ch:
	default:
	}
	m.wakers.Push(w, maxFreeWakers)
	return which
}

// newWaker makes a waker when the free list is empty. Not inlined, so that
// the make is charged here.
//
//go:noinline
func newWaker() *waker { return &waker{ch: make(chan struct{}, 1)} }

// Acquire takes the handle's token, waiting while another caller holds it
// unless ctx ends first, in which case it returns ctx's cause and holds
// nothing. Callers that drive an interactive transaction from more than one
// goroutine hold the token across each operation and across Complete, which
// serializes them as a body's one goroutine would. The token guards the
// handle's callers only: primitives that name the transaction from outside
// (Abort, Commit, Wait, Delegate and the rest) take none. Taking a free
// token sets a flag; only an acquirer that finds it held makes a channel,
// which the release closes to wake every such acquirer to try again.
func (tx *Tx) Acquire(ctx context.Context) error {
	t := tx.t
	for {
		t.evMu.Lock()
		if !t.tokHeld {
			t.tokHeld = true
			t.evMu.Unlock()
			return nil
		}
		if t.tok == nil {
			t.tok = make(chan struct{})
		}
		ch := t.tok
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
	t.tokHeld = false
	if ch := t.tok; ch != nil {
		t.tok = nil
		close(ch)
	}
	t.evMu.Unlock()
}

func (t *txn) closeDone()  { t.fire(&t.done) }
func (t *txn) closeTerm()  { t.fire(&t.term) }
func (t *txn) closeAbort() { t.fire(&t.aborting) }

// abortCh returns a channel that is closed once t turns aborting, for a
// waiter that selects on a send as well, which await cannot.
func (t *txn) abortCh() <-chan struct{} { return t.lend(&t.aborting, nil) }

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
// make-one path stays out of its callers' frames, whose recycled-descriptor
// passes TestLocalTxnAllocBudget holds to their allocation budgets.
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
// stays bound to the descriptor, undo keeps the (empty) array the
// transaction's commit or abort left it (see dropUndo), and imgs keeps its
// array for the next transaction's before images.
func (t *txn) reset() {
	t.id, t.parent, t.fn = xid.NilTID, xid.NilTID, nil
	t.abErr, t.ctx = nil, nil
	t.deadline.Store(0)
	t.done, t.term, t.aborting = event{}, event{}, event{}
	t.tokHeld, t.tok = false, nil
	t.imgs = keptImages(t.imgs)
	t.lk = lock.Holder{}
}

// dropUndo empties t's undo list once nothing can roll it back, at its
// commit or abort. The array goes back to undoBuf unless t needed more
// than maxKeptUndo records: a run of bulk transactions on one descriptor
// then reuses one array instead of regrowing it from nothing every time,
// and the first transaction within maxKeptUndo that gets the descriptor
// lets it go. Caller holds m.mu.
func (t *txn) dropUndo() {
	clear(t.undo)
	clear(t.undoBuf[:]) // stale copies once undo outgrew it
	if len(t.undo) > maxKeptUndo {
		t.undo = t.undo[:0]
	} else {
		t.undo = t.undoBuf[:0]
	}
}

// keptImages returns an image buffer emptied for reuse, or nil if it grew
// past maxKeptImages.
func keptImages(b []byte) []byte {
	if cap(b) > maxKeptImages {
		return nil
	}
	return b[:0]
}

// keepImage appends a copy of b to the descriptor's image buffer and
// returns the copy, capped so that a later append cannot reach it. An
// append that outgrows the buffer moves on to a larger array and leaves
// the earlier copies where they are, in the old one. Caller holds m.mu.
func (t *txn) keepImage(b []byte) []byte {
	n := len(t.imgs)
	t.imgs = append(t.imgs, b...)
	return t.imgs[n:len(t.imgs):len(t.imgs)]
}

// maxFreeTxns bounds the descriptor free list; what a burst retires beyond
// it goes back to the collector.
const maxFreeTxns = 256

// maxKeptUndo is the most undo records a transaction may make and still
// leave its descriptor an undo array no larger than undoBuf (dropUndo).
const maxKeptUndo = 64

// maxKeptImages bounds the image buffer a recycled descriptor keeps: a
// transaction whose before images outgrew it gives the buffer back to the
// collector, so that the free list holds at most maxFreeTxns of these.
const maxKeptImages = 1024

// outcome reads the transaction's status and, aborting or aborted, its
// reason. Safe without any lock on a descriptor the caller holds: the
// reason is written before the status that makes it readable, and read
// only after it.
func (t *txn) outcome() outcome {
	o := outcome{tid: t.id, st: t.st()}
	if o.st == xid.StatusAborting || o.st == xid.StatusAborted {
		o.reason = t.abErr
	}
	return o
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
// the transaction has terminated (the manager reaps it then), the
// descriptor is recycled and the handle names whatever transaction gets it
// next, so the holder must not touch it again; the outcome stays
// answerable by tid (Manager.StatusOf) while the manager's outcome ring
// remembers it. A caller that never unpins keeps its handle valid for good,
// and its descriptor is never recycled.
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
