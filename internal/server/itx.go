package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xid"
)

// itx is a server-side interactive transaction: the client's operations
// arrive as RPCs and are executed one at a time inside the transaction's
// body goroutine (core runs the body on its own goroutine; the Tx handle
// only exists there). Unlike the assetsh shell's single-threaded
// variant, every op carries its own result channel — concurrent RPC
// dispatch must not cross-deliver results — and delivery is guarded
// against the body being gone. An op is a small value (a context and the
// inbound, which owns the request, the response to fill and the reply
// channel), so the hop into the body allocates nothing.
type itx struct {
	tid xid.TID

	// ctx governs the transaction's lifetime: a child of the session
	// ctx, so session death (lease expiry, Bye, server close) aborts the
	// transaction through core's context watcher.
	ctx       context.Context
	cancelCtx context.CancelCauseFunc

	ops  chan srvOp
	gone chan struct{} // closed when the body has returned (or never will run)

	mu      sync.Mutex
	state   itxState
	settled chan struct{} // made by observe to wait out stBeginning; closed by settle

	goneOnce sync.Once
}

type itxState int

const (
	stCreated   itxState = iota // initiated; no body goroutine yet
	stBeginning                 // BeginCtx in flight
	stRunning                   // body goroutine draining ops
	stDone                      // body returned or begin failed
)

// srvOp is one message to the body: a data operation to run under ctx,
// or the finish op that ends the body (which answers by closing gone). A
// data operation a worker brought is answered on in.res; one the
// connection reader queued (direct) names the worker whose context it
// borrowed, and the body finishes the request in that worker's stead.
type srvOp struct {
	ctx    context.Context
	in     *inbound
	w      *worker
	finish bool
}

func newItx(sessCtx context.Context) *itx {
	ctx, cancel := context.WithCancelCause(sessCtx)
	return &itx{
		ctx:       ctx,
		cancelCtx: cancel,
		ops:       make(chan srvOp),
		gone:      make(chan struct{}),
	}
}

// body returns the core.TxnFunc executing this transaction: loop on ops
// until a finish op (commit/abort path) ends it. The body keeps draining
// even after an external abort — ops then fail with ErrAborted — so
// senders never hang on a live body.
func (t *itx) body() core.TxnFunc {
	return func(tx *core.Tx) error {
		defer t.closeGone()
		for op := range t.ops {
			if op.finish {
				return nil
			}
			err := dataOp(op.ctx, tx, &op.in.req, &op.in.resp)
			if op.w != nil {
				op.w.finish(op.in, err)
			} else {
				op.in.res <- err
			}
		}
		return nil
	}
}

func (t *itx) closeGone() { t.goneOnce.Do(func() { close(t.gone) }) }

// begin starts the transaction. BeginCtx waits (admission queue,
// begin-dependency gates) observe the transaction's own ctx: session
// death reaches it as the parent's, and a cancel of the begin request is
// passed on to it by worker.cancelLocked, so a cancelled begin aborts the
// transaction — there is no half-begun state to leave behind.
func (t *itx) begin(m *core.Manager) error {
	t.mu.Lock()
	if t.state != stCreated {
		t.mu.Unlock()
		return core.ErrAlreadyBegun
	}
	t.state = stBeginning
	t.mu.Unlock()
	err := m.BeginCtx(t.ctx, t.tid)
	if err != nil {
		t.settle(stDone)
	} else {
		t.settle(stRunning)
	}
	return err
}

// settle ends stBeginning, waking whoever waits the begin out.
func (t *itx) settle(st itxState) {
	t.mu.Lock()
	t.state = st
	if st == stDone {
		t.closeGone()
	}
	if t.settled != nil {
		close(t.settled)
	}
	t.mu.Unlock()
}

// observe is the first step of ending the body. It returns the state it
// found, having ended a transaction never begun on the spot (no body to
// finish; CommitCtx will say ErrNotBegun), and for a begin in flight the
// channel that settle closes.
func (t *itx) observe() (itxState, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case stCreated:
		t.state = stDone
		t.closeGone()
		return stCreated, nil
	case stBeginning:
		if t.settled == nil {
			t.settled = make(chan struct{})
		}
	}
	return t.state, t.settled
}

// direct queues a data operation straight to a body parked on t.ops, to
// run under idle worker w's context: one hop where the worker path makes
// two. False — not a data operation, no transaction, or a body that is
// busy, not begun or gone — sends the request the worker's way, which
// also says why. Called by dispatch under session.mu, hence no waiting.
func (t *itx) direct(w *worker, in *inbound) bool {
	if t == nil || in.req.Op < rpc.OpLock || in.req.Op > rpc.OpReadCounter {
		return false
	}
	select {
	case t.ops <- srvOp{ctx: w.ctx, in: in, w: w}:
		return true
	default:
		return false
	}
}

var errBodyGone = errors.New("server: transaction body gone")

// deliver hands op to the body. The body is normally parked on t.ops, so
// the hand-off succeeds at once — without asking ctx for its Done
// channel, which a cancel context only builds (one allocation) when first
// asked. Otherwise it waits for the body, its end (errBodyGone) or ctx
// (its cause).
func (t *itx) deliver(ctx context.Context, op srvOp) error {
	select {
	case t.ops <- op:
		return nil
	default:
	}
	select {
	case t.ops <- op:
		return nil
	case <-t.gone:
		return errBodyGone
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// do runs op inside the body. Cancellation before delivery leaves the
// transaction untouched; after delivery the op itself observes the
// request ctx (LockCtx/AddCtx), so do waits for its result
// unconditionally — the reply is prompt and attributes the op's true
// outcome, and op.res is empty again when do returns.
func (t *itx) do(op srvOp) error {
	t.mu.Lock()
	st := t.state
	t.mu.Unlock()
	switch st {
	case stCreated, stBeginning:
		return core.ErrNotBegun
	case stDone:
		return core.ErrTerminated
	}
	switch err := t.deliver(op.ctx, op); {
	case err == nil:
		return <-op.in.res
	case errors.Is(err, errBodyGone):
		return core.ErrTerminated
	default:
		return fmt.Errorf("server: op abandoned: %w", err)
	}
}

// finishBody ends the body's op loop ahead of commit: the transaction
// must reach StatusCompleted (body returned) before CommitCtx drives the
// group. Cancellation before the finish op lands leaves the body — and
// the transaction — running and intact. A commit racing an in-flight
// begin waits the begin out (the way unwindWith does) rather than
// skipping the finish op — skipping would hand CommitCtx a body that
// never completes.
func (t *itx) finishBody(ctx context.Context) error {
	for {
		st, settled := t.observe()
		switch st {
		case stCreated, stDone:
			return nil
		case stBeginning:
			select {
			case <-settled: // a failed begin settles as stDone: no body ever ran
			case <-ctx.Done():
				return fmt.Errorf("server: commit abandoned before completion: %w", context.Cause(ctx))
			}
		case stRunning:
			switch err := t.deliver(ctx, srvOp{finish: true}); {
			case err == nil:
				<-t.gone
				return nil
			case errors.Is(err, errBodyGone):
				return nil // already finished (e.g. an earlier commit attempt)
			default:
				return fmt.Errorf("server: commit abandoned before completion: %w", err)
			}
		}
	}
}

// unwind makes the body exit unconditionally — the teardown path for
// abort, lease expiry, Bye, and server close. The transaction ctx is
// cancelled first (unblocking any op stuck inside the body), then the
// finish op is delivered. Never blocks forever: a body stuck in an op
// observes its request ctx (child of the cancelled session ctx) or the
// transaction's abort.
func (t *itx) unwind() { t.unwindWith(core.ErrTerminated) }

// unwindWith is unwind with an explicit cancellation cause: the abort
// reason in-flight operations observe (e.g. ErrLeaseExpired), which the
// wire error encoding then carries to the client intact.
func (t *itx) unwindWith(reason error) {
	t.cancelCtx(reason)
	for {
		st, settled := t.observe()
		switch st {
		case stCreated, stDone:
			return
		case stBeginning:
			// BeginCtx is unblocking on the cancelled ctx; wait it out.
			<-settled
		case stRunning:
			select {
			case t.ops <- srvOp{finish: true}:
				return
			case <-t.gone:
				return
			}
		}
	}
}
