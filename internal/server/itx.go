package server

import (
	"context"
	"fmt"
	"sync"
	"time"

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
// against the body being gone. An op is a small value (the request, the
// response to fill, the channel its inbound already owns), so the hop
// into the body allocates nothing.
type itx struct {
	tid xid.TID

	// ctx governs the transaction's lifetime: a child of the session
	// ctx, so session death (lease expiry, Bye, server close) aborts the
	// transaction through core's context watcher.
	ctx       context.Context
	cancelCtx context.CancelCauseFunc

	ops  chan srvOp
	gone chan struct{} // closed when the body has returned (or never will run)

	mu    sync.Mutex
	state itxState

	goneOnce sync.Once
}

type itxState int

const (
	stCreated   itxState = iota // initiated; no body goroutine yet
	stBeginning                 // BeginCtx in flight
	stRunning                   // body goroutine draining ops
	stDone                      // body returned or begin failed
)

// srvOp is one message to the body: a data operation to run under ctx
// and answer on res, or the finish op that ends the body (which answers
// by closing gone).
type srvOp struct {
	ctx    context.Context
	req    *rpc.Request
	resp   *rpc.Response
	res    chan error // buffered(1): the body never blocks replying
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
			op.res <- dataOp(op.ctx, tx, op.req, op.resp)
		}
		return nil
	}
}

func (t *itx) closeGone() { t.goneOnce.Do(func() { close(t.gone) }) }

// begin starts the transaction. reqCtx cancellation while Begin blocks
// (admission queue, begin-dependency gates) aborts the transaction —
// there is no half-begun state to leave behind.
func (t *itx) begin(reqCtx context.Context, m *core.Manager) error {
	t.mu.Lock()
	if t.state != stCreated {
		t.mu.Unlock()
		return core.ErrAlreadyBegun
	}
	t.state = stBeginning
	t.mu.Unlock()
	// Bridge the per-request cancel onto the transaction's own ctx for
	// the duration of the begin: BeginCtx waits observe the txn ctx.
	stop := context.AfterFunc(reqCtx, func() {
		t.cancelCtx(fmt.Errorf("begin cancelled: %w", context.Cause(reqCtx)))
	})
	err := m.BeginCtx(t.ctx, t.tid)
	stop()
	t.mu.Lock()
	if err != nil {
		t.state = stDone
		t.closeGone()
	} else {
		t.state = stRunning
	}
	t.mu.Unlock()
	return err
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
	// The body is normally parked on t.ops, so the hand-off succeeds at
	// once — without asking ctx for its Done channel, which a cancel
	// context only builds (one allocation) when first asked.
	select {
	case t.ops <- op:
		return <-op.res
	default:
	}
	select {
	case t.ops <- op:
		return <-op.res
	case <-t.gone:
		return core.ErrTerminated
	case <-op.ctx.Done():
		return fmt.Errorf("server: op abandoned: %w", context.Cause(op.ctx))
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
		t.mu.Lock()
		st := t.state
		if st == stCreated {
			// Never begun: no body to finish; CommitCtx will say ErrNotBegun.
			t.state = stDone
			t.closeGone()
		}
		t.mu.Unlock()
		switch st {
		case stCreated, stDone:
			return nil
		case stBeginning:
			select {
			case <-t.gone:
				return nil // begin failed; no body ever ran
			case <-ctx.Done():
				return fmt.Errorf("server: commit abandoned before completion: %w", context.Cause(ctx))
			case <-time.After(time.Millisecond):
			}
		case stRunning:
			select {
			case t.ops <- srvOp{finish: true}:
				<-t.gone
				return nil
			case <-t.gone:
				return nil // already finished (e.g. an earlier commit attempt)
			case <-ctx.Done():
				return fmt.Errorf("server: commit abandoned before completion: %w", context.Cause(ctx))
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
		t.mu.Lock()
		st := t.state
		if st == stCreated {
			t.state = stDone
			t.closeGone()
		}
		t.mu.Unlock()
		switch st {
		case stCreated, stDone:
			return
		case stBeginning:
			// BeginCtx is unblocking on the cancelled ctx; wait it out.
			select {
			case <-t.gone:
				return
			case <-time.After(time.Millisecond):
			}
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
