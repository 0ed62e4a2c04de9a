package server

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/xid"
)

// itx is a server-side interactive transaction: a core transaction begun
// without a body (core.Manager.BeginInteractive), whose operations arrive
// as requests and run on the worker goroutine serving each one. The token
// serializes them as a body's one goroutine would: begin, every data
// operation and completion hold it while they run, so the handle never sees
// two operations at once and a completion never overtakes a begin or an
// operation under way. Abort takes no token: core aborts a transaction from
// any goroutine, and an operation in flight observes it.
type itx struct {
	tid   xid.TID
	tok   chan struct{} // capacity 1: full while a request drives the transaction
	tx    *core.Tx      // the handle once begun; guarded by tok
	ended bool          // completed, so no operation may follow; guarded by tok
}

func newItx(tid xid.TID) *itx {
	return &itx{tid: tid, tok: make(chan struct{}, 1)}
}

// acquire takes the token, waiting out the request that holds it unless
// ctx ends first, in which case it returns ctx's cause.
func (t *itx) acquire(ctx context.Context) error {
	select {
	case t.tok <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (t *itx) release() { <-t.tok }

// begin begins the transaction. ctx — the begin request's — bounds the
// begin's waits (admission queue, begin-dependency gates): a cancel of the
// request or the session's death there aborts the transaction, so there is
// no half-begun state to leave behind.
func (t *itx) begin(ctx context.Context, m *core.Manager) error {
	if err := t.acquire(ctx); err != nil {
		return err
	}
	defer t.release()
	tx, err := m.BeginInteractive(ctx, t.tid)
	if err == nil {
		t.tx = tx
	}
	return err
}

// do runs one data operation on the transaction under ctx. Cancellation
// before the token is taken leaves the transaction untouched; after, the
// operation itself observes ctx (LockCtx/AddCtx).
func (t *itx) do(ctx context.Context, in *inbound) error {
	if err := t.acquire(ctx); err != nil {
		return fmt.Errorf("server: op abandoned: %w", err)
	}
	defer t.release()
	switch {
	case t.ended:
		return core.ErrTerminated
	case t.tx == nil:
		return core.ErrNotBegun
	}
	return dataOp(ctx, t.tx, &in.req, &in.resp)
}

// complete ends the transaction's execution ahead of its commit or
// prepare, which drive only completed transactions. It waits for a begin or
// an operation under way unless ctx ends first, which leaves the
// transaction running and intact. A transaction never begun is left as it
// is (CommitCtx says ErrNotBegun).
func (t *itx) complete(ctx context.Context) error {
	if err := t.acquire(ctx); err != nil {
		return fmt.Errorf("server: commit abandoned before completion: %w", err)
	}
	defer t.release()
	if t.tx != nil {
		t.tx.Complete()
		t.ended = true
	}
	return nil
}
