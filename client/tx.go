package client

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xid"
)

// This file is the remote ASSET surface: one method per protocol
// operation, mirroring core's primitives, plus the Run engine that
// drives whole transaction bodies through the shared retry policy.

// Initiate creates a transaction on the server (paper: initiate).
func (c *Client) Initiate(ctx context.Context) (xid.TID, error) {
	resp, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpInitiate})
	if err != nil {
		return xid.NilTID, err
	}
	return xid.TID(resp.TID), nil
}

// Begin starts tid executing (paper: begin).
func (c *Client) Begin(ctx context.Context, tid xid.TID) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpBegin, TID: uint64(tid)})
	return err
}

// Commit commits tid and returns the decision (paper: commit). Under
// retransmission the decision is exactly-once: a retried commit fetches
// the recorded verdict, never re-runs the commit protocol.
func (c *Client) Commit(ctx context.Context, tid xid.TID) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpCommit, TID: uint64(tid)})
	return err
}

// Abort aborts tid (paper: abort).
func (c *Client) Abort(ctx context.Context, tid xid.TID) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpAbort, TID: uint64(tid)})
	return err
}

// Wait blocks until tid terminates (paper: wait); nil means committed or
// completed, ErrAborted means aborted.
func (c *Client) Wait(ctx context.Context, tid xid.TID) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpWait, TID: uint64(tid)})
	return err
}

// Status queries tid's status without waiting.
func (c *Client) Status(ctx context.Context, tid xid.TID) (xid.Status, error) {
	resp, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpStatus, TID: uint64(tid)})
	if err != nil {
		return 0, err
	}
	return xid.Status(resp.Status), nil
}

// Delegate transfers responsibility for oid (0 = everything) from one
// transaction to another (paper: delegate).
func (c *Client) Delegate(ctx context.Context, from, to xid.TID, oid xid.OID) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpDelegate,
		TID: uint64(from), Other: uint64(to), OID: uint64(oid)})
	return err
}

// Permit grants grantee conflict permission on grantor's locks (paper:
// permit). oid 0 = every object; grantee NilTID = any transaction.
func (c *Client) Permit(ctx context.Context, grantor, grantee xid.TID, oid xid.OID, ops xid.OpSet) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpPermit,
		TID: uint64(grantor), Other: uint64(grantee), OID: uint64(oid), Mode: uint64(ops)})
	return err
}

// FormDependency records form_dependency(typ, ti, tj).
func (c *Client) FormDependency(ctx context.Context, typ xid.DepType, ti, tj xid.TID) error {
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpFormDep,
		TID: uint64(ti), Other: uint64(tj), Mode: uint64(typ)})
	return err
}

// Tx is a handle on one remote transaction; its operations execute
// inside the transaction's body on the server.
type Tx struct {
	c   *Client
	tid xid.TID
}

// Tx wraps tid in an operation handle (for transactions managed via
// explicit Initiate/Begin).
func (c *Client) Tx(tid xid.TID) *Tx { return &Tx{c: c, tid: tid} }

// ID returns the remote transaction ID.
func (tx *Tx) ID() xid.TID { return tx.tid }

func (tx *Tx) op(ctx context.Context, req rpc.Request) (rpc.Response, error) {
	req.TID = uint64(tx.tid)
	return tx.c.roundTrip(ctx, req)
}

// Lock acquires ops on oid (strict 2PL; held to termination).
func (tx *Tx) Lock(ctx context.Context, oid xid.OID, ops xid.OpSet) error {
	_, err := tx.op(ctx, rpc.Request{Op: rpc.OpLock, OID: uint64(oid), Mode: uint64(ops)})
	return err
}

// Read returns oid's value under a read lock.
func (tx *Tx) Read(ctx context.Context, oid xid.OID) ([]byte, error) {
	resp, err := tx.op(ctx, rpc.Request{Op: rpc.OpRead, OID: uint64(oid)})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Write replaces oid's value under a write lock.
func (tx *Tx) Write(ctx context.Context, oid xid.OID, data []byte) error {
	_, err := tx.op(ctx, rpc.Request{Op: rpc.OpWrite, OID: uint64(oid), Data: data})
	return err
}

// Create allocates a new object holding data.
func (tx *Tx) Create(ctx context.Context, data []byte) (xid.OID, error) {
	resp, err := tx.op(ctx, rpc.Request{Op: rpc.OpCreate, Data: data})
	if err != nil {
		return xid.NilOID, err
	}
	return xid.OID(resp.OID), nil
}

// Delete removes oid.
func (tx *Tx) Delete(ctx context.Context, oid xid.OID) error {
	_, err := tx.op(ctx, rpc.Request{Op: rpc.OpDelete, OID: uint64(oid)})
	return err
}

// Add escrow-adds delta to counter oid (commutative increment locks).
func (tx *Tx) Add(ctx context.Context, oid xid.OID, delta int64) error {
	_, err := tx.op(ctx, rpc.Request{Op: rpc.OpAdd, OID: uint64(oid), Delta: delta})
	return err
}

// DeclareEscrow declares bounds [lo, hi] on counter oid.
func (tx *Tx) DeclareEscrow(ctx context.Context, oid xid.OID, lo, hi uint64) error {
	_, err := tx.op(ctx, rpc.Request{Op: rpc.OpDeclareEscrow, OID: uint64(oid), Lo: lo, Hi: hi})
	return err
}

// ReadCounter reads counter oid under a read lock.
func (tx *Tx) ReadCounter(ctx context.Context, oid xid.OID) (uint64, error) {
	resp, err := tx.op(ctx, rpc.Request{Op: rpc.OpReadCounter, OID: uint64(oid)})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

// Run executes fn as a remote transaction (initiate, begin, fn, commit)
// and retries retryable failures — transport drops, lease expiries,
// deadlock victimhood, admission sheds — through core.Retry, the same
// engine local transactions use. Overload responses carry a server
// backoff hint that floors the sleep. Terminal errors (including
// ErrUnknownOutcome, which must reconcile rather than re-run) return
// immediately.
func (c *Client) Run(ctx context.Context, opts core.RunOptions, fn func(ctx context.Context, tx *Tx) error) error {
	if opts.RetryAfter == nil {
		opts.RetryAfter = rpc.RetryAfterHint
	}
	return core.Retry(ctx, opts, nil, func(ctx context.Context) error {
		return c.runOnce(ctx, fn)
	})
}

// runOnce performs a single initiate/begin/fn/commit attempt.
func (c *Client) runOnce(ctx context.Context, fn func(ctx context.Context, tx *Tx) error) error {
	tid, err := c.Initiate(ctx)
	if err != nil {
		return err
	}
	if err := c.Begin(ctx, tid); err != nil {
		return err
	}
	if err := fn(ctx, c.Tx(tid)); err != nil {
		// Best-effort abort so the failed attempt strands nothing; its
		// own short deadline keeps a dead network from hanging the retry.
		actx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		c.Abort(actx, tid) //nolint:errcheck
		cancel()
		return fmt.Errorf("client: transaction body: %w", err)
	}
	return c.Commit(ctx, tid)
}
