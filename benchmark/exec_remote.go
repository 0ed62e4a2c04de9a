package main

import (
	"context"
	"errors"
	"fmt"

	asset "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/txcoord"
)

// remoteExec composes the same script from client primitives: every
// primitive and every data operation is one round trip to the node that
// owns the key. With two nodes an xfer is a two-phase commit driven by the
// in-process coordinator.
type remoteExec struct {
	e *engine
}

// remoteOps is ops over a remote transaction handle, one span per round
// trip.
type remoteOps struct {
	tx     *client.Tx
	tr     *tracer
	trace  uint32
	parent spanID
}

func (o *remoteOps) lock(oid asset.OID, mode asset.OpSet) error {
	s := o.tr.begin(o.trace, o.parent, spClientLock)
	err := o.tx.Lock(bg, oid, mode)
	o.tr.end(s)
	return err
}

func (o *remoteOps) read(oid asset.OID) ([]byte, error) {
	s := o.tr.begin(o.trace, o.parent, spClientOp)
	data, err := o.tx.Read(bg, oid)
	o.tr.end(s)
	return data, err
}

func (o *remoteOps) write(oid asset.OID, data []byte) error {
	s := o.tr.begin(o.trace, o.parent, spClientOp)
	err := o.tx.Write(bg, oid, data)
	o.tr.end(s)
	return err
}

func (o *remoteOps) add(oid asset.OID, delta int64) error {
	s := o.tr.begin(o.trace, o.parent, spClientOp)
	err := o.tx.Add(bg, oid, delta)
	o.tr.end(s)
	return err
}

func (o *remoteOps) create(data []byte) error {
	s := o.tr.begin(o.trace, o.parent, spClientOp)
	_, err := o.tx.Create(bg, data)
	o.tr.end(s)
	return err
}

// rcall is what one remote business transaction's helpers share.
type rcall struct {
	flow
	e *engine
}

// session returns the worker's session on node n.
func (c *rcall) session(n int) *client.Client {
	cls := c.e.nodes[n].clients
	return cls[c.w.id%len(cls)]
}

// open initiates and begins a transaction on cl and returns its handle.
func (c *rcall) open(cl *client.Client) (*remoteOps, error) {
	var tid asset.TID
	err := c.traced(spClientBegin, func() (err error) { tid, err = cl.Initiate(bg); return })
	if err != nil {
		return nil, err
	}
	if err := c.traced(spClientBegin, func() error { return cl.Begin(bg, tid) }); err != nil {
		return nil, err
	}
	return &remoteOps{tx: cl.Tx(tid), tr: c.w.tr, trace: c.t.id, parent: c.root}, nil
}

func (c *rcall) abort(cl *client.Client, tid asset.TID) {
	c.traced(spClientAbort, func() error { return cl.Abort(bg, tid) }) //nolint:errcheck // may already be gone
}

func (x *remoteExec) run(w *worker, t txnSpec) error {
	node, t := route(t, len(x.e.nodes))
	c := &rcall{flow: flow{w: w, t: &t}, e: x.e}
	c.root = w.tr.begin(t.id, 0, spTxn)
	cl := c.session(node)
	var err error
	switch t.kind {
	case kindOrder:
		err = c.order(cl)
	case kindBooking:
		err = c.booking(cl)
	case kindCart:
		err = core.Retry(bg, retryOpts(true), w.onRetry, func(context.Context) error { return c.cart(cl) })
	case kindRestock:
		err = c.atomic(cl, func(o ops) error { return addStock(o, t.ctr[0], int64(t.qty)) })
	case kindAudit:
		err = c.atomic(cl, func(o ops) error { return auditBody(o, &t) })
	case kindXfer:
		err = core.Retry(bg, retryOpts(true), w.onRetry, func(context.Context) error {
			if len(x.e.nodes) == 2 {
				return c.xfer2PC(cl, c.session(1-node))
			}
			return c.xfer(cl)
		})
	}
	w.tr.end(c.root)
	if err == nil {
		w.led.book(&t)
	}
	return err
}

// atomic is initiate; begin; body; commit over the wire, aborting on a
// body error, under the retry engine client.Run uses.
func (c *rcall) atomic(cl *client.Client, step func(o ops) error) error {
	return core.Retry(bg, retryOpts(false), c.w.onRetry, func(context.Context) error {
		o, err := c.open(cl)
		if err != nil {
			return err
		}
		if err := step(o); err != nil {
			c.abort(cl, o.tx.ID())
			return err
		}
		return c.traced(spClientCommit, func() error { return cl.Commit(bg, o.tx.ID()) })
	})
}

// compensate retries a compensating transaction until it commits.
func (c *rcall) compensate(cl *client.Client, step func(o ops) error) error {
	var err error
	for try := 0; try < 100; try++ {
		if err = c.atomic(cl, step); err == nil {
			return nil
		}
	}
	return fmt.Errorf("compensation did not commit: %w", err)
}

// order is the saga, spelled out: three atomic transactions, and the
// reservation's compensation when the charge aborts.
func (c *rcall) order(cl *client.Client) error {
	t := c.t
	fail := t.flags&flagFailCharge != 0
	qty, amt := int64(t.qty), int64(t.amt)
	if err := c.atomic(cl, func(o ops) error { return addStock(o, t.ctr[0], -qty) }); err != nil {
		return err
	}
	err := c.atomic(cl, func(o ops) error { return moveMoney(o, t.acct[0], -amt, fail) })
	if err != nil {
		if cerr := c.compensate(cl, func(o ops) error { return addStock(o, t.ctr[0], qty) }); cerr != nil {
			return cerr
		}
		if fail && errors.Is(err, errScripted) {
			return nil
		}
		return err
	}
	if fail {
		return errors.New("the scripted charge failure committed")
	}
	return c.atomic(cl, func(o ops) error { return createRecord(o, t.id) })
}

// booking is the workflow, spelled out.
func (c *rcall) booking(cl *client.Client) error {
	t := c.t
	failFlight, failHotel := t.flags&flagFailFlight != 0, t.flags&flagFailHotel != 0
	amt := int64(t.amt)
	flight := t.ctr[0]
	err := c.atomic(cl, func(o ops) error {
		if failFlight {
			return errScripted
		}
		return addStock(o, flight, -1)
	})
	if failFlight && errors.Is(err, errScripted) {
		flight = t.ctr[1]
		err = c.atomic(cl, func(o ops) error { return addStock(o, flight, -1) })
	}
	if err != nil {
		return err
	}
	err = c.atomic(cl, func(o ops) error { return moveMoney(o, t.acct[0], -amt, failHotel) })
	if err != nil {
		if cerr := c.compensate(cl, func(o ops) error { return addStock(o, flight, 1) }); cerr != nil {
			return cerr
		}
		if failHotel && errors.Is(err, errScripted) {
			return nil
		}
		return err
	}
	if failHotel {
		return errors.New("the scripted hotel failure committed")
	}
	// The car is optional, but nothing in the script fails it: a rental that
	// does not commit is a transaction that missed its scripted outcome.
	return c.atomic(cl, func(o ops) error { return createRecord(o, t.id) })
}

// cart is the local executor's cart flow over the wire; see there for why
// t1's commit is requested before t2 begins. Remote bodies are
// interactive, so the early commit also ends t1's body.
func (c *rcall) cart(cl *client.Client) error {
	t := c.t
	oid := cartOID(t.cart)
	var t1, t2 asset.TID
	err := c.traced(spClientBegin, func() (err error) { t1, err = cl.Initiate(bg); return })
	if err != nil {
		return err
	}
	err = c.traced(spClientBegin, func() (err error) { t2, err = cl.Initiate(bg); return })
	if err != nil {
		c.abort(cl, t1)
		return err
	}
	abortBoth := func() {
		c.abort(cl, t2)
		c.abort(cl, t1)
	}
	control := func(f func() error) error { return c.traced(spClientControl, f) }
	join := t.id%2 == 0
	if join {
		err = control(func() error { return cl.FormDependency(bg, asset.AD, t2, t1) })
		if err == nil {
			err = control(func() error { return cl.Permit(bg, t1, t2, oid, asset.OpAll) })
		}
	} else {
		// models.Workspace.Admit, primitive by primitive.
		err = control(func() error { return cl.Permit(bg, t1, t2, oid, asset.OpAll) })
		if err == nil {
			err = control(func() error { return cl.Permit(bg, t2, t1, oid, asset.OpAll) })
		}
		if err == nil {
			err = control(func() error { return cl.FormDependency(bg, asset.GC, t1, t2) })
		}
	}
	if err != nil {
		abortBoth()
		return err
	}
	edit := func(tid asset.TID) error {
		if err := c.traced(spClientBegin, func() error { return cl.Begin(bg, tid) }); err != nil {
			return err
		}
		return editCart(&remoteOps{tx: cl.Tx(tid), tr: c.w.tr, trace: t.id, parent: c.root}, t.cart, t.id)
	}
	if err := edit(t1); err != nil {
		abortBoth()
		return err
	}
	tr := c.w.tr
	committed := make(chan commitOutcome, 1)
	called := tr.now()
	go func() { committed <- commitOutcome{cl.Commit(bg, t1), tr.now()} }()
	finish := func(gate int64) error {
		out := <-committed
		tr.record(t.id, c.root, spClientCommit, max(called, gate), out.end)
		return out.err
	}
	// From here on the commits decide the flow's outcome; an error below
	// only triggers the clean-up that makes t1 abort.
	err = edit(t2)
	if err == nil && join {
		err = control(func() error { return cl.Delegate(bg, t2, t1, 0) })
	}
	gate := tr.now()
	groupCommitted := false
	if err == nil {
		// Join: t2 terminates empty and releases t1. Workspace: this ends
		// t2's body and the group commits, under whichever of the two
		// commit calls gets there first; the other may find the group
		// committed and already reaped, so either one's success is the
		// group's.
		err = c.traced(spClientCommit, func() error { return cl.Commit(bg, t2) })
		groupCommitted = err == nil && !join
	}
	if err != nil {
		abortBoth()
	}
	if err := finish(gate); err != nil && !groupCommitted {
		return err
	}
	return nil
}

// xfer on one node is models.Distributed over the wire: two transactions
// under a group-commit dependency. A remote body ends only when its own
// commit is requested, so both commits are requested at once.
func (c *rcall) xfer(cl *client.Client) error {
	t := c.t
	qty := int64(t.qty)
	debit, err := c.open(cl)
	if err != nil {
		return err
	}
	credit, err := c.open(cl)
	if err != nil {
		c.abort(cl, debit.tx.ID())
		return err
	}
	t1, t2 := debit.tx.ID(), credit.tx.ID()
	err = c.traced(spClientControl, func() error { return cl.FormDependency(bg, asset.GC, t1, t2) })
	if err == nil {
		err = addStock(debit, t.ctr[0], -qty)
	}
	if err == nil {
		err = addStock(credit, t.ctr[1], qty)
	}
	if err != nil {
		c.abort(cl, t2)
		c.abort(cl, t1)
		return err
	}
	// The group commits under whichever commit call gets there first; the
	// other may find it committed and already reaped, so either one's
	// success is the group's.
	first := make(chan error, 1)
	go func() { first <- c.traced(spClientCommit, func() error { return cl.Commit(bg, t1) }) }()
	err = c.traced(spClientCommit, func() error { return cl.Commit(bg, t2) })
	if ferr := <-first; ferr == nil {
		return nil
	}
	return err
}

// xfer2PC builds the debit on one node and the credit on the other and
// commits them as one group through the coordinator: parallel prepares, a
// forced decision, parallel delivery. The member closures are wrapped so
// each stage has its span; the decision force is what is left of the
// commit_group span once the fan-outs are subtracted.
func (c *rcall) xfer2PC(a, b *client.Client) error {
	t := c.t
	qty := int64(t.qty)
	debit, err := c.open(a)
	if err != nil {
		return err
	}
	credit, err := c.open(b)
	if err != nil {
		c.abort(a, debit.tx.ID())
		return err
	}
	if err = addStock(debit, t.ctr[0], -qty); err == nil {
		err = addStock(credit, t.ctr[1], qty)
	}
	if err != nil {
		c.abort(b, credit.tx.ID())
		c.abort(a, debit.tx.ID())
		return err
	}
	tr := c.w.tr
	s := tr.begin(t.id, c.root, spCommitGroup)
	staged := func(mb txcoord.Member) txcoord.Member {
		prepare, decide := mb.Prepare, mb.Decide
		mb.Prepare = func(ctx context.Context, gid uint64, tids []asset.TID) error {
			p := tr.begin(t.id, s, spPrepare)
			defer tr.end(p)
			return prepare(ctx, gid, tids)
		}
		mb.Decide = func(ctx context.Context, gid uint64, commit bool) error {
			d := tr.begin(t.id, s, spDeliver)
			defer tr.end(d)
			return decide(ctx, gid, commit)
		}
		return mb
	}
	coord := c.e.coord
	ok, err := coord.CommitGroup(bg, coord.NewGID(), []txcoord.Member{
		staged(txcoord.Remote("a", a, debit.tx.ID())),
		staged(txcoord.Remote("b", b, credit.tx.ID())),
	})
	tr.end(s)
	if err == nil && !ok {
		err = fmt.Errorf("group aborted: %w", asset.ErrAborted)
	}
	return err
}
