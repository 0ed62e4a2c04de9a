package main

import (
	"context"
	"errors"
	"fmt"

	asset "repro"
	"repro/internal/core"
	"repro/models"
	"repro/workflow"
)

// localExec runs the script in process, calling models, workflow and the
// primitives directly.
type localExec struct {
	m *asset.Manager
}

// localOps is ops over a local transaction handle, one span per call.
type localOps struct {
	tx     *asset.Tx
	tr     *tracer
	trace  uint32
	parent spanID
}

func (o *localOps) lock(oid asset.OID, mode asset.OpSet) error {
	s := o.tr.begin(o.trace, o.parent, spLock)
	err := o.tx.Lock(oid, mode)
	o.tr.end(s)
	return err
}

func (o *localOps) read(oid asset.OID) ([]byte, error) {
	s := o.tr.begin(o.trace, o.parent, spRead)
	data, err := o.tx.Read(oid)
	o.tr.end(s)
	return data, err
}

func (o *localOps) write(oid asset.OID, data []byte) error {
	s := o.tr.begin(o.trace, o.parent, spWrite)
	err := o.tx.Write(oid, data)
	o.tr.end(s)
	return err
}

func (o *localOps) add(oid asset.OID, delta int64) error {
	s := o.tr.begin(o.trace, o.parent, spAdd)
	err := o.tx.Add(oid, delta)
	o.tr.end(s)
	return err
}

func (o *localOps) create(data []byte) error {
	s := o.tr.begin(o.trace, o.parent, spCreate)
	_, err := o.tx.Create(data)
	o.tr.end(s)
	return err
}

// call is what one business transaction's helpers share.
type call struct {
	flow
	m *asset.Manager
}

func (c *call) ops(tx *asset.Tx, parent spanID) *localOps {
	return &localOps{tx: tx, tr: c.w.tr, trace: c.t.id, parent: parent}
}

// body adapts a step written against ops into a transaction body whose
// operations are children of parent.
func (c *call) body(parent spanID, step func(o ops) error) asset.TxnFunc {
	return func(tx *asset.Tx) error { return step(c.ops(tx, parent)) }
}

func (x *localExec) run(w *worker, t txnSpec) error {
	c := &call{flow: flow{w: w, t: &t}, m: x.m}
	c.root = w.tr.begin(t.id, 0, spTxn)
	var err error
	switch t.kind {
	case kindOrder:
		err = core.Retry(bg, retryOpts(false), w.onRetry, func(context.Context) error { return c.order() })
	case kindBooking:
		err = core.Retry(bg, retryOpts(false), w.onRetry, func(context.Context) error { return c.booking() })
	case kindCart:
		err = core.Retry(bg, retryOpts(true), w.onRetry, func(context.Context) error { return c.cart() })
	case kindRestock:
		err = c.atomic(func(o ops) error { return addStock(o, t.ctr[0], int64(t.qty)) })
	case kindAudit:
		err = c.atomic(func(o ops) error { return auditBody(o, &t) })
	case kindXfer:
		err = core.Retry(bg, retryOpts(true), w.onRetry, func(context.Context) error { return c.xfer() })
	}
	w.tr.end(c.root)
	if err == nil {
		w.led.book(&t)
	}
	return err
}

// atomic is the paper's atomic transaction, initiate; begin; commit, with
// each primitive in its own span, under the retry engine Manager.Run uses.
// The commit call blocks until the body has finished, so its span starts
// when the body ended: what it then measures is the commit protocol.
func (c *call) atomic(step func(o ops) error) error {
	tr := c.w.tr
	return core.Retry(bg, retryOpts(false), c.w.onRetry, func(context.Context) error {
		var bodyEnd int64
		var bodyErr error
		s := c.begin(spInitiate)
		tid, err := c.m.Initiate(func(tx *asset.Tx) error {
			bodyErr = step(c.ops(tx, c.root))
			bodyEnd = tr.now()
			return bodyErr
		})
		tr.end(s)
		if err != nil {
			return err
		}
		s = c.begin(spBegin)
		err = c.m.Begin(tid)
		tr.end(s)
		if err != nil {
			return err
		}
		called := tr.now()
		err = c.m.Commit(tid)
		tr.record(c.t.id, c.root, spCommit, max(called, bodyEnd), tr.now())
		if err != nil && bodyErr != nil {
			// A body that failed may be reaped before the commit call
			// looks it up; the body's own error says why it aborted.
			return errors.Join(bodyErr, err)
		}
		return err
	})
}

// errRerun asks the retry engine to run the business transaction again.
var errRerun = fmt.Errorf("benchmark: model stopped on an infrastructure error, undone: %w", asset.ErrRetryable)

// undone handles a model that stopped without compensating. With
// ReapTerminated a body that aborts can be reaped before the model's commit
// call looks it up; the commit then reports ErrUnknownTxn, which Saga and
// Workflow take for an infrastructure error, not a step failure, and
// return at once. The application's answer is the one the model would have
// given: compensate what committed, newest first, and run the business
// transaction again.
func (c *call) undone(err error, committed []string, compensate map[string]func(o ops) error) error {
	if !errors.Is(err, asset.ErrUnknownTxn) {
		return err
	}
	for i := len(committed) - 1; i >= 0; i-- {
		if step := compensate[committed[i]]; step != nil {
			if err := c.atomic(step); err != nil {
				return err
			}
		}
	}
	return errRerun
}

// order is a three-step saga: reserve stock, charge the account, create
// the shipment. A scripted charge failure compensates the reservation.
func (c *call) order() error {
	t := c.t
	fail := t.flags&flagFailCharge != 0
	qty, amt := int64(t.qty), int64(t.amt)
	unreserve := func(o ops) error { return addStock(o, t.ctr[0], qty) }
	refund := func(o ops) error { return moveMoney(o, t.acct[0], amt, false) }
	s := c.begin(spSagaRun)
	saga := models.NewSaga(c.m).WithOptions(models.SagaOptions{StepAttempts: retryBudget}).
		Step("reserve", c.body(s, func(o ops) error { return addStock(o, t.ctr[0], -qty) }), c.body(s, unreserve)).
		Step("charge", c.body(s, func(o ops) error { return moveMoney(o, t.acct[0], -amt, fail) }), c.body(s, refund)).
		Step("ship", c.body(s, func(o ops) error { return createRecord(o, t.id) }), nil)
	res, err := saga.Run()
	c.w.tr.end(s)
	if err != nil {
		return c.undone(err, res.Committed, map[string]func(o ops) error{"reserve": unreserve, "charge": refund})
	}
	if fail {
		if res.FailedStep != "charge" || len(res.Compensated) != 1 {
			return fmt.Errorf("scripted charge failure ended at %q with %d compensations", res.FailedStep, len(res.Compensated))
		}
		return nil
	}
	if res.FailedStep != "" {
		// A step the script did not fail (a deadlock victim out of
		// attempts): the saga has compensated, so run it again.
		return fmt.Errorf("%w: %w", errRerun, res.Err())
	}
	return nil
}

// booking is a workflow: a flight from two alternatives, a hotel, and an
// optional car. A scripted hotel failure compensates the flight.
func (c *call) booking() error {
	t := c.t
	failFlight, failHotel := t.flags&flagFailFlight != 0, t.flags&flagFailHotel != 0
	amt := int64(t.amt)
	release := func(ctr uint16) func(o ops) error {
		return func(o ops) error { return addStock(o, ctr, 1) }
	}
	refund := func(o ops) error { return moveMoney(o, t.acct[0], amt, false) }
	s := c.begin(spWorkflowRun)
	seat := func(name string, ctr uint16, fail bool) workflow.Task {
		return workflow.Task{
			Name: name,
			Action: c.body(s, func(o ops) error {
				if fail {
					return errScripted
				}
				return addStock(o, ctr, -1)
			}),
			Compensate: c.body(s, release(ctr)),
		}
	}
	wf := workflow.New("booking").
		Alternatives("flight", seat("first", t.ctr[0], failFlight), seat("second", t.ctr[1], false)).
		Step(workflow.Task{
			Name:       "hotel",
			Action:     c.body(s, func(o ops) error { return moveMoney(o, t.acct[0], -amt, failHotel) }),
			Compensate: c.body(s, refund),
		}).
		Step(workflow.Task{
			Name:   "car",
			Action: c.body(s, func(o ops) error { return createRecord(o, t.id) }),
		}).Optional()
	res, err := wf.Run(c.m)
	c.w.tr.end(s)
	if err != nil {
		var committed []string
		for _, st := range res.Steps {
			if st.Committed {
				committed = append(committed, st.Chosen)
			}
		}
		return c.undone(err, committed, map[string]func(o ops) error{
			"first": release(t.ctr[0]), "second": release(t.ctr[1]), "hotel": refund,
		})
	}
	if failHotel {
		if res.FailedStep != "hotel" || len(res.Compensated) != 1 {
			return fmt.Errorf("scripted hotel failure ended at %q with %d compensations", res.FailedStep, len(res.Compensated))
		}
		return nil
	}
	if res.FailedStep != "" {
		// A step the script did not fail (a deadlock victim; workflow steps
		// are not retried): the workflow has compensated, so run it again.
		return fmt.Errorf("%w: %w", errRerun, res.Err())
	}
	want := "first"
	if failFlight {
		want = "second"
	}
	if len(res.Steps) != 3 || res.Steps[0].Chosen != want || !res.Steps[2].Committed {
		return fmt.Errorf("steps %+v do not match the script", res.Steps)
	}
	return nil
}

// cart is two cooperating transactions editing one cart in turn: t1 edits,
// then t2 edits on top of t1's uncommitted state by permission, and both
// edits commit together or not at all. Even script ids join t2 into t1 by
// delegation; odd ids couple the two in a workspace (mutual permits and a
// group-commit dependency).
//
// t1's commit is requested before t2 begins. It blocks on t2 — through an
// abort dependency or the group — and that wait is an edge in the
// waits-for graph. Without it, a stranger queued for the cart between the
// two edits would sit ahead of t2 in the fair queue while waiting for t1,
// and t1 would wait for t2 outside the engine's sight: a deadlock nobody
// detects. With it the cycle closes, a victim is chosen, and the victim's
// whole flow is retried.
func (c *call) cart() error {
	m, t := c.m, c.t
	oid := cartOID(t.cart)
	edit := func(o ops) error { return editCart(o, t.cart, t.id) }
	var t1, t2 asset.TID
	err := c.traced(spInitiate, func() (err error) { t1, err = m.Initiate(c.body(c.root, edit)); return })
	if err != nil {
		return err
	}
	err = c.traced(spInitiate, func() (err error) { t2, err = m.Initiate(c.body(c.root, edit)); return })
	if err != nil {
		m.Abort(t1) //nolint:errcheck // best-effort cleanup of the half-built flow
		return err
	}
	// Abort order matters: t2's before image is t1's edit, so t2 rolls
	// back first.
	abortBoth := func() {
		c.traced(spAbort, func() error { return m.Abort(t2) }) //nolint:errcheck // may already be gone
		c.traced(spAbort, func() error { return m.Abort(t1) }) //nolint:errcheck // may already be gone
	}
	join := t.id%2 == 0
	var ws *models.Workspace
	if join {
		// t1 may not commit before t2 terminates and aborts if t2 aborts.
		err = c.traced(spFormDep, func() error { return m.FormDependency(asset.AD, t2, t1) })
		if err == nil {
			err = c.traced(spPermit, func() error { return m.Permit(t1, t2, []asset.OID{oid}, asset.OpAll) })
		}
	} else {
		err = c.traced(spWorkspace, func() error {
			ws = models.NewWorkspace(m, oid)
			if err := ws.Admit(t1); err != nil {
				return err
			}
			return ws.Admit(t2)
		})
	}
	if err != nil {
		abortBoth()
		return err
	}
	err = c.traced(spBegin, func() error { return m.Begin(t1) })
	if err == nil {
		err = c.traced(spWait, func() error { return m.Wait(t1) })
	}
	if err != nil {
		abortBoth()
		return err
	}
	// The early commit call spends most of its time blocked on t2; its span
	// is charged from the moment t2 let go (gate), as in atomic.
	tr := c.w.tr
	committed := make(chan commitOutcome, 1)
	called := tr.now()
	go func() {
		var err error
		if join {
			err = m.Commit(t1)
		} else {
			err = ws.CommitAll()
		}
		committed <- commitOutcome{err, tr.now()}
	}()
	finish := func(gate int64) error {
		out := <-committed
		name := spWorkspace
		if join {
			name = spCommit
		}
		tr.record(t.id, c.root, name, max(called, gate), out.end)
		return out.err
	}
	// From here on t1's commit decides the flow's outcome: the two edits
	// commit together or t1 aborts. An error below only triggers the
	// clean-up that makes t1 abort. (The workspace group may commit, and
	// be reaped, the moment t2 completes, so nothing here waits on t2.)
	err = c.traced(spBegin, func() error { return m.Begin(t2) })
	gate := tr.now()
	if err == nil && join {
		// The join: t2 hands its edit to t1 and terminates empty, which
		// releases t1's commit.
		err = c.traced(spWait, func() error { return m.Wait(t2) })
		if err == nil {
			err = c.traced(spDelegate, func() error { return m.Delegate(t2, t1) })
		}
		if err == nil {
			gate = tr.now()
			err = c.traced(spCommit, func() error { return m.Commit(t2) })
		}
	}
	if err != nil {
		abortBoth()
	}
	return finish(gate)
}

// xfer debits one counter and credits another as one group: either both
// component transactions commit or neither does.
func (c *call) xfer() error {
	t := c.t
	qty := int64(t.qty)
	s := c.begin(spDistributed)
	err := models.Distributed(c.m,
		c.body(s, func(o ops) error { return addStock(o, t.ctr[0], -qty) }),
		c.body(s, func(o ops) error { return addStock(o, t.ctr[1], qty) }))
	c.w.tr.end(s)
	return err
}
