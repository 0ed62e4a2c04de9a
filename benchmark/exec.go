package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	asset "repro"
	"repro/benchmark/hist"
	"repro/internal/core"
)

// errScripted aborts a step the script says must fail. It is not
// retryable, so the retry engine returns it at once and the model's
// compensation runs.
var errScripted = errors.New("benchmark: scripted failure")

// retryBudget is the attempt budget for deadlock victims.
const retryBudget = 8

// ledger is one worker's account of what the engine acknowledged. The
// checker sums the workers' ledgers and compares them with the stored
// state.
type ledger struct {
	ctr      [numCounters]int64 // net acked delta per counter
	cartAcks [numCarts]uint32   // acked cart transactions per cart; each bumps the version by 2
	acctNet  int64              // net acked change of all account balances
	created  int64              // acked shipments and car rentals
	retries  int64              // re-attempts made by the harness's own retry loops
}

// worker is one generator thread: its ledger, its span buffer (nil when
// tracing is off) and the latency it measured.
type worker struct {
	id  int
	led ledger
	tr  *tracer

	lat      hist.Hist           // whole phase
	byKind   [numKinds]hist.Hist // whole phase, per type
	win      []hist.Hist         // per window, for the median of windows
	winOK    []int64
	ok, fail int64
	errs     []error // the first few failures, for the report
}

func (w *worker) resetPhase(windows int) {
	w.lat.Reset()
	for k := range w.byKind {
		w.byKind[k].Reset()
	}
	w.win = make([]hist.Hist, windows)
	w.winOK = make([]int64, windows)
	w.ok, w.fail = 0, 0
}

func (w *worker) onRetry() { w.led.retries++ }

// executor runs one scripted transaction to its scripted outcome and, on
// success, books what was acknowledged into the worker's ledger.
type executor interface {
	run(w *worker, t txnSpec) error
}

// flow is what the helpers of one business transaction share, whichever
// executor runs it: the worker, the scripted transaction and its root span.
type flow struct {
	w    *worker
	t    *txnSpec
	root spanID
}

// begin opens a span under the root.
func (f *flow) begin(name spanName) spanID { return f.w.tr.begin(f.t.id, f.root, name) }

// traced wraps one call in a span under the root.
func (f *flow) traced(name spanName, call func() error) error {
	s := f.begin(name)
	err := call()
	f.w.tr.end(s)
	return err
}

// commitOutcome is what a commit requested ahead of time reports back: its
// result and when it returned on the tracer's clock.
type commitOutcome struct {
	err error
	end int64
}

// ops is the data surface a transaction body sees. The step bodies below
// are written once against it, so the local and the remote executor issue
// the same operations for the same script entry.
type ops interface {
	lock(oid asset.OID, mode asset.OpSet) error
	read(oid asset.OID) ([]byte, error)
	write(oid asset.OID, data []byte) error
	add(oid asset.OID, delta int64) error
	create(data []byte) error
}

// Every data operation is preceded by an explicit lock call for the mode
// it needs, so lock time has its own span and a read-modify-write never
// upgrades.

func addStock(o ops, ctr uint16, delta int64) error {
	mode := asset.OpIncr
	if delta < 0 {
		mode = asset.OpDecr
	}
	oid := counterOID(ctr)
	if err := o.lock(oid, mode); err != nil {
		return err
	}
	return o.add(oid, delta)
}

// moveMoney adds delta to the account's balance, or aborts if the script
// says this step fails.
func moveMoney(o ops, acct uint32, delta int64, fail bool) error {
	oid := accountOID(acct)
	if err := o.lock(oid, asset.OpWrite); err != nil {
		return err
	}
	data, err := o.read(oid)
	if err != nil {
		return err
	}
	if fail {
		return errScripted
	}
	if len(data) != accountBytes {
		return fmt.Errorf("account %v holds %d bytes", oid, len(data))
	}
	binary.LittleEndian.PutUint64(data, binary.LittleEndian.Uint64(data)+uint64(delta))
	return o.write(oid, data)
}

func createRecord(o ops, id uint32) error {
	var rec [recordBytes]byte
	binary.LittleEndian.PutUint32(rec[:], id)
	return o.create(rec[:])
}

// editCart bumps the cart's version by one and stamps the script id.
func editCart(o ops, cart uint16, id uint32) error {
	oid := cartOID(cart)
	if err := o.lock(oid, asset.OpWrite); err != nil {
		return err
	}
	data, err := o.read(oid)
	if err != nil {
		return err
	}
	if len(data) != cartBytes {
		return fmt.Errorf("cart %v holds %d bytes", oid, len(data))
	}
	binary.LittleEndian.PutUint64(data, binary.LittleEndian.Uint64(data)+1)
	binary.LittleEndian.PutUint32(data[8:], id)
	return o.write(oid, data)
}

// auditBody reads the accounts. It does not read a counter, although that
// would put exclusive traffic on the keys the escrow traffic shares: with a
// reader queued on a counter, escrow requests queue behind it, two xfers
// can each hold one counter and wait for the other's, and the engine does
// not see that cycle (see README.md, "What the mix leaves out").
func auditBody(o ops, t *txnSpec) error {
	for _, a := range t.acct {
		oid := accountOID(a)
		if err := o.lock(oid, asset.OpRead); err != nil {
			return err
		}
		if _, err := o.read(oid); err != nil {
			return err
		}
	}
	return nil
}

// book records a successful transaction's acknowledged effects.
func (l *ledger) book(t *txnSpec) {
	switch t.kind {
	case kindOrder:
		if t.flags&flagFailCharge == 0 {
			l.ctr[t.ctr[0]] -= int64(t.qty)
			l.acctNet -= int64(t.amt)
			l.created++
		}
	case kindBooking:
		if t.flags&flagFailHotel == 0 {
			flight := t.ctr[0]
			if t.flags&flagFailFlight != 0 {
				flight = t.ctr[1]
			}
			l.ctr[flight]--
			l.acctNet -= int64(t.amt)
			l.created++
		}
	case kindCart:
		l.cartAcks[t.cart]++
	case kindRestock:
		l.ctr[t.ctr[0]] += int64(t.qty)
	case kindXfer:
		l.ctr[t.ctr[0]] -= int64(t.qty)
		l.ctr[t.ctr[1]] += int64(t.qty)
	}
}

// route returns the node that owns t's primary key and t with every other
// key moved onto that node; an xfer's credit side moves to the other
// node. On a single manager nothing moves.
func route(t txnSpec, nodes int) (int, txnSpec) {
	if nodes == 1 {
		return 0, t
	}
	var n int
	switch t.kind {
	case kindCart:
		n = int(t.cart & 1)
	case kindAudit:
		n = int(t.acct[0] & 1)
	default:
		n = int(t.ctr[0] & 1)
	}
	for j := range t.acct {
		t.acct[j] = t.acct[j]&^1 | uint32(n)
	}
	t.ctr[0] = t.ctr[0]&^1 | uint16(n)
	other := n
	if t.kind == kindXfer {
		other = 1 - n
	}
	t.ctr[1] = t.ctr[1]&^1 | uint16(other)
	return n, t
}

// retryOpts is the retry policy of every harness-level retry loop: the
// engine's own classification plus, where a whole multi-transaction flow
// is retried, aborts and terminations a deadlock victim leaves behind.
func retryOpts(flow bool) core.RunOptions {
	o := core.RunOptions{MaxAttempts: retryBudget}
	if flow {
		o.Retryable = func(err error) bool {
			return errors.Is(err, asset.ErrAborted) || errors.Is(err, asset.ErrTerminated) ||
				errors.Is(err, asset.ErrUnknownTxn)
		}
	}
	return o
}

var bg = context.Background()
