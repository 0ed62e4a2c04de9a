package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/race"
	"repro/internal/rpc"
	"repro/internal/xid"
)

// Tests of an interactive transaction's token, core.Tx.Acquire, as the
// server drives it (run them under -race): it is what serializes a begin,
// the data operations and the completion that requests of one transaction
// run on whichever workers serve them.

// TestItxCommitWaitsOutBegin: a commit racing an in-flight begin waits the
// begin out and then completes the transaction — returning early would hand
// CommitCtx a transaction that is not completed yet.
func TestItxCommitWaitsOutBegin(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{MaxLive: 1, AdmitTimeout: time.Hour})
	holder := beginItx(t, m) // takes the one admission slot
	ti := initiateItx(t, m)
	ctx := context.Background()
	begun := make(chan error, 1)
	go func() { begun <- begin(ctx, m, ti) }()
	for !tokenHeld(ti) { // the begin holds the token, parked for admission
		time.Sleep(time.Millisecond)
	}
	completed := make(chan error, 1)
	go func() { completed <- complete(ctx, ti) }()
	select {
	case err := <-completed:
		t.Fatalf("complete returned (%v) while the begin was parked for admission", err)
	case <-time.After(30 * time.Millisecond):
	}
	commitItx(t, m, holder) // frees the slot
	if err := <-begun; err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := <-completed; err != nil {
		t.Fatalf("complete: %v", err)
	}
	if st := ti.Status(); st != xid.StatusCompleted {
		t.Fatalf("status after complete = %v, want completed", st)
	}
	if err := m.Commit(ti.ID()); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// TestItxCommitAbandonedWhileTokenHeld: a commit whose context ends while
// an operation holds the token reports the abandonment and leaves the
// transaction running; the operation and a later commit go through.
func TestItxCommitAbandonedWhileTokenHeld(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{})
	holder, oid := heldObject(t, m)
	ti := beginItx(t, m)
	locked := make(chan error, 1)
	go func() { locked <- doRequest(ti, lockRequest(ti.ID(), oid)) }()
	waitWaiters(t, m, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := complete(ctx, ti)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("complete under a cancelled ctx = %v, want the abandonment reported", err)
	}
	if st := ti.Status(); st != xid.StatusRunning {
		t.Fatalf("status after an abandoned complete = %v, want running", st)
	}
	commitItx(t, m, holder)
	if err := <-locked; err != nil {
		t.Fatalf("Lock: %v", err)
	}
	commitItx(t, m, ti)
}

// TestItxOperationsRunOneAtATime: of two Locks on one transaction, the
// second waits for the first, which is parked in a lock wait, instead of
// running beside it on the same handle.
func TestItxOperationsRunOneAtATime(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{})
	holder, held := heldObject(t, m)
	free := committedObject(t, m)
	ti := beginItx(t, m)
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- doRequest(ti, lockRequest(ti.ID(), held)) }()
	waitWaiters(t, m, 1)
	go func() { second <- doRequest(ti, lockRequest(ti.ID(), free)) }()
	select {
	case err := <-second:
		t.Fatalf("second Lock returned (%v) while the first was parked", err)
	case <-time.After(30 * time.Millisecond):
	}
	if m.LockManager().Holds(ti.ID(), free, xid.OpWrite) {
		t.Fatal("second Lock granted while the first held the token")
	}
	commitItx(t, m, holder)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("Lock: %v", err)
		}
	}
	if !m.LockManager().Holds(ti.ID(), free, xid.OpWrite) {
		t.Fatal("second Lock not granted after the first returned")
	}
	commitItx(t, m, ti)
}

// TestItxOperationAbandonedWhileWaiting: an operation waiting for the token
// behind a parked Lock, whose request is cancelled meanwhile, reports the
// abandonment with the cancel's cause and holds nothing; the parked Lock
// and the transaction go on.
func TestItxOperationAbandonedWhileWaiting(t *testing.T) {
	t.Parallel()
	m := openManager(t, core.Config{})
	holder, held := heldObject(t, m)
	free := committedObject(t, m)
	ti := beginItx(t, m)
	first := make(chan error, 1)
	go func() { first <- doRequest(ti, lockRequest(ti.ID(), held)) }()
	waitWaiters(t, m, 1)
	ctx, cancel := context.WithCancelCause(context.Background())
	second := make(chan error, 1)
	go func() {
		var rbuf []byte
		second <- do(ctx, ti, lockRequest(ti.ID(), free), &rbuf)
	}()
	time.Sleep(20 * time.Millisecond) // waiting for the token
	cause := errors.New("request cancelled by client")
	cancel(cause)
	if err := <-second; !errors.Is(err, cause) || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("operation cancelled while waiting for the token = %v, want the abandonment", err)
	}
	if m.LockManager().Holds(ti.ID(), free, xid.OpWrite) {
		t.Fatal("abandoned Lock granted")
	}
	commitItx(t, m, holder)
	if err := <-first; err != nil {
		t.Fatalf("parked Lock: %v", err)
	}
	commitItx(t, m, ti)
}

func openManager(t *testing.T, cfg core.Config) *core.Manager {
	t.Helper()
	m, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() }) //nolint:errcheck
	return m
}

func initiateItx(t *testing.T, m *core.Manager) *core.Tx {
	t.Helper()
	ti, err := m.InitiateInteractive()
	if err != nil {
		t.Fatalf("InitiateInteractive: %v", err)
	}
	return ti
}

func beginItx(t *testing.T, m *core.Manager) *core.Tx {
	t.Helper()
	ti := initiateItx(t, m)
	if err := begin(context.Background(), m, ti); err != nil {
		t.Fatalf("begin: %v", err)
	}
	return ti
}

func commitItx(t *testing.T, m *core.Manager, ti *core.Tx) {
	t.Helper()
	if err := complete(context.Background(), ti); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := m.Commit(ti.ID()); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// tokenHeld reports whether somebody holds ti's token, by trying to take it
// under a context that is already over.
func tokenHeld(ti *core.Tx) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ti.Acquire(ctx) != nil {
		return true
	}
	ti.Release()
	return false
}

// doRequest runs in as a worker would, reading into a buffer of its own.
func doRequest(ti *core.Tx, in *inbound) error {
	var rbuf []byte
	return do(context.Background(), ti, in, &rbuf)
}

// heldObject creates an object in a transaction that keeps it write-locked.
func heldObject(t *testing.T, m *core.Manager) (*core.Tx, xid.OID) {
	t.Helper()
	holder := beginItx(t, m)
	oid, err := holder.Create([]byte("held"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return holder, oid
}

func committedObject(t *testing.T, m *core.Manager) xid.OID {
	t.Helper()
	creator, oid := heldObject(t, m)
	commitItx(t, m, creator)
	return oid
}

func lockRequest(tid xid.TID, oid xid.OID) *inbound {
	return &inbound{req: rpc.Request{Op: rpc.OpLock, TID: uint64(tid), OID: uint64(oid), Mode: uint64(xid.OpWrite)}}
}

func waitWaiters(t *testing.T, m *core.Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.WaitGraph().Waiters()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d lock waiters, want %d", len(m.WaitGraph().Waiters()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestItxHandleOutlivesForget: a request in flight on a transaction's
// handle keeps the descriptor behind it while another worker's commit or
// abort, or the session's expiry, makes the server forget the transaction
// and core reap it. The request then reports that the transaction ended,
// and acts on no other. Run with one processor and no collection (whose
// workers could preempt a goroutine mid-request), a worker handed a
// request does not run before the test goroutine blocks, so the
// transaction initiated right after the forget is given the descriptor at
// the top of the free list: the forgotten one's, had nothing pinned it.
//
//   - A Write dispatched before the forget, unpinned, would write another
//     transaction's object as that transaction.
//   - A prepare that found the transaction before the forget and waits for
//     its token behind a Lock, unpinned, would complete a descriptor on
//     the free list once that Lock has let go, and the next transaction
//     given it would count as done while it runs.
//
// A last part races the forgets for real: a commit or abort and the
// expiry forget the same tid while a Write is in flight, and the table's
// reference is dropped exactly once (an over-unpin panics).
func TestItxHandleOutlivesForget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	forgets := []struct {
		name   string
		forget func(ts *testSession, tid uint64) error
	}{
		{"commit", func(ts *testSession, tid uint64) error {
			_, err := ts.now(rpc.Request{Op: rpc.OpCommit, TID: tid})
			return err
		}},
		{"abort", func(ts *testSession, tid uint64) error {
			_, err := ts.now(rpc.Request{Op: rpc.OpAbort, TID: tid})
			return err
		}},
		{"expiry", func(ts *testSession, _ uint64) error {
			ts.sess.srv.expire(ts.sess, fmt.Errorf("%w: lapsed under the test", core.ErrLeaseExpired))
			return nil
		}},
	}
	ended := func(err error) bool {
		return errors.Is(err, core.ErrTerminated) || errors.Is(err, core.ErrAborted) || errors.Is(err, core.ErrLeaseExpired)
	}

	for _, f := range forgets {
		t.Run("write/"+f.name, func(t *testing.T) {
			m := openManager(t, core.Config{})
			s := itxServer(t, m)
			app, other := openTestSession(t, s), openTestSession(t, s)
			oid := committedObject(t, m) // holds "held"
			a := app.begin()
			write := app.send(rpc.Request{Op: rpc.OpWrite, TID: a, OID: uint64(oid), Data: []byte("stray")})
			if err := f.forget(app, a); err != nil {
				t.Fatalf("%s of %d: %v", f.name, a, err)
			}
			b := other.begin() // the descriptor a's forget would free
			if err := app.await(write); !ended(err) {
				t.Fatalf("Write in flight across the %s of %d = %v, want the transaction's end", f.name, a, err)
			}
			if m.LockManager().Holds(xid.TID(b), oid, xid.OpWrite) {
				t.Fatalf("the Write on forgotten %d locked %v for %d", a, oid, b)
			}
			other.must(rpc.Request{Op: rpc.OpCommit, TID: b})
			if got, _ := m.Cache().Read(oid); string(got) != "held" {
				t.Fatalf("%v = %q after %d committed, want %q: the Write on forgotten %d landed in it", oid, got, b, "held", a)
			}
		})
	}

	t.Run("prepare/abort", func(t *testing.T) {
		m := openManager(t, core.Config{})
		s := itxServer(t, m)
		app, coord := openTestSession(t, s), openTestSession(t, s)
		_, held := heldObject(t, m)
		a := app.begin()
		lock := app.send(rpc.Request{Op: rpc.OpLock, TID: a, OID: uint64(held), Mode: uint64(xid.OpWrite)})
		waitWaiters(t, m, 1) // the Lock holds a's token, parked on held
		prepare := coord.send(rpc.Request{Op: rpc.OpPrepare, Other: 1, Data: rpc.AppendTIDs(nil, []xid.TID{xid.TID(a)})})
		time.Sleep(10 * time.Millisecond) // found a, waiting for its token
		if _, err := app.now(rpc.Request{Op: rpc.OpAbort, TID: a}); err != nil {
			t.Fatalf("abort of %d: %v", a, err)
		}
		if err := app.await(lock); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Lock parked across the abort of %d = %v, want ErrAborted", a, err)
		}
		if err := coord.await(prepare); err == nil {
			t.Fatalf("prepare of aborted %d succeeded", a)
		}
		b := app.begin() // the descriptor the prepare would have completed
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := m.WaitCtx(ctx, xid.TID(b)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait on running %d = %v, want it to wait: its descriptor was completed while free", b, err)
		}
		app.must(rpc.Request{Op: rpc.OpAbort, TID: b})
	})

	t.Run("race", func(t *testing.T) {
		runtime.GOMAXPROCS(2)
		m := openManager(t, core.Config{})
		s := itxServer(t, m)
		other := openTestSession(t, s)
		rounds := 200
		if race.Enabled {
			rounds = 50
		}
		for i := 0; i < rounds; i++ {
			app := openTestSession(t, s)
			a := app.begin()
			mine := committedObject(t, m)
			write := app.send(rpc.Request{Op: rpc.OpWrite, TID: a, OID: uint64(mine), Data: []byte("mine")})
			forgot := make(chan error, 1)
			go func() { forgot <- forgets[i%2].forget(app, a) }()
			forgets[2].forget(app, a) //nolint:errcheck
			b := other.begin()
			if err := app.await(write); err != nil && !ended(err) {
				t.Fatalf("round %d: Write in flight across the forgets of %d = %v", i, a, err)
			}
			if m.LockManager().Holds(xid.TID(b), mine, xid.OpWrite) {
				t.Fatalf("round %d: the Write on forgotten %d locked %v for %d", i, a, mine, b)
			}
			// Expiry may have aborted and reaped a before its commit ran.
			if err := <-forgot; err != nil && !ended(err) && !errors.Is(err, core.ErrUnknownTxn) {
				t.Fatalf("round %d: %s of %d = %v", i, forgets[i%2].name, a, err)
			}
			if _, err := other.now(rpc.Request{Op: rpc.OpAbort, TID: b}); err != nil {
				t.Fatalf("round %d: abort of %d: %v", i, b, err)
			}
		}
	})
}

// testSession drives a session of a server without a connection: the
// workers it hands requests to record their verdicts and send nothing.
type testSession struct {
	t    *testing.T
	sess *session
	last uint64  // highest request ID dispatched
	w    *worker // serves requests on the test's goroutine
}

// itxServer serves m on a listener nobody dials; it is closed with the test.
func itxServer(t *testing.T, m *core.Manager) *Server {
	t.Helper()
	fabric := faultnet.New()
	lis, err := fabric.Listen("assetd")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := Serve(m, lis, Config{LeaseTTL: time.Hour})
	t.Cleanup(func() {
		s.Close()
		fabric.Close()
	})
	return s
}

func openTestSession(t *testing.T, s *Server) *testSession {
	t.Helper()
	sess, err := s.resolveSession(0)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return &testSession{t: t, sess: sess, w: &worker{sess: sess, ctx: context.Background()}}
}

// send passes req through dispatch under the next request ID, as the
// connection reader does: one of the session's worker goroutines serves
// it. It returns the request ID.
func (ts *testSession) send(req rpc.Request) uint64 {
	ts.last++
	in := inboundPool.Get().(*inbound)
	in.buf = rpc.GetBuffer()
	in.req = req
	in.req.ReqID = ts.last
	ts.sess.dispatch(nil, in)
	return ts.last
}

// await returns the error its worker recorded for request id, or nil.
func (ts *testSession) await(id uint64) error {
	ts.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts.sess.mu.Lock()
		slot := ts.sess.reqs.win.Slot(id)
		var resp rpc.Response
		done := slot != nil && slot.state == reqDone
		if done {
			resp = slot.resp
		}
		ts.sess.mu.Unlock()
		if done {
			return resp.Err()
		}
		if time.Now().After(deadline) {
			ts.t.Fatalf("request %d never answered", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// now serves req on the calling goroutine, as a worker of the session
// does once dispatch has found and pinned the transaction it names.
func (ts *testSession) now(req rpc.Request) (rpc.Response, error) {
	in := &inbound{req: req}
	ts.sess.mu.Lock()
	if t := ts.sess.txns[xid.TID(req.TID)]; t != nil {
		t.Pin()
		in.t = t
	}
	ts.sess.mu.Unlock()
	err := ts.w.perform(in)
	if in.t != nil {
		in.t.Unpin()
	}
	return in.resp, err
}

func (ts *testSession) must(req rpc.Request) rpc.Response {
	ts.t.Helper()
	resp, err := ts.now(req)
	if err != nil {
		ts.t.Fatalf("%v: %v", req.Op, err)
	}
	return resp
}

// begin initiates and begins a transaction.
func (ts *testSession) begin() uint64 {
	ts.t.Helper()
	tid := ts.must(rpc.Request{Op: rpc.OpInitiate}).TID
	ts.must(rpc.Request{Op: rpc.OpBegin, TID: tid})
	return tid
}
