package server_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/xid"
)

// Tests of who owns a request on the server (run them under -race): a
// session's workers are reused from request to request, contexts included,
// so a cancel must only ever reach the request it names, a session's end
// must end its workers wherever they are parked, and the connection reader
// must never wait behind one.

// rawSession speaks the wire protocol by hand on one connection. The tests
// here need requests pipelined, cancels for requests already answered and
// a peer with no goroutines of its own, none of which package client does.
type rawSession struct {
	t    *testing.T
	c    net.Conn
	last uint64 // highest request ID issued
	ack  uint64 // highest request ID below which every response was read
}

// dialRaw opens a session on c.
func dialRaw(t *testing.T, c net.Conn) *rawSession {
	t.Helper()
	r := &rawSession{t: t, c: c}
	if resp := r.call(rpc.Request{Op: rpc.OpHello}); resp.Err() != nil {
		t.Fatalf("hello: %v", resp.Err())
	}
	return r
}

// send issues req under the next request ID and returns the ID.
func (r *rawSession) send(req rpc.Request) uint64 {
	r.t.Helper()
	r.last++
	req.ReqID, req.Ack = r.last, r.ack
	if err := rpc.WriteFrame(r.c, rpc.EncodeRequest(&req)); err != nil {
		r.t.Fatalf("send %v: %v", req.Op, err)
	}
	return req.ReqID
}

// recv reads the next response, whichever request it answers.
func (r *rawSession) recv() *rpc.Response {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	payload, err := rpc.ReadFrame(r.c)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	resp, err := rpc.DecodeResponse(payload)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	return resp
}

// call is one request with nothing else in flight: its response is the
// next frame, and it acknowledges everything up to itself.
func (r *rawSession) call(req rpc.Request) *rpc.Response {
	r.t.Helper()
	id := r.send(req)
	resp := r.recv()
	if resp.ReqID != id {
		r.t.Fatalf("%v: response for request %d, want %d", req.Op, resp.ReqID, id)
	}
	r.ack = id
	return resp
}

// must is call for a request that has to succeed.
func (r *rawSession) must(req rpc.Request) *rpc.Response {
	r.t.Helper()
	resp := r.call(req)
	if err := resp.Err(); err != nil {
		r.t.Fatalf("%v: %v", req.Op, err)
	}
	return resp
}

// begin initiates and begins a transaction.
func (r *rawSession) begin() uint64 {
	r.t.Helper()
	tid := r.must(rpc.Request{Op: rpc.OpInitiate}).TID
	r.must(rpc.Request{Op: rpc.OpBegin, TID: tid})
	return tid
}

// heldObject creates an object in a transaction of its own, which keeps
// its write lock: the next Lock on it parks.
func (r *rawSession) heldObject() (holder, oid uint64) {
	r.t.Helper()
	holder = r.begin()
	oid = r.must(rpc.Request{Op: rpc.OpCreate, TID: holder, Data: []byte("held")}).OID
	return holder, oid
}

// drain reads n responses, which all have to report success, and
// acknowledges everything sent.
func (r *rawSession) drain(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if resp := r.recv(); resp.Err() != nil {
			r.t.Fatalf("request %d: %v", resp.ReqID, resp.Err())
		}
	}
	r.ack = r.last
}

// sync returns once the server's reader has taken in every frame sent so
// far: heartbeats are answered by the reader itself, in arrival order.
func (r *rawSession) sync() {
	r.t.Helper()
	id := r.send(rpc.Request{Op: rpc.OpHeartbeat})
	for {
		if resp := r.recv(); resp.ReqID == id {
			return
		}
	}
}

func (f *fixture) dialRaw() *rawSession {
	f.t.Helper()
	c, err := f.fabric.Dial("assetd")
	if err != nil {
		f.t.Fatalf("Dial: %v", err)
	}
	f.t.Cleanup(func() { c.Close() })
	return dialRaw(f.t, c)
}

// TestCancelSweepStale extends the sweep to the cancel that comes too
// late: request N was answered, the worker that served it has taken N+1
// and is parked in a lock wait under the very context N ran under, and
// only then does OpCancel(N) arrive. It must be a no-op: N+1 waits on,
// and succeeds when the lock frees. A cancel naming N+1 then does reach it.
func TestCancelSweepStale(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: time.Minute})
	r := f.dialRaw()
	holder, oid := r.heldObject()
	tid := r.begin()

	// One request at a time so far: the session has one parked worker, and
	// every request from here on is served under its context.
	n := r.must(rpc.Request{Op: rpc.OpStatus, TID: tid}).ReqID
	parked := r.send(rpc.Request{Op: rpc.OpLock, TID: tid, OID: oid, Mode: uint64(xid.OpWrite)})
	waitParked(t, f.m, 1)
	r.send(rpc.Request{Op: rpc.OpCancel, Other: n})
	r.sync()
	if got := len(f.m.WaitGraph().Waiters()); got != 1 {
		t.Fatalf("%d lock waiters after a cancel of answered request %d, want request %d still parked", got, n, parked)
	}
	r.send(rpc.Request{Op: rpc.OpCommit, TID: holder})
	r.drain(2) // the holder's commit and the parked Lock, uncancelled

	// The same worker again, and this time the cancel names what it serves.
	holder2, oid2 := r.heldObject()
	parked = r.send(rpc.Request{Op: rpc.OpLock, TID: tid, OID: oid2, Mode: uint64(xid.OpWrite)})
	waitParked(t, f.m, 1)
	r.send(rpc.Request{Op: rpc.OpCancel, Other: parked})
	if resp := r.recv(); resp.ReqID != parked || resp.Err() == nil {
		t.Fatalf("cancelled Lock answered %d: %v, want request %d failed", resp.ReqID, resp.Err(), parked)
	}
	r.ack = r.last
	// Cancelled data operation: the transaction is intact and commits.
	r.must(rpc.Request{Op: rpc.OpCommit, TID: tid})
	r.must(rpc.Request{Op: rpc.OpCommit, TID: holder2})
	f.quiesce()
}

// TestCancelRacesNextRequest: OpCancel(N) is on the wire right behind N
// and right ahead of N+1, so at the server it races N's completion and
// N+1's admission to the worker N ran on. Whichever way each race goes, N+1
// runs to its own outcome: the cancel reaches N or nothing.
func TestCancelRacesNextRequest(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: time.Minute})
	r := f.dialRaw()
	tid := r.begin()
	oid := r.must(rpc.Request{Op: rpc.OpCreate, TID: tid, Data: []byte("mine")}).OID
	// A Lock the transaction already holds is granted at once, unless the
	// context it runs under is dead: then it fails, which is the signal.
	lock := rpc.Request{Op: rpc.OpLock, TID: tid, OID: oid, Mode: uint64(xid.OpWrite)}
	cancelled := 0
	for i := 0; i < 2000; i++ {
		n := r.send(lock)
		r.send(rpc.Request{Op: rpc.OpCancel, Other: n})
		next := r.send(lock)
		for j := 0; j < 2; j++ {
			resp := r.recv()
			switch {
			case resp.ReqID == next && resp.Err() != nil:
				t.Fatalf("round %d: request %d failed with %v: the cancel of request %d reached it", i, next, resp.Err(), n)
			case resp.ReqID == n && resp.Err() != nil:
				cancelled++
			}
		}
		r.ack = r.last
	}
	t.Logf("the cancel reached its own request in %d of 2000 rounds", cancelled)
	r.must(rpc.Request{Op: rpc.OpCommit, TID: tid})
	f.quiesce()
}

// TestSessionEndLeavesNoWorkers ends a session — by lease expiry, by Bye
// and by Server.Close — while it has workers parked idle, a request parked
// in a lock wait and another waiting for that transaction's token, and
// counts goroutines: everything the session started is gone.
func TestSessionEndLeavesNoWorkers(t *testing.T) {
	const ttl = 400 * time.Millisecond
	endings := []struct {
		name string
		end  func(r *rawSession, srv *server.Server)
	}{
		{"expiry", func(r *rawSession, srv *server.Server) {}}, // no heartbeat from here on
		{"bye", func(r *rawSession, srv *server.Server) { r.send(rpc.Request{Op: rpc.OpBye}) }},
		// Close hangs up on the peer, which has not hung up itself.
		{"close", func(r *rawSession, srv *server.Server) { srv.Close() }},
	}
	for _, tc := range endings {
		t.Run(tc.name, func(t *testing.T) {
			m, err := core.Open(core.Config{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer m.Close() //nolint:errcheck
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			srv := server.Serve(m, lis, server.Config{LeaseTTL: ttl})
			defer srv.Close()
			c, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			r := dialRaw(t, c)
			// The session exists and has started nothing yet: the server runs
			// its accept loop, its lease watch and this connection's reader.
			before := runtime.NumGoroutine()

			// Three requests parked at once take three workers, which park
			// idle once the holder's commit lets the three reads through.
			holder, oid := r.heldObject()
			readers := []uint64{r.begin(), r.begin(), r.begin()}
			for _, tid := range readers {
				r.send(rpc.Request{Op: rpc.OpLock, TID: tid, OID: oid, Mode: uint64(xid.OpRead)})
			}
			waitParked(t, m, len(readers))
			r.send(rpc.Request{Op: rpc.OpCommit, TID: holder})
			r.drain(len(readers) + 1)
			// Now one request in a lock wait, one behind it — its worker
			// waits for the transaction's token — and the third worker idle.
			_, oid = r.heldObject()
			r.send(rpc.Request{Op: rpc.OpLock, TID: readers[0], OID: oid, Mode: uint64(xid.OpWrite)})
			waitParked(t, m, 1)
			r.send(rpc.Request{Op: rpc.OpLock, TID: readers[0], OID: oid, Mode: uint64(xid.OpRead)})
			r.sync()
			if during := runtime.NumGoroutine(); during < before+3 {
				t.Fatalf("%d goroutines with the session's workers parked, %d before: nothing to leave behind", during, before)
			}

			tc.end(r, srv)
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the session ended, %d before it started any:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
			quiesceManager(t, m)
		})
	}
}

// TestParkedRequestsDoNotDelayHeartbeats parks sixteen requests in lock
// waits on one connection and holds them there for three leases. The
// reader hands each to a worker and goes back to reading, so the client's
// heartbeats are answered on time, the session lives, and every request
// gets its lock once the holder lets go.
func TestParkedRequestsDoNotDelayHeartbeats(t *testing.T) {
	const ttl = 150 * time.Millisecond
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: ttl})
	holder := f.dial(client.Options{})
	cli := f.dial(client.Options{RetransmitEvery: time.Hour})
	ctx := context.Background()
	oid := createObjects(t, holder, []byte("contended"))[0]
	h := beginTx(t, holder)
	if err := h.Lock(ctx, oid, xid.OpWrite); err != nil {
		t.Fatalf("holder Lock: %v", err)
	}

	const parked = 16
	var wg sync.WaitGroup
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		tx := beginTx(t, cli)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tx.Lock(ctx, oid, xid.OpWrite); err != nil {
				errs <- err
				return
			}
			errs <- cli.Abort(ctx, tx.ID()) // pass the lock on
		}()
	}
	waitParked(t, f.m, parked)
	time.Sleep(3 * ttl) // three leases are being waited out, not a race won
	if live, expired := f.srv.SessionCounts(); live != 2 || expired != 0 {
		t.Fatalf("sessions live %d expired %d with %d requests parked for three leases, want 2 and 0", live, expired, parked)
	}
	if got := len(f.m.WaitGraph().Waiters()); got != parked {
		t.Fatalf("%d lock waiters left, want all %d still parked", got, parked)
	}
	if err := holder.Commit(ctx, h.ID()); err != nil {
		t.Fatalf("holder Commit: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("parked request: %v", err)
		}
	}
	f.quiesce()
}

// TestItxCancelledBeginAborts: an OpCancel of a begin parked for admission
// reaches the begin through its worker's context and aborts the
// transaction; the gate is left to the transaction holding the slot.
func TestItxCancelledBeginAborts(t *testing.T) {
	f := newFixture(t, core.Config{MaxLive: 1, AdmitTimeout: time.Hour}, server.Config{LeaseTTL: time.Minute})
	r := f.dialRaw()
	holder := r.begin()
	tid := r.must(rpc.Request{Op: rpc.OpInitiate}).TID
	begin := r.send(rpc.Request{Op: rpc.OpBegin, TID: tid})
	time.Sleep(30 * time.Millisecond) // parked for admission
	r.send(rpc.Request{Op: rpc.OpCancel, Other: begin})
	if resp := r.recv(); resp.ReqID != begin || resp.Err() == nil {
		t.Fatalf("cancelled begin answered %d: %v, want request %d failed", resp.ReqID, resp.Err(), begin)
	}
	r.ack = r.last
	if st := f.m.StatusOf(xid.TID(tid)); st != xid.StatusAborted {
		t.Fatalf("cancelled begin left status %v, want aborted", st)
	}
	r.must(rpc.Request{Op: rpc.OpCommit, TID: holder})
	f.quiesce()
}

// TestItxOperationAfterAbort: an operation on a transaction aborted
// underneath it (a deadlock victim, say) fails with ErrAborted; one after
// the client's own Abort finds the transaction forgotten, ErrUnknownTxn.
func TestItxOperationAfterAbort(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: time.Minute})
	r := f.dialRaw()
	lock := func(tid uint64) error {
		return r.call(rpc.Request{Op: rpc.OpLock, TID: tid, OID: 1, Mode: uint64(xid.OpWrite)}).Err()
	}
	tid := r.begin()
	if err := f.m.Abort(xid.TID(tid)); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := lock(tid); !errors.Is(err, core.ErrAborted) {
		t.Fatalf("Lock on a transaction aborted underneath = %v, want ErrAborted", err)
	}
	tid = r.begin()
	r.must(rpc.Request{Op: rpc.OpAbort, TID: tid})
	if err := lock(tid); !errors.Is(err, core.ErrUnknownTxn) {
		t.Fatalf("Lock after Abort = %v, want ErrUnknownTxn", err)
	}
	f.quiesce()
}

// TestServerCloseHangsUpOnSilentPeer: a peer that completes the hello and
// then neither sends, reads nor hangs up cannot hold Close, which closes
// the connections it accepted.
func TestServerCloseHangsUpOnSilentPeer(t *testing.T) {
	m, err := core.Open(core.Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close() //nolint:errcheck
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := server.Serve(m, lis, server.Config{LeaseTTL: time.Minute})
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	dialRaw(t, c)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Server.Close still blocked after 1s on a peer that never hangs up")
	}
}
