// Package server is the networked front end of an ASSET manager: assetd
// sessions speak the internal/rpc protocol over any net.Listener (TCP in
// production, faultnet in tests) and drive one shared core.Manager.
//
// Robustness design, in the order the chaos matrix attacks it:
//
//   - Sessions, not connections, own transactions. A connection dying
//     (drop, partition, reset) leaves the session — and its live
//     transactions — intact; the client redials and resumes the session
//     by token, and every response finds its way back on whatever
//     connection the session currently has.
//   - Each session holds a lease renewed by heartbeat. When heartbeats
//     stop (crashed or partitioned client), the lease expires and the
//     session's live transactions are aborted cleanly: no stranded
//     locks, admission slots returned.
//   - Every request carries a session-unique request ID. Completed
//     responses are recorded until the client acknowledges them, so a
//     retransmitted request — the client's answer to a lost response —
//     returns the recorded verdict instead of executing twice. Commit
//     in particular is an exactly-once decision over at-least-once
//     delivery: CommitCtx only ever returns final verdicts, and the
//     dedup window makes the verdict stable across retries.
//   - Cancellation is a first-class request (OpCancel): it cancels the
//     context the request runs under server-side, which unwinds lock
//     waits via LockCtx and aborts pre-commit-point commits — the
//     transaction is always left aborted or intact, never half-committed.
//
// A request costs the server its work and nothing else. The connection
// reader reads it into a pooled frame buffer, decodes it in place into a
// pooled inbound (request, response, the transaction it names) and passes
// the idempotency gate itself (dispatch). An admitted request goes to one
// of the session's parked workers — a goroutine with its stack grown and
// one cancel context, child of the session's, reused for every request it
// serves — and a worker is started only when all are busy, so a blocked
// lock wait never stalls the heartbeats sharing the connection. That is
// the one hop: a remote transaction has no body goroutine behind the
// worker. It is interactive, and it is nothing but its descriptor: the
// session's table and the server's index hold the *core.Tx handle that
// core.Manager.InitiateInteractive hands out, and the worker runs a begin,
// a data operation or the completion before a commit or prepare on that
// handle itself, holding the handle's own token (core.Tx.Acquire), which
// serializes what a body's one goroutine used to. The worker owns the
// inbound from dispatch on: records the verdict, parks, sends the
// response, releases the inbound — whose buffer is held that long because
// the request's Data aliases it (see package rpc).
//
// Who holds the handle: the session's table owns the reference
// initiation hands out, and the server's index shares it; forgetting the
// transaction (a commit or abort, a vote or verdict that terminated it,
// the session's expiry, an adopt that found the session dead) drops it
// exactly once, and core recycles the descriptor once it has also reaped
// the transaction. Whoever uses the handle after releasing the latch it
// found it under pins it there, while the table still vouches for it:
// dispatch for the inbound (released with it), findTxn for its callers.
// Nothing reads a handle's tid once it was adopted, since a racing expiry
// may have recycled the descriptor by then.
//
// A Read costs the server no fresh copy either: the worker reads the object
// into a buffer of its own, which the response it sends aliases, and the
// dedup window records the response's Data in a buffer of its own free
// list, given back when the client acknowledges the response.
//
// Who may cancel what: an executing request's dedup slot names its worker
// and worker.cur names the request served, both under session.mu. OpCancel,
// and an ack passing an unanswered request, cancel the worker's context
// under session.mu and only while cur is still that request, so a cancel
// that lost the race with the response never reaches the worker's next
// request. Session death cancels every worker through the parent context.
// A context is replaced when its worker parks, and only if it was really
// cancelled; contexts are stdlib ones, because lock, core and this package
// report context.Cause and it (ErrLeaseExpired, say) must reach the client.
//
// Latch order: Server.mu (4) and session.mu (6) are acquired outside —
// never across — core.Manager calls (Manager.mu is order 10); the
// per-connection write latch (8) is innermost of the server's own.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xid"
)

// Config tunes a server.
type Config struct {
	// LeaseTTL is how long a session survives without a heartbeat;
	// 0 means 2s. Tests compress this to tens of milliseconds. A quarter
	// of it is the backoff hint attached to ErrOverload responses.
	LeaseTTL time.Duration
	// Verdicts, when non-nil, makes this server answer OpVerdictQuery: it
	// is co-located with a distributed-commit coordinator whose durable
	// decision log can resolve — or, for an undecided group, force — the
	// verdict. Without it the op fails with ErrUnknownGroup.
	Verdicts VerdictResolver
}

// VerdictResolver answers "did group gid commit?" from durable state,
// forcing a presumed-abort decision for groups it never decided.
// txcoord.Coordinator implements it.
type VerdictResolver interface {
	Resolve(gid uint64) (commit bool, err error)
}

// Server serves the ASSET wire protocol on one listener.
type Server struct {
	m        *core.Manager
	lis      net.Listener
	ttl      time.Duration
	hint     time.Duration // the ErrOverload backoff hint: ttl/4
	epoch    uint64
	verdicts VerdictResolver

	// mu guards the session table, the transaction index, the connection
	// set and the closed flag. Held only for table surgery, never across
	// manager calls or frame I/O.
	//asset:latch order=4
	mu       sync.Mutex
	sessions map[uint64]*session
	// txns finds a live interactive transaction, and the session that
	// owns it, by TID: prepare and decide arrive on the coordinator's
	// session for transactions other sessions built. An entry lives from
	// OpInitiate until the session forgets the transaction or dies.
	txns   map[xid.TID]txnRef
	conns  map[net.Conn]struct{} // open connections, which Close closes
	closed bool

	closeCh chan struct{}
	wg      sync.WaitGroup // accept loop, lease watch, connection readers
	workers sync.WaitGroup // session workers, which Close waits out before closing connections
}

// txnRef is one entry of the server's transaction index.
type txnRef struct {
	sess *session
	t    *core.Tx
}

// Serve starts serving m's protocol on lis. Close closes the listener and
// every connection it accepted; the manager stays the caller's.
func Serve(m *core.Manager, lis net.Listener, cfg Config) *Server {
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	s := &Server{
		m:        m,
		lis:      lis,
		ttl:      ttl,
		hint:     ttl / 4,
		epoch:    rand.Uint64() | 1, // nonzero: 0 means "no epoch known"
		verdicts: cfg.Verdicts,
		sessions: make(map[uint64]*session),
		txns:     make(map[xid.TID]txnRef),
		conns:    make(map[net.Conn]struct{}),
		closeCh:  make(chan struct{}),
	}
	s.wg.Add(2)
	//asset:goroutine joined-by=waitgroup
	go s.acceptLoop()
	//asset:goroutine joined-by=waitgroup
	go s.leaseWatch()
	return s
}

// Epoch identifies this server incarnation; a client that saw a
// different epoch knows the server restarted and unlearned verdicts.
func (s *Server) Epoch() uint64 { return s.epoch }

// Close stops accepting, expires every session (aborting live
// transactions), lets the sessions' workers send their last responses,
// closes every connection — a peer that never hangs up cannot hold it —
// and waits for the server's goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	close(s.closeCh)
	s.lis.Close()
	for _, sess := range sessions {
		s.expire(sess, fmt.Errorf("%w: server shutting down", core.ErrClosed))
	}
	// Every session is dead, so no worker starts from here on.
	s.workers.Wait()
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
}

// SessionCounts reports (live, expired) sessions — the "no stranded
// leases" assertion of the chaos matrix.
func (s *Server) SessionCounts() (live, expired int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.dead {
			expired++
		} else {
			live++
		}
		sess.mu.Unlock()
	}
	return live, expired
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		//asset:goroutine joined-by=waitgroup
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// leaseWatch expires sessions whose lease lapsed. The tick is a quarter
// TTL so a lease is never honored much past its expiry.
func (s *Server) leaseWatch() {
	defer s.wg.Done()
	tick := time.NewTicker(max(s.ttl/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-s.closeCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		var lapsed []*session
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.mu.Lock()
			if !sess.dead && now.After(sess.leaseUntil) {
				lapsed = append(lapsed, sess)
			}
			sess.mu.Unlock()
		}
		s.mu.Unlock()
		for _, sess := range lapsed {
			s.expire(sess, fmt.Errorf("%w: no heartbeat within %v", core.ErrLeaseExpired, s.ttl))
		}
	}
}

// expire kills a session: in-flight requests are cancelled and live
// transactions aborted. The session stays in the table marked dead so a
// resume attempt learns ErrLeaseExpired (rather than being mistaken for an
// unknown token).
func (s *Server) expire(sess *session, reason error) {
	sess.mu.Lock()
	if sess.dead {
		sess.mu.Unlock()
		return
	}
	sess.dead = true
	txns := sess.txns
	sess.txns = make(map[xid.TID]*core.Tx)
	for _, w := range sess.idle {
		w.retire()
	}
	sess.idle = nil
	// sess.reqs is deliberately kept: verdicts already decided must stay
	// fetchable by retransmission even after the session dies — expiry
	// strands no locks, but it must also unlearn no decisions.
	sess.mu.Unlock()
	s.unindex(txns)
	// Cancel first, so that operations in flight report the session's death
	// (reason) rather than a bare abort. Abort leaves alone what is past the
	// commit point or prepared: expiry never decides a verdict.
	sess.cancel(reason)
	for tid, t := range txns {
		s.m.AbortWith(tid, reason) //nolint:errcheck
		t.Unpin()
	}
}

// serveConn runs one connection: handshake, then a read loop that answers
// session control itself and passes every other request through dispatch.
func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.conns[nc] = struct{}{}
	}
	s.mu.Unlock()
	if closed {
		return
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	conn := &srvConn{c: nc}
	fr := rpc.NewFrameReader(nc)
	sess := s.handshake(conn, fr)
	if sess == nil {
		return
	}
	for {
		// Transport death or a truncated/corrupt frame drops the
		// connection. The session survives on its lease; a resumed
		// connection picks the work back up.
		in, err := readInbound(fr)
		if err != nil {
			return
		}
		switch in.req.Op {
		case rpc.OpHeartbeat:
			sess.heartbeat(conn, in, s.ttl)
			in.release()
		case rpc.OpCancel:
			sess.cancelRequest(in.req.Other)
			in.release()
		case rpc.OpBye:
			// Handled inline, before the dispatch dedup gate: the client
			// sends Bye fire-and-forget with no request ID, which the gate
			// would silently drop — leaving the session to linger holding
			// its transactions and locks until the lease lapsed.
			in.release()
			sess.bye()
			return
		default:
			sess.dispatch(conn, in)
		}
	}
}

// inbound is one request on its way through the server, recycled through
// inboundPool: the frame buffer it arrived in, the request decoded in
// place (req.Data aliases buf), the response being built, and the
// session's transaction req.TID names, if any, as dispatch found and
// pinned it. The reader owns it until dispatch hands it to a worker, then
// the worker; the owner releases it once nothing reads req, resp or buf
// any more — after the response was sent; a response recorded for replay
// is a copy.
type inbound struct {
	buf  *rpc.Buffer
	req  rpc.Request
	resp rpc.Response
	t    *core.Tx
}

var inboundPool = sync.Pool{New: func() any { return new(inbound) }}

// readInbound reads and decodes the next request frame.
func readInbound(fr *rpc.FrameReader) (*inbound, error) {
	buf, err := fr.Next()
	if err != nil {
		return nil, err
	}
	in := inboundPool.Get().(*inbound)
	in.buf = buf
	if err := rpc.DecodeRequestInto(&in.req, buf.B); err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

func (in *inbound) release() {
	if in.t != nil {
		in.t.Unpin()
	}
	in.buf.Release()
	in.buf, in.req, in.resp, in.t = nil, rpc.Request{}, rpc.Response{}, nil
	inboundPool.Put(in)
}

// handshake consumes the OpHello that must open every connection and
// either creates a session, resumes one by token, or reports why not
// (expired lease, unknown token, closed server).
func (s *Server) handshake(conn *srvConn, fr *rpc.FrameReader) *session {
	in, err := readInbound(fr)
	if err != nil {
		return nil
	}
	defer in.release()
	req, resp := &in.req, &in.resp
	if req.Op != rpc.OpHello {
		return nil
	}
	*resp = rpc.Response{ReqID: req.ReqID, Val: s.epoch, Aux: uint64(s.ttl / time.Microsecond)}
	sess, err := s.resolveSession(req.Other)
	if err != nil {
		resp.SetError(err, 0)
		conn.send(resp) //nolint:errcheck
		return nil
	}
	sess.mu.Lock()
	sess.leaseUntil = time.Now().Add(s.ttl)
	sess.mu.Unlock()
	resp.TID = sess.id
	// The hello reply goes out before the connection is published: once
	// sess.conn is set, workers finishing old requests route their
	// responses here, and one of those frames must not beat the
	// handshake response onto the wire. (The client matches the reply by
	// request ID regardless — this ordering keeps the common path clean.)
	if conn.send(resp) != nil {
		return nil
	}
	sess.mu.Lock()
	sess.conn = conn
	sess.mu.Unlock()
	return sess
}

// resolveSession maps a hello token to a session: 0 creates one, a known
// live token resumes, a dead or unknown token is an expired lease (an
// unknown token can only be a session this incarnation already forgot).
func (s *Server) resolveSession(token uint64) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, core.ErrClosed
	}
	if token == 0 {
		sess := newSession(s)
		s.sessions[sess.id] = sess
		return sess, nil
	}
	sess := s.sessions[token]
	if sess == nil {
		return nil, fmt.Errorf("%w: unknown session %#x", core.ErrLeaseExpired, token)
	}
	sess.mu.Lock()
	dead := sess.dead
	sess.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("%w: session %#x expired", core.ErrLeaseExpired, token)
	}
	return sess, nil
}

// srvConn serializes frame writes on one connection; responses from the
// reader and concurrent workers interleave at frame granularity only.
type srvConn struct {
	//asset:latch order=8
	mu sync.Mutex
	c  net.Conn
}

// send encodes resp as one frame in a pooled buffer and writes it in a
// single Write call.
func (c *srvConn) send(resp *rpc.Response) error {
	buf := rpc.GetBuffer()
	defer buf.Release()
	buf.B = rpc.AppendResponse(rpc.BeginFrame(buf.B), resp)
	rpc.FinishFrame(buf.B)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.c.Write(buf.B)
	return err
}

// session is the unit of fault tolerance: it outlives connections and
// dies only by Bye, lease expiry, or server close.
type session struct {
	id  uint64
	srv *Server

	ctx       context.Context // parent of every worker's context
	cancelCtx context.CancelCauseFunc

	// mu guards everything below. Held for table surgery and frame
	// sends only — never across manager calls.
	//asset:latch order=6
	mu         sync.Mutex
	dead       bool
	leaseUntil time.Time
	conn       *srvConn
	txns       map[xid.TID]*core.Tx
	reqs       dedup
	idle       []*worker // parked workers, most recently parked last
}

// maxIdleWorkers bounds a session's parked workers; a burst of lock waits
// may run more, which end instead of parking.
const maxIdleWorkers = 8

// worker is one request goroutine of a session and the cancel context
// every request it serves runs under.
type worker struct {
	sess *session
	in   chan *inbound // buffered(1): a hand-off under session.mu never blocks; closed to end the worker
	// rbuf is what a Read reads into. The response sent aliases it, so it
	// is reused only once that response is out: by the worker's next
	// request.
	rbuf []byte
	// tids is what a prepare decodes its tid list into and a verdict
	// learns its group's members into; the next request reuses it.
	tids []xid.TID

	// Guarded by session.mu: cur is the request being served, nil between
	// requests; ctx is replaced, while parking, once it was cancelled.
	cur    *inbound
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// getWorker pops the most recently parked worker, or starts one. Caller
// holds sess.mu, on a live session: Close expires every session before it
// waits for the workers, so Add cannot race that Wait.
func (sess *session) getWorker() *worker {
	if n := len(sess.idle); n > 0 {
		w := sess.idle[n-1]
		sess.idle = sess.idle[:n-1]
		return w
	}
	w := &worker{sess: sess, in: make(chan *inbound, 1)}
	w.ctx, w.cancel = context.WithCancelCause(sess.ctx)
	sess.srv.workers.Add(1)
	//asset:goroutine joined-by=waitgroup
	go w.run()
	return w
}

// run serves the requests handed to w until retire closes w.in.
func (w *worker) run() {
	defer w.sess.srv.workers.Done()
	for in := range w.in {
		w.finish(in, w.perform(in))
	}
}

// finish ends request in, which w served with outcome err: record the
// verdict, park w, answer, release.
func (w *worker) finish(in *inbound, err error) {
	sess, resp := w.sess, &in.resp
	if err != nil {
		var hint time.Duration
		if errors.Is(err, core.ErrOverload) {
			hint = sess.srv.hint
		}
		resp.SetError(err, hint)
	}
	resp.ReqID = in.req.ReqID
	sess.mu.Lock()
	// Recorded even on a dead session: the verdict may already have been
	// durably decided, and retransmits must learn it.
	sess.reqs.complete(in.req.ReqID, resp)
	cur := sess.conn
	w.cur = nil
	switch {
	case sess.dead || len(sess.idle) >= maxIdleWorkers:
		w.retire()
	default:
		if w.ctx.Err() != nil {
			w.ctx, w.cancel = context.WithCancelCause(sess.ctx)
		}
		sess.idle = append(sess.idle, w)
	}
	sess.mu.Unlock()
	if cur != nil {
		// Route to the session's *current* connection: the one the request
		// arrived on may be long dead. A failed send is fine — the response
		// is recorded, and the retransmit will fetch it.
		cur.send(resp) //nolint:errcheck
	}
	in.release()
}

// retire ends w, which serves nothing and is on no idle stack. Caller
// holds sess.mu.
func (w *worker) retire() {
	w.cancel(nil)
	close(w.in)
}

// cancelLocked cancels request id with cause if w still serves it; a
// cancel that lost the race with the response must not reach the request
// w took next. Caller holds sess.mu.
func (w *worker) cancelLocked(id uint64, cause error) {
	if in := w.cur; in != nil && in.req.ReqID == id {
		w.cancel(cause)
	}
}

var errAbandoned = errors.New("server: request abandoned by client")

func newSession(s *Server) *session {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &session{
		id:         rand.Uint64() | 1,
		srv:        s,
		ctx:        ctx,
		cancelCtx:  cancel,
		leaseUntil: time.Now().Add(s.ttl),
		txns:       make(map[xid.TID]*core.Tx),
	}
}

func (sess *session) cancel(reason error) { sess.cancelCtx(reason) }

func (sess *session) heartbeat(conn *srvConn, in *inbound, ttl time.Duration) {
	resp := &in.resp
	resp.ReqID = in.req.ReqID
	sess.mu.Lock()
	if sess.dead {
		resp.SetError(core.ErrLeaseExpired, 0)
	} else {
		sess.leaseUntil = time.Now().Add(ttl)
		resp.Aux = uint64(ttl / time.Microsecond)
	}
	sess.mu.Unlock()
	conn.send(resp) //nolint:errcheck
}

// cancelRequest serves OpCancel: cancelling the context an in-flight
// request runs under. Unknown request IDs (already answered, or the
// request frame itself was lost) are a silent no-op.
func (sess *session) cancelRequest(reqID uint64) {
	sess.mu.Lock()
	sess.reqs.cancel(reqID, fmt.Errorf("server: request %d cancelled by client", reqID))
	sess.mu.Unlock()
}

// dispatch is the idempotency gate, run by the connection reader: a
// completed request replays its recorded response, an executing request
// stays deduplicated, and only a genuinely new request executes — on a
// worker of the session, under that worker's context, which OpCancel (or
// session death) can cancel.
func (sess *session) dispatch(conn *srvConn, in *inbound) {
	req, resp := &in.req, &in.resp
	sess.mu.Lock()
	// The client has the responses up to Ack; their verdicts can go.
	sess.reqs.ack(req.Ack)
	verdict, slot := sess.reqs.admit(req.ReqID, sess.dead)
	switch verdict {
	case admitExecute:
		if t := sess.txns[xid.TID(req.TID)]; t != nil {
			t.Pin() // the table vouches for it while sess.mu is held
			in.t = t
		}
		w := sess.getWorker()
		slot.w, w.cur = w, in
		w.in <- in
	case admitReplay:
		// The recorded Data goes back to the window's free list once the
		// client acknowledges it, which a reader of another connection of
		// the session may do while this one sends: send a copy of it.
		*resp = slot.resp
		resp.Data = append(in.buf.B[len(in.buf.B):], slot.resp.Data...)
	}
	sess.mu.Unlock()
	switch verdict {
	case admitExecute:
		return // whoever executes in owns it now
	case admitDrop:
		// An acknowledged ID can only be a network ghost — a duplicated,
		// delayed, or reordered copy of a request whose response the
		// client already has (or abandoned). Its verdict may already be
		// retired, so executing it again would double-apply; at-most-once
		// means acknowledged IDs are a hard floor. (The other drop is a
		// copy of a request still executing, which will answer itself.)
	case admitReplay:
		conn.send(resp) //nolint:errcheck
	case admitExpired, admitOverflow:
		sess.refuse(conn, in, verdict)
	}
	in.release()
}

// refuse answers a new request the gate will not execute.
//
//go:noinline
func (sess *session) refuse(conn *srvConn, in *inbound, verdict admission) {
	in.resp.ReqID = in.req.ReqID
	if verdict == admitExpired {
		in.resp.SetError(core.ErrLeaseExpired, 0)
	} else {
		in.resp.SetError(fmt.Errorf("%w: request %d is more than %d ahead of the oldest unacknowledged one",
			core.ErrOverload, in.req.ReqID, maxAhead), sess.srv.hint)
	}
	conn.send(&in.resp) //nolint:errcheck
}

// perform executes one request against the manager, building the response
// in in.resp. Every blocking path observes w's context, so a client cancel
// (or session death) unwinds it.
func (w *worker) perform(in *inbound) error {
	sess, ctx := w.sess, w.ctx
	m := sess.srv.m
	req, resp, t := &in.req, &in.resp, in.t
	tid := xid.TID(req.TID)
	switch req.Op {
	case rpc.OpInitiate:
		t, err := m.InitiateInteractive()
		if err != nil {
			return err
		}
		// Read before adopt: once the tables own the handle, a racing
		// expiry may abort, unpin and recycle it.
		tid := t.ID()
		if !sess.adopt(tid, t) {
			m.Abort(tid) //nolint:errcheck
			t.Unpin()
			return core.ErrLeaseExpired
		}
		resp.TID = uint64(tid)
	case rpc.OpBegin:
		if t == nil {
			return core.ErrUnknownTxn
		}
		return begin(ctx, m, t)
	case rpc.OpCommit:
		if t != nil {
			if err := complete(ctx, t); err != nil {
				return err
			}
		}
		err := m.CommitCtx(ctx, tid)
		if err == nil || m.StatusOf(tid).Terminated() {
			// Only a terminal transaction leaves the table: one whose commit
			// failed with it still alive (ErrNotBegun, say) stays tracked,
			// so that expiry still aborts it.
			sess.forget(tid)
		}
		if err != nil {
			return err
		}
		resp.Status = byte(xid.StatusCommitted)
	case rpc.OpAbort:
		err := m.Abort(tid)
		sess.forget(tid)
		if err != nil {
			return err
		}
		resp.Status = byte(xid.StatusAborted)
	case rpc.OpWait:
		err := m.WaitCtx(ctx, tid)
		resp.Status = byte(m.StatusOf(tid))
		return err
	case rpc.OpStatus:
		st, known := m.LookupStatus(tid)
		resp.Status = byte(st)
		if known {
			resp.Val = 1
		}
	case rpc.OpDelegate:
		return m.Delegate(tid, xid.TID(req.Other), oidsOf(req)...)
	case rpc.OpPermit:
		return m.Permit(tid, xid.TID(req.Other), oidsOf(req), xid.OpSet(req.Mode))
	case rpc.OpFormDep:
		return m.FormDependency(xid.DepType(req.Mode), tid, xid.TID(req.Other))
	case rpc.OpPrepare:
		ids, err := rpc.DecodeTIDsInto(w.tids, req.Data)
		w.tids = ids
		if err != nil {
			return err
		}
		for _, id := range ids {
			// Complete each transaction first, wherever its session is — the
			// prepare usually arrives on the coordinator's session for
			// transactions built by the application's.
			if ref := sess.srv.findTxn(id); ref.t != nil {
				err := complete(ctx, ref.t)
				ref.t.Unpin()
				if err != nil {
					return err
				}
			}
		}
		if err := m.PrepareCtx(ctx, req.Other, ids...); err != nil {
			sess.srv.reapTerminated(ids)
			return err
		}
	case rpc.OpDecide:
		w.tids = m.AppendPreparedMembers(w.tids[:0], req.Other)
		if err := m.Decide(req.Other, req.Mode == 1); err != nil {
			return err
		}
		sess.srv.reapTerminated(w.tids)
	case rpc.OpVerdictQuery:
		if sess.srv.verdicts == nil {
			return fmt.Errorf("%w: no coordinator at this server", core.ErrUnknownGroup)
		}
		commit, err := sess.srv.verdicts.Resolve(req.Other)
		if err != nil {
			return err
		}
		if commit {
			resp.Val = 1
		} else {
			resp.Val = 2
		}
	case rpc.OpLock, rpc.OpRead, rpc.OpWrite, rpc.OpCreate, rpc.OpDelete,
		rpc.OpAdd, rpc.OpDeclareEscrow, rpc.OpReadCounter:
		if t == nil {
			return core.ErrUnknownTxn
		}
		return do(ctx, t, in, &w.rbuf)
	default:
		// OpBye never reaches here: serveConn intercepts it pre-dispatch.
		return fmt.Errorf("server: unsupported op %v", req.Op)
	}
	return nil
}

// The token of an interactive transaction serializes the workers that serve
// its requests as a body's one goroutine would: begin, every data operation
// and completion hold it while they run, so the handle never sees two
// operations at once and a completion never overtakes a begin or an
// operation under way. Abort takes no token: core aborts a transaction from
// any goroutine, and an operation in flight observes it.

// begin begins t. ctx — the begin request's — bounds the begin's waits
// (admission queue, begin-dependency gates): a cancel of the request or the
// session's death there aborts the transaction, so there is no half-begun
// state to leave behind.
func begin(ctx context.Context, m *core.Manager, t *core.Tx) error {
	if err := t.Acquire(ctx); err != nil {
		return err
	}
	defer t.Release()
	_, err := m.BeginInteractive(ctx, t.ID())
	return err
}

// do runs one data operation on t under ctx, reading into *rbuf.
// Cancellation before the token is taken leaves the transaction untouched;
// after, the operation itself observes ctx (LockCtx/AddCtx). Whether t was
// begun, or has completed, its status says.
func do(ctx context.Context, t *core.Tx, in *inbound, rbuf *[]byte) error {
	if err := t.Acquire(ctx); err != nil {
		return fmt.Errorf("server: op abandoned: %w", err)
	}
	defer t.Release()
	switch t.Status() {
	case xid.StatusInitiated:
		return core.ErrNotBegun
	case xid.StatusCompleted, xid.StatusCommitting, xid.StatusPrepared, xid.StatusCommitted:
		return core.ErrTerminated
	}
	return dataOp(ctx, t, &in.req, &in.resp, rbuf)
}

// complete ends t's execution ahead of its commit or prepare, which drive
// only completed transactions. It waits for a begin or an operation under
// way unless ctx ends first, which leaves the transaction running and
// intact. A transaction never begun is left as it is (CommitCtx says
// ErrNotBegun).
func complete(ctx context.Context, t *core.Tx) error {
	if err := t.Acquire(ctx); err != nil {
		return fmt.Errorf("server: commit abandoned before completion: %w", err)
	}
	defer t.Release()
	t.Complete()
	return nil
}

// maxKeptBuf bounds the read buffers a worker and a session's dedup window
// keep for reuse, so one large object does not stay pinned.
const maxKeptBuf = 64 << 10

// dataOp runs one data operation on the transaction's handle. Operations
// that can block on locks pre-acquire via the ctx-aware paths (LockCtx,
// AddCtx) so client cancellation unwinds the wait. req.Data aliases the
// request's frame buffer, which the request's worker holds until this has
// returned; core copies what it keeps. A Read appends the object to
// (*rbuf)[:0], and resp.Data aliases the result until the response is sent.
func dataOp(ctx context.Context, tx *core.Tx, req *rpc.Request, resp *rpc.Response, rbuf *[]byte) error {
	oid := xid.OID(req.OID)
	switch req.Op {
	case rpc.OpLock:
		return tx.LockCtx(ctx, oid, xid.OpSet(req.Mode))
	case rpc.OpRead:
		if err := tx.LockCtx(ctx, oid, xid.OpRead); err != nil {
			return err
		}
		data, err := tx.AppendRead((*rbuf)[:0], oid)
		if err != nil {
			return err
		}
		if cap(data) <= maxKeptBuf {
			*rbuf = data[:0]
		}
		resp.Data = data
		return nil
	case rpc.OpWrite:
		if err := tx.LockCtx(ctx, oid, xid.OpWrite); err != nil {
			return err
		}
		return tx.Write(oid, req.Data)
	case rpc.OpCreate:
		id, err := tx.Create(req.Data)
		resp.OID = uint64(id)
		return err
	case rpc.OpDelete:
		if err := tx.LockCtx(ctx, oid, xid.OpWrite); err != nil {
			return err
		}
		return tx.Delete(oid)
	case rpc.OpAdd:
		return tx.AddCtx(ctx, oid, req.Delta)
	case rpc.OpDeclareEscrow:
		return tx.DeclareEscrow(oid, req.Lo, req.Hi)
	case rpc.OpReadCounter:
		if err := tx.LockCtx(ctx, oid, xid.OpRead); err != nil {
			return err
		}
		v, err := tx.ReadCounter(oid)
		resp.Val = v
		return err
	}
	return fmt.Errorf("server: not a data op: %v", req.Op)
}

// adopt enters tid, freshly initiated as t, into the session's table and
// the server's index, which take over the caller's reference on t; false
// means the session died first, and the reference stays the caller's.
func (sess *session) adopt(tid xid.TID, t *core.Tx) bool {
	s := sess.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.dead {
		return false
	}
	sess.txns[tid] = t
	s.txns[tid] = txnRef{sess: sess, t: t}
	return true
}

// findTxn locates tid's handle, whichever session owns it, and pins it;
// the caller unpins it after its last use. The zero txnRef means no live
// session does.
func (s *Server) findTxn(tid xid.TID) txnRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := s.txns[tid]
	if ref.t != nil {
		ref.t.Pin() // the index vouches for it while s.mu is held
	}
	return ref
}

// unindex drops a dead session's transactions from the server's index.
func (s *Server) unindex(txns map[xid.TID]*core.Tx) {
	if len(txns) == 0 {
		return
	}
	s.mu.Lock()
	for tid := range txns {
		delete(s.txns, tid)
	}
	s.mu.Unlock()
}

// reapTerminated forgets the listed transactions wherever a vote or
// verdict terminated them.
func (s *Server) reapTerminated(ids []xid.TID) {
	for _, id := range ids {
		if !s.m.StatusOf(id).Terminated() {
			continue
		}
		if ref := s.findTxn(id); ref.t != nil {
			ref.sess.forget(id)
			ref.t.Unpin()
		}
	}
}

// forget drops tid from the session's transaction table and the server's
// index (terminal ops), and with them the tables' reference on its handle.
// Only the call that finds it in the table drops it: expiry takes the whole
// table at once under sess.mu.
func (sess *session) forget(tid xid.TID) {
	s := sess.srv
	s.mu.Lock()
	sess.mu.Lock()
	t := sess.txns[tid]
	if t != nil {
		delete(sess.txns, tid)
		delete(s.txns, tid)
	}
	sess.mu.Unlock()
	s.mu.Unlock()
	if t != nil {
		t.Unpin()
	}
}

// bye ends the session gracefully (client-initiated); live transactions
// abort exactly as on lease expiry.
func (sess *session) bye() {
	sess.srv.expire(sess, fmt.Errorf("%w: session closed by client", core.ErrAborted))
	sess.srv.mu.Lock()
	delete(sess.srv.sessions, sess.id)
	sess.srv.mu.Unlock()
}

func oidsOf(req *rpc.Request) []xid.OID {
	if req.OID == 0 {
		return nil
	}
	return []xid.OID{xid.OID(req.OID)}
}
