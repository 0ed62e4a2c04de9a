// Package client is the fault-tolerant ASSET client: it speaks the
// internal/rpc protocol to an assetd server and hides network failure
// behind the same error-classification contract local code gets from
// core.
//
// The machinery, bottom up:
//
//   - Every request gets a session-unique ID and stays in the pending
//     window until its response arrives or its context dies. A
//     retransmit ticker re-sends unanswered requests (the server
//     deduplicates, so at-least-once delivery is safe), and the request
//     piggybacks an ack watermark — the window's floor — that licenses
//     the server to retire its recorded verdicts up to there.
//   - A steady-state round trip allocates nothing here: calls are pooled
//     with their request and response inside them, frames are built in
//     and read into pooled buffers (rpc.Buffer), and a response's Data is
//     copied exactly once, for the caller, before its buffer goes back.
//   - Connections are expendable; the session is not. When a
//     connection dies — or a heartbeat probe times out, which is how a
//     one-way partition is detected — the client redials and resumes
//     the session by token. Responses to retransmitted requests carry
//     the original verdicts.
//   - If the lease expired while the client was away, in-flight commits
//     are not blindly retried: the client opens a fresh session and,
//     when the server's epoch proves it is the same incarnation, asks
//     for the recorded status of each in-doubt transaction. A changed
//     epoch, or a tid the server has since forgotten, means the verdict
//     is unlearnable: ErrUnknownOutcome, terminal by design.
//   - Run drives transaction bodies through core.Retry — the same
//     backoff engine local transactions use — with transport errors
//     (ErrConnLost) and lease expiries classified retryable, and server
//     overload hints flooring the backoff.
//
// Latch order: Client.mu (2) is outermost, the per-connection write
// latch (3) inside it; neither is ever held across a blocking read,
// dial, or backoff sleep.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xid"
)

// Options configures a client.
type Options struct {
	// Dial opens a transport connection to the server (required).
	Dial func(ctx context.Context) (net.Conn, error)
	// RetransmitEvery is the resend cadence for unanswered requests and
	// the redial cadence while disconnected; 0 means 25ms.
	RetransmitEvery time.Duration
	// HeartbeatEvery is the lease-renewal cadence; 0 derives a third of
	// the server's lease TTL from the handshake.
	HeartbeatEvery time.Duration
	// ProbeTimeout bounds how long an unanswered heartbeat is tolerated
	// before the connection is declared dead (one-way partitions leave
	// the socket "healthy" while eating every response); 0 derives from
	// HeartbeatEvery.
	ProbeTimeout time.Duration
	// HandshakeTimeout bounds the synchronous hello exchange on a fresh
	// connection; 0 means 2s. Lower it together with RetransmitEvery: a
	// hello frame the network eats stalls the whole client (the dial
	// path is single-flight) until this deadline expires and the redial
	// loop tries again.
	HandshakeTimeout time.Duration
}

// handshakeTimeout returns the configured hello deadline.
func (c *Client) handshakeTimeout() time.Duration {
	if c.opts.HandshakeTimeout > 0 {
		return c.opts.HandshakeTimeout
	}
	return 2 * time.Second
}

// Client is a fault-tolerant connection to one assetd server. Safe for
// concurrent use.
type Client struct {
	opts Options

	// mu guards the session/connection state, the pending window and
	// every call's id. Never held across dial, frame I/O on the read
	// path, or sleeps.
	//asset:latch order=2
	mu      sync.Mutex
	conn    *cliConn
	dialing chan struct{} // single-flight redial; nil when idle
	sess    uint64
	epoch   uint64
	ttl     time.Duration
	// pending issues the request IDs and holds the unanswered calls by ID
	// (a nil slot is an ID already answered, abandoned or never awaited);
	// its floor is the ack watermark: every ID at or below it is one the
	// client will never ask about again.
	pending rpc.Window[*call]
	closed  bool

	closeCh chan struct{}
	wg      sync.WaitGroup
}

// call is one in-flight request, recycled through callPool with its
// request, response, channel and data buffer.
//
// A recycled call must never receive a previous life's verdict, and
// several paths hold a *call outside Client.mu (the lease-expiry drains,
// the in-doubt resolver). The rule that makes that safe: id, guarded by
// Client.mu, is the request the call is waiting on and zero once that
// wait is over; a verdict is handed over only under Client.mu and only
// while id still names the request it answers (complete), and the waiter
// recycles the call only after its wait is over. req is written by the
// waiter before the call is published and read by others only under
// Client.mu while the call is in the pending window.
type call struct {
	id   uint64
	req  rpc.Request
	resp rpc.Response
	done chan struct{} // buffered(1): signalled once resp is filled
	// data is what a request whose Data the client encodes itself (a
	// prepare's tid list) is encoded into.
	data []byte
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// recycle returns a call whose wait is over (id is zero, done is empty).
func recycle(cl *call) {
	cl.req, cl.resp = rpc.Request{}, rpc.Response{}
	callPool.Put(cl)
}

// stranded is a call a drain took out of the pending window, with the
// facts about its request copied under Client.mu: the call itself may be
// recycled the moment its waiter gives up.
type stranded struct {
	cl  *call
	id  uint64
	op  rpc.Op
	tid uint64
}

// cliConn serializes frame writes on one transport connection and owns
// its frame reader (used by the handshake, then by the read loop).
type cliConn struct {
	//asset:latch order=3
	mu sync.Mutex
	c  net.Conn
	fr *rpc.FrameReader
}

func newCliConn(nc net.Conn) *cliConn {
	return &cliConn{c: nc, fr: rpc.NewFrameReader(nc)}
}

// send encodes req as one frame in a pooled buffer and writes it.
func (c *cliConn) send(req *rpc.Request) error {
	buf := requestFrame(req)
	err := c.write(buf.B)
	buf.Release()
	return err
}

// write sends one whole frame in a single Write call.
func (c *cliConn) write(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.c.Write(frame)
	return err
}

func requestFrame(req *rpc.Request) *rpc.Buffer {
	buf := rpc.GetBuffer()
	buf.B = rpc.AppendRequest(rpc.BeginFrame(buf.B), req)
	rpc.FinishFrame(buf.B)
	return buf
}

// Dial connects to the server and establishes a session.
func Dial(ctx context.Context, opts Options) (*Client, error) {
	if opts.Dial == nil {
		return nil, errors.New("client: Options.Dial is required")
	}
	if opts.RetransmitEvery <= 0 {
		opts.RetransmitEvery = 25 * time.Millisecond
	}
	c := &Client{
		opts:    opts,
		closeCh: make(chan struct{}),
	}
	if _, err := c.ensureConn(ctx); err != nil {
		return nil, err
	}
	c.wg.Add(2)
	//asset:goroutine joined-by=waitgroup
	go c.retransmitLoop()
	//asset:goroutine joined-by=waitgroup
	go c.heartbeatLoop()
	return c, nil
}

// Close ends the session (best-effort Bye) and fails every pending call
// with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	sess := c.sess
	pend := c.drainPendingLocked()
	c.mu.Unlock()
	close(c.closeCh)
	if conn != nil && sess != 0 {
		conn.send(&rpc.Request{Op: rpc.OpBye}) //nolint:errcheck
	}
	for _, st := range pend {
		c.fail(st, fmt.Errorf("client: closed: %w", core.ErrClosed))
	}
	if conn != nil {
		conn.c.Close()
	}
	c.wg.Wait()
	return nil
}

// drainPendingLocked empties the pending window — every ID issued so far
// is thereby acknowledged — and returns the calls that were waiting in
// it. Their verdicts are now the drainer's to deliver (fail, complete).
func (c *Client) drainPendingLocked() []stranded {
	var out []stranded
	floor := c.pending.Floor()
	end := floor + uint64(c.pending.Len())
	for id := floor + 1; id <= end; id++ {
		if cl := *c.pending.Slot(id); cl != nil {
			out = append(out, stranded{cl: cl, id: id, op: cl.req.Op, tid: cl.req.TID})
		}
	}
	c.pending.Reset(end)
	return out
}

// complete hands resp to the waiter of request id, if cl is still that
// request's call, and retires the ID. Anything else — the waiter gave up,
// the verdict was already delivered, the call lives a new life — makes it
// a no-op: this is the one gate a verdict passes through.
func (c *Client) complete(cl *call, id uint64, resp *rpc.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completeLocked(cl, id, resp)
}

func (c *Client) completeLocked(cl *call, id uint64, resp *rpc.Response) {
	if cl.id != id {
		return
	}
	c.retireLocked(cl, id)
	cl.resp = *resp
	if len(resp.Data) > 0 {
		// Off the wire, Data aliases a frame buffer about to be released.
		// This copy is the one allocation a Read costs here, and the slice
		// Tx.Read returns.
		cl.resp.Data = append([]byte(nil), resp.Data...)
	}
	cl.done <- struct{}{} // buffered(1) and empty while id is set: never blocks
}

// retireLocked ends cl's wait on id: the call stops accepting a verdict,
// the ID leaves the pending window, and the ack watermark moves up past
// every retired ID at the window's front.
func (c *Client) retireLocked(cl *call, id uint64) {
	cl.id = 0
	if slot := c.pending.Slot(id); slot != nil && *slot == cl {
		*slot = nil
	}
	c.trimLocked()
}

// trimLocked pops the retired IDs at the front of the pending window.
func (c *Client) trimLocked() {
	for front := c.pending.Front(); front != nil && *front == nil; front = c.pending.Front() {
		c.pending.PopFront()
	}
}

// fail delivers err as a drained call's verdict.
func (c *Client) fail(st stranded, err error) {
	var resp rpc.Response
	resp.SetError(err, 0)
	c.complete(st.cl, st.id, &resp)
}

// Session returns the current session token (0 before the first
// successful handshake).
func (c *Client) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

// Epoch returns the server incarnation the client last spoke to.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// ensureConn returns a live connection, redialing (single-flight) if
// necessary. A failed redial round returns ErrConnLost — retryable, so
// Run-level backoff paces reconnection storms.
func (c *Client) ensureConn(ctx context.Context) (*cliConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("client: closed: %w", core.ErrClosed)
		}
		if c.conn != nil {
			conn := c.conn
			c.mu.Unlock()
			return conn, nil
		}
		if c.dialing == nil {
			done := make(chan struct{})
			c.dialing = done
			c.mu.Unlock()
			err := c.redial(ctx)
			c.mu.Lock()
			c.dialing = nil
			c.mu.Unlock()
			close(done)
			if err != nil {
				return nil, err
			}
			continue
		}
		done := c.dialing
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, fmt.Errorf("client: dial wait: %w", ctx.Err())
		case <-c.closeCh:
			return nil, fmt.Errorf("client: closed: %w", core.ErrClosed)
		}
	}
}

// redial opens a transport connection and runs the session handshake,
// resuming the current session when possible and resolving in-doubt
// requests when not.
func (c *Client) redial(ctx context.Context) error {
	c.mu.Lock()
	token := c.sess
	c.mu.Unlock()
	nc, err := c.opts.Dial(ctx)
	if err != nil {
		return fmt.Errorf("client: dial: %w: %w", core.ErrConnLost, err)
	}
	conn := newCliConn(nc)
	resp, err := c.hello(conn, token)
	if err != nil {
		if errors.Is(err, core.ErrLeaseExpired) && token != 0 {
			// The session died while we were away. Open a fresh one and
			// resolve what was in flight.
			nc.Close()
			return c.resumeExpired(ctx)
		}
		nc.Close()
		return err
	}
	c.adopt(conn, resp)
	return nil
}

// hello performs the handshake on conn; the response carries session
// token, epoch, and lease TTL. The reply is matched by request ID: on a
// session resume, a dispatch goroutine finishing an old request can race
// its response onto the new connection ahead of the hello reply (or a
// fault script can reorder the frames), and adopting such a frame as the
// handshake would install a garbage token and epoch. Raced responses are
// routed to their pending waiters instead.
func (c *Client) hello(conn *cliConn, token uint64) (*rpc.Response, error) {
	c.mu.Lock()
	// The hello takes an ID from the sequence but is matched below, not
	// through the pending window: its slot is born retired.
	id := c.pending.Push(nil)
	c.trimLocked()
	req := rpc.Request{ReqID: id, Op: rpc.OpHello, Other: token, Mode: c.epoch}
	c.mu.Unlock()
	if err := conn.send(&req); err != nil {
		return nil, fmt.Errorf("client: handshake send: %w: %w", core.ErrConnLost, err)
	}
	// The deadline is absolute, so the loop below is bounded even if the
	// connection keeps yielding non-hello frames.
	conn.c.SetReadDeadline(time.Now().Add(c.handshakeTimeout())) //nolint:errcheck
	defer conn.c.SetReadDeadline(time.Time{})                    //nolint:errcheck
	for {
		buf, err := conn.fr.Next()
		if err != nil {
			return nil, fmt.Errorf("client: handshake read: %w: %w", core.ErrConnLost, err)
		}
		resp := &rpc.Response{}
		err = rpc.DecodeResponseInto(resp, buf.B)
		if err == nil && resp.ReqID != req.ReqID {
			c.deliver(resp)
			buf.Release()
			continue
		}
		// A hello reply carries no Data, so nothing of resp aliases buf.
		resp.Data = nil
		buf.Release()
		if err != nil {
			return nil, fmt.Errorf("client: handshake decode: %w: %w", core.ErrConnLost, err)
		}
		return resp, resp.Err()
	}
}

// adopt installs a freshly handshaken connection, starts its read loop,
// and retransmits everything pending (the server deduplicates).
func (c *Client) adopt(conn *cliConn, helloResp *rpc.Response) {
	c.mu.Lock()
	if c.closed {
		// Close ran while this redial was in flight; it cannot have seen
		// this connection, so installing it would leak a readLoop blocked
		// past Close's wg.Wait.
		c.mu.Unlock()
		conn.c.Close()
		return
	}
	c.sess = helloResp.TID
	c.epoch = helloResp.Val
	c.ttl = time.Duration(helloResp.Aux) * time.Microsecond
	c.conn = conn
	resend := c.pendingFramesLocked()
	c.mu.Unlock()
	c.wg.Add(1)
	//asset:goroutine joined-by=waitgroup
	go c.readLoop(conn)
	conn.resend(resend) //nolint:errcheck
}

// resumeExpired handles a dead session: a new session is opened, and
// in-doubt work is resolved — committed-or-not is learned from the
// server when its epoch proves continuity, declared unknown when not.
func (c *Client) resumeExpired(ctx context.Context) error {
	c.mu.Lock()
	oldEpoch := c.epoch
	c.sess = 0
	pend := c.drainPendingLocked()
	c.mu.Unlock()

	nc, err := c.opts.Dial(ctx)
	if err != nil {
		c.failAfterExpiry(pend, oldEpoch, 0)
		return fmt.Errorf("client: dial after lease expiry: %w: %w", core.ErrConnLost, err)
	}
	conn := newCliConn(nc)
	resp, err := c.hello(conn, 0)
	if err != nil {
		nc.Close()
		c.failAfterExpiry(pend, oldEpoch, 0)
		return err
	}
	c.adopt(conn, resp)
	c.failAfterExpiry(pend, oldEpoch, resp.Val)

	// In-doubt commits: with epoch continuity the server may still
	// remember their verdicts, so ask.
	if resp.Val == oldEpoch {
		c.resolveInDoubt(ctx, pend)
	}
	return nil
}

// failAfterExpiry resolves calls stranded by a lease expiry. Commits are
// handled by resolveInDoubt when the epoch held; everything else — and
// every commit whose verdict is unlearnable — fails here.
func (c *Client) failAfterExpiry(pend []stranded, oldEpoch, newEpoch uint64) {
	for _, st := range pend {
		if st.op == rpc.OpCommit && newEpoch != 0 && newEpoch == oldEpoch {
			continue // resolveInDoubt owns it
		}
		if st.op == rpc.OpCommit {
			c.fail(st, fmt.Errorf("client: commit verdict lost with session (server epoch changed): %w",
				core.ErrUnknownOutcome))
			continue
		}
		c.fail(st, fmt.Errorf("client: request outlived its session: %w", core.ErrLeaseExpired))
	}
}

// resolveInDoubt learns the verdict of each in-doubt commit via a status
// query on the new session. Committed resolves to success — the decision
// was made and must not be re-executed. Aborted, or short of the commit
// point, resolves to ErrLeaseExpired: the transaction died with the
// session (the expiry aborts what has not reached its commit point), and
// a retry is a fresh transaction. Everything else resolves to
// ErrUnknownOutcome: a commit under way or prepared may still commit, and
// a tid the server has forgotten (its outcome ring keeps a bounded number
// of outcomes) may have committed, so neither may run again.
func (c *Client) resolveInDoubt(ctx context.Context, pend []stranded) {
	for _, st := range pend {
		if st.op != rpc.OpCommit {
			continue
		}
		resp, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpStatus, TID: st.tid})
		status := xid.Status(resp.Status)
		switch {
		case err != nil:
			c.fail(st, fmt.Errorf("client: commit verdict unresolved: %w: %w", core.ErrUnknownOutcome, err))
		case resp.Val == 0:
			c.fail(st, fmt.Errorf("client: commit verdict of %v forgotten by the server: %w",
				xid.TID(st.tid), core.ErrUnknownOutcome))
		case status == xid.StatusCommitted:
			c.complete(st.cl, st.id, &rpc.Response{ReqID: st.id, Status: byte(status)})
		case status == xid.StatusCommitting || status == xid.StatusPrepared:
			c.fail(st, fmt.Errorf("client: transaction %v still %v after its session died: %w",
				xid.TID(st.tid), status, core.ErrUnknownOutcome))
		default:
			c.fail(st, fmt.Errorf("client: transaction %v died with its session (status %v): %w",
				xid.TID(st.tid), status, core.ErrLeaseExpired))
		}
	}
}

// pendingFramesLocked encodes every pending request, in ID order, one
// frame per pooled buffer. The encoding happens under Client.mu because a
// call's request is only stable there; the caller sends the frames
// outside it (resend) and thereby releases them.
func (c *Client) pendingFramesLocked() []*rpc.Buffer {
	var out []*rpc.Buffer
	floor := c.pending.Floor()
	for id := floor + 1; id <= floor+uint64(c.pending.Len()); id++ {
		if cl := *c.pending.Slot(id); cl != nil {
			out = append(out, requestFrame(&cl.req))
		}
	}
	return out
}

// resend writes frames, one Write call each, stopping at the first
// failure, and releases them all.
func (c *cliConn) resend(frames []*rpc.Buffer) error {
	var err error
	for _, buf := range frames {
		if err == nil {
			err = c.write(buf.B)
		}
		buf.Release()
	}
	return err
}

// readLoop drains responses from one connection and routes them to
// pending calls; it exits when the connection dies.
func (c *Client) readLoop(conn *cliConn) {
	defer c.wg.Done()
	var resp rpc.Response // decode scratch, reused for every frame
	for {
		buf, err := conn.fr.Next()
		if err != nil {
			c.dropConn(conn)
			return
		}
		if err := rpc.DecodeResponseInto(&resp, buf.B); err != nil {
			buf.Release()
			c.dropConn(conn)
			return
		}
		c.deliver(&resp)
		buf.Release()
	}
}

// deliver routes a response off the wire to its pending call. Responses
// for unknown request IDs (abandoned, duplicated, or already answered)
// are dropped.
func (c *Client) deliver(resp *rpc.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot := c.pending.Slot(resp.ReqID); slot != nil && *slot != nil {
		c.completeLocked(*slot, resp.ReqID, resp)
	}
}

// sessionExpired handles a lease-expired verdict observed on a live
// connection: the server-side session is dead, so pending calls must not
// be left for the retransmit loop — it would replay them onto a fresh
// token-0 session where their TIDs are unknown (turning retryable lease
// expiries into terminal ErrUnknownTxn) and re-execute commits whose
// verdicts may already be decided. Instead the session is forgotten and
// the pending table drained exactly as resumeExpired drains it:
// non-commit calls fail with ErrLeaseExpired, and in-doubt commits are
// resolved on a fresh session when epoch continuity proves the server is
// the one that decided them — learned where it still remembers the
// verdict, ErrUnknownOutcome where it has forgotten it.
func (c *Client) sessionExpired() {
	c.mu.Lock()
	oldEpoch := c.epoch
	c.sess = 0
	conn := c.conn
	c.conn = nil
	pend := c.drainPendingLocked()
	c.mu.Unlock()
	if conn != nil {
		conn.c.Close()
	}
	if len(pend) == 0 {
		return
	}
	// Detached context: the drained calls belong to other goroutines, so
	// their resolution must not ride the observing caller's deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 2*c.handshakeTimeout())
	defer cancel()
	var newEpoch uint64
	if _, err := c.ensureConn(ctx); err == nil {
		c.mu.Lock()
		newEpoch = c.epoch
		c.mu.Unlock()
	}
	c.failAfterExpiry(pend, oldEpoch, newEpoch)
	if newEpoch != 0 && newEpoch == oldEpoch {
		c.resolveInDoubt(ctx, pend)
	}
}

// dropConn retires a dead connection; the next operation (or the
// retransmit tick) redials.
func (c *Client) dropConn(conn *cliConn) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
	conn.c.Close()
}

// roundTrip sends one request and waits for its response. Delivery is
// at-least-once (the retransmit loop re-sends through redials); the
// server's dedup table makes execution at-most-once per request ID.
func (c *Client) roundTrip(ctx context.Context, req rpc.Request) (rpc.Response, error) {
	return c.roundTripOn(ctx, callPool.Get().(*call), req)
}

// roundTripOn is roundTrip on a call the caller took from callPool, whose
// data buffer req.Data may point into.
func (c *Client) roundTripOn(ctx context.Context, cl *call, req rpc.Request) (rpc.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	conn, err := c.ensureConn(ctx)
	if err != nil {
		recycle(cl)
		return rpc.Response{}, err
	}
	cl.req = req
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		recycle(cl)
		return rpc.Response{}, fmt.Errorf("client: closed: %w", core.ErrClosed)
	}
	// The call enters the pending window before the ack watermark is
	// read: the request must count itself as outstanding, or it would ack
	// its own ID and license the server to drop the very verdict it is
	// awaiting.
	id := c.pending.Push(cl)
	cl.id, cl.req.ReqID, cl.req.Ack = id, id, c.pending.Floor()
	c.mu.Unlock()
	if err := conn.send(&cl.req); err != nil {
		// The request stays pending; redial + retransmit will carry it.
		c.dropConn(conn)
	}
	select {
	case <-cl.done:
		resp := cl.resp
		recycle(cl)
		if rerr := resp.Err(); rerr != nil {
			if sessionDead(rerr) {
				// The session is dead on the server; forget it and drain
				// everything still pending on it. (This call's own verdict is
				// safe: the server answers retransmits from its completed
				// table even on dead sessions, so a lease error on a commit
				// means the commit never executed.)
				c.sessionExpired()
			}
			return resp, rerr
		}
		return resp, nil
	case <-ctx.Done():
		c.abandon(cl, id)
		return rpc.Response{}, fmt.Errorf("client: %v abandoned: %w", req.Op, ctx.Err())
	case <-c.closeCh:
		c.abandon(cl, id)
		return rpc.Response{}, fmt.Errorf("client: closed: %w", core.ErrClosed)
	}
}

// sessionDead reports whether a response error says this client's own
// session is dead: the server answers a request on a dead session with
// ErrLeaseExpired alone. An error that also carries ErrAborted is a
// transaction's abort reason — a Wait on a transaction whose session's
// lease expired answers with one — and says nothing of this session, which
// the next request or heartbeat on it learns about if it did die.
func sessionDead(err error) bool {
	return errors.Is(err, core.ErrLeaseExpired) && !errors.Is(err, core.ErrAborted)
}

// abandon ends the wait of a call whose waiter gave up, recycles it, and
// tells the server to cancel the work (best effort, fire-and-forget).
func (c *Client) abandon(cl *call, id uint64) {
	c.mu.Lock()
	delivered := cl.id != id
	if !delivered {
		c.retireLocked(cl, id)
	}
	conn := c.conn
	c.mu.Unlock()
	if delivered {
		// A verdict raced the give-up and is already in the channel; take
		// it out so the call's next life starts with an empty one.
		<-cl.done
	}
	recycle(cl)
	if conn != nil {
		conn.send(&rpc.Request{Op: rpc.OpCancel, Other: id}) //nolint:errcheck
	}
}

// retransmitLoop re-sends unanswered requests and keeps redialing while
// disconnected — the engine that turns lost frames into mere latency.
func (c *Client) retransmitLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.RetransmitEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		conn := c.conn
		var resend []*rpc.Buffer
		if conn != nil {
			resend = c.pendingFramesLocked()
		}
		idle := c.pending.Len() == 0
		c.mu.Unlock()
		if conn == nil {
			if idle {
				continue
			}
			// Bounded single redial attempt per tick; failures roll over.
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.RetransmitEvery*4)
			c.ensureConn(ctx) //nolint:errcheck
			cancel()
			continue
		}
		if conn.resend(resend) != nil {
			c.dropConn(conn)
		}
	}
}

// heartbeatLoop renews the session lease and doubles as the liveness
// probe: an unanswered heartbeat means the connection is dead even if
// the transport looks healthy (one-way partition), so it is retired.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		ttl := c.ttl
		c.mu.Unlock()
		every := c.opts.HeartbeatEvery
		if every <= 0 {
			every = ttl / 3
			if every <= 0 {
				every = 500 * time.Millisecond
			}
		}
		probe := c.opts.ProbeTimeout
		if probe <= 0 {
			probe = every
		}
		select {
		case <-c.closeCh:
			return
		case <-time.After(every):
		}
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		if conn == nil {
			continue // retransmit loop owns redialing
		}
		ctx, cancel := context.WithTimeout(context.Background(), probe)
		_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpHeartbeat})
		cancel()
		if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrConnLost)) {
			c.dropConn(conn)
		}
	}
}
