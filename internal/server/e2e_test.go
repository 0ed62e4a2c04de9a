// End-to-end tests for the networked stack: a real client (package
// repro/client) speaking the wire protocol through a faultnet fabric to a
// server fronting a core.Manager. The fault-free paths live here; the
// network chaos matrix and the mixed network+disk torture live in
// chaos_test.go.
package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/xid"
)

// fixture is one server stack: manager, server, and the faultnet fabric
// clients dial through.
type fixture struct {
	t      *testing.T
	m      *core.Manager
	srv    *server.Server
	fabric *faultnet.Network
}

func newFixture(t *testing.T, cfg core.Config, scfg server.Config) *fixture {
	t.Helper()
	if scfg.LeaseTTL == 0 {
		scfg.LeaseTTL = 250 * time.Millisecond
	}
	m, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fabric := faultnet.New()
	lis, err := fabric.Listen("assetd")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := server.Serve(m, lis, scfg)
	f := &fixture{t: t, m: m, srv: srv, fabric: fabric}
	t.Cleanup(func() {
		srv.Close()
		fabric.Close()
		m.Close() //nolint:errcheck
	})
	return f
}

// dial connects a client through the fabric with test-compressed timers.
func (f *fixture) dial(opts client.Options) *client.Client {
	f.t.Helper()
	if opts.Dial == nil {
		opts.Dial = func(ctx context.Context) (net.Conn, error) {
			return f.fabric.DialContext(ctx, "assetd")
		}
	}
	if opts.RetransmitEvery == 0 {
		opts.RetransmitEvery = 5 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cli, err := client.Dial(ctx, opts)
	if err != nil {
		f.t.Fatalf("Dial: %v", err)
	}
	f.t.Cleanup(func() { cli.Close() }) //nolint:errcheck
	return cli
}

// quiesce waits for every transaction to reach a terminal state and then
// asserts the lock table's invariants hold — the "no stranded locks"
// check every networked test ends with.
func (f *fixture) quiesce() {
	f.t.Helper()
	quiesceManager(f.t, f.m)
}

func quiesceManager(t *testing.T, m *core.Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := 0
		for _, info := range m.Transactions() {
			switch info.Status {
			case xid.StatusCommitted, xid.StatusAborted:
			default:
				live++
			}
		}
		if live == 0 {
			if bad := m.LockManager().CheckInvariants(); len(bad) == 0 {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("lock invariants violated: %v", bad)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("%d transactions still live: %+v", live, m.Transactions())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func counterBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// seedCounter creates an escrow counter through the wire and returns its
// oid; bounds [0, hi].
func seedCounter(ctx context.Context, t *testing.T, cli *client.Client, init, hi uint64) xid.OID {
	t.Helper()
	var oid xid.OID
	err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		id, err := tx.Create(ctx, counterBytes(init))
		if err != nil {
			return err
		}
		if err := tx.DeclareEscrow(ctx, id, 0, hi); err != nil {
			return err
		}
		oid = id
		return nil
	})
	if err != nil {
		t.Fatalf("seed counter: %v", err)
	}
	return oid
}

func TestEndToEndCommitAndRead(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	var oid xid.OID
	err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		id, err := tx.Create(ctx, []byte("hello"))
		if err != nil {
			return err
		}
		oid = id
		return tx.Write(ctx, id, []byte("world"))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Explicit primitives on a second transaction: the value committed.
	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	tx := cli.Tx(tid)
	if err := tx.Lock(ctx, oid, xid.OpRead); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	data, err := tx.Read(ctx, oid)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(data) != "world" {
		t.Fatalf("read %q, want %q", data, "world")
	}
	if err := cli.Commit(ctx, tid); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if st, err := cli.Status(ctx, tid); err != nil || st != xid.StatusCommitted {
		t.Fatalf("Status = %v, %v; want committed", st, err)
	}
	f.quiesce()
}

func TestEndToEndAbortRollsBack(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	var oid xid.OID
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		id, err := tx.Create(ctx, []byte("keep"))
		oid = id
		return err
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := cli.Tx(tid).Write(ctx, oid, []byte("clobber")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := cli.Abort(ctx, tid); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	var got []byte
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		data, err := tx.Read(ctx, oid)
		got = data
		return err
	}); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(got) != "keep" {
		t.Fatalf("after abort value = %q, want %q", got, "keep")
	}
	f.quiesce()
}

func TestEndToEndEscrowCounter(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()
	oid := seedCounter(ctx, t, cli, 10, 1000)

	const workers, each = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
					return tx.Add(ctx, oid, 1)
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}

	var got uint64
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		v, err := tx.ReadCounter(ctx, oid)
		got = v
		return err
	}); err != nil {
		t.Fatalf("read counter: %v", err)
	}
	if want := uint64(10 + workers*each); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	f.quiesce()
}

// TestEndToEndDelegatePermitDelete drives the three primitives no other
// wire test reaches: a committed delete, a write delegated away from a
// transaction that then aborts, and a permit that lets a second
// transaction read the first's uncommitted write.
func TestEndToEndDelegatePermitDelete(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	create := func(data string) xid.OID {
		t.Helper()
		var oid xid.OID
		if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
			id, err := tx.Create(ctx, []byte(data))
			oid = id
			return err
		}); err != nil {
			t.Fatalf("create %q: %v", data, err)
		}
		return oid
	}
	begin := func() xid.TID {
		t.Helper()
		tid, err := cli.Initiate(ctx)
		if err != nil {
			t.Fatalf("Initiate: %v", err)
		}
		if err := cli.Begin(ctx, tid); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		return tid
	}
	read := func(oid xid.OID) (string, error) {
		var got []byte
		err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
			data, err := tx.Read(ctx, oid)
			got = data
			return err
		})
		return string(got), err
	}

	// A committed delete: a later read finds no object.
	gone := create("doomed")
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		return tx.Delete(ctx, gone)
	}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := read(gone); !errors.Is(err, core.ErrNoObject) {
		t.Fatalf("read after delete = %v, want ErrNoObject", err)
	}

	// A delegated write survives its writer's abort: t2 answers for it.
	kept := create("before")
	t1, t2 := begin(), begin()
	if err := cli.Tx(t1).Write(ctx, kept, []byte("delegated")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := cli.Delegate(ctx, t1, t2, kept); err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	if err := cli.Abort(ctx, t1); err != nil {
		t.Fatalf("Abort(t1): %v", err)
	}
	if err := cli.Commit(ctx, t2); err != nil {
		t.Fatalf("Commit(t2): %v", err)
	}
	if got, err := read(kept); err != nil || got != "delegated" {
		t.Fatalf("after delegation = %q, %v; want %q", got, err, "delegated")
	}

	// A read permit: t2 reads t1's uncommitted write without waiting for
	// t1 to terminate.
	shared := create("committed")
	t1, t2 = begin(), begin()
	if err := cli.Tx(t1).Write(ctx, shared, []byte("dirty")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := cli.Permit(ctx, t1, t2, shared, xid.OpRead); err != nil {
		t.Fatalf("Permit: %v", err)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	got, err := cli.Tx(t2).Read(rctx, shared)
	cancel()
	if err != nil || string(got) != "dirty" {
		t.Fatalf("permitted read = %q, %v; want %q", got, err, "dirty")
	}
	if err := cli.Abort(ctx, t2); err != nil {
		t.Fatalf("Abort(t2): %v", err)
	}
	if err := cli.Abort(ctx, t1); err != nil {
		t.Fatalf("Abort(t1): %v", err)
	}
	f.quiesce()
}

// TestWireErrorIdentity pins that core sentinel errors survive the wire:
// errors.Is works on client-side errors exactly as it does locally.
func TestWireErrorIdentity(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	// Unknown transaction.
	if err := cli.Begin(ctx, xid.TID(0xdead)); !errors.Is(err, core.ErrUnknownTxn) {
		t.Fatalf("Begin(unknown) = %v, want ErrUnknownTxn", err)
	}
	// Missing object inside a transaction body.
	err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		_, err := tx.Read(ctx, xid.OID(0xbeef))
		if !errors.Is(err, core.ErrNoObject) {
			t.Errorf("Read(missing) = %v, want ErrNoObject", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Abort after commit.
	tid, _ := cli.Initiate(ctx)
	cli.Begin(ctx, tid)  //nolint:errcheck
	cli.Commit(ctx, tid) //nolint:errcheck
	if err := cli.Abort(ctx, tid); !errors.Is(err, core.ErrAlreadyCommitted) {
		t.Fatalf("Abort(committed) = %v, want ErrAlreadyCommitted", err)
	}
	f.quiesce()
}

// TestWaitAcrossSessions: wait is a cross-session primitive — one client
// blocks on another client's transaction and observes its termination.
func TestWaitAcrossSessions(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	owner := f.dial(client.Options{})
	waiter := f.dial(client.Options{})
	ctx := context.Background()

	tid, err := owner.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := owner.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- waiter.Wait(ctx, tid) }()
	select {
	case err := <-done:
		t.Fatalf("Wait returned %v before termination", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := owner.Commit(ctx, tid); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never observed the commit")
	}
	f.quiesce()
}

// TestWaitOnExpiredTxnKeepsOwnSession: a wait on a transaction that another
// session's lease expiry aborted answers with the abort reason, which
// carries ErrLeaseExpired. That names the other session's death, not the
// waiter's: the waiter's session must stay live, so 300 ms later the server
// counts one live session and the one expired.
func TestWaitOnExpiredTxnKeepsOwnSession(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: 40 * time.Millisecond})
	mute := f.dial(client.Options{HeartbeatEvery: time.Hour})
	waiter := f.dial(client.Options{})
	ctx := context.Background()

	tid, err := mute.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := mute.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err = waiter.Wait(wctx, tid)
	if !errors.Is(err, core.ErrAborted) || !errors.Is(err, core.ErrLeaseExpired) {
		t.Fatalf("Wait on the expired session's transaction = %v, want its abort for lease expiry", err)
	}
	time.Sleep(300 * time.Millisecond)
	if live, expired := f.srv.SessionCounts(); live != 1 || expired != 1 {
		t.Fatalf("sessions live %d, expired %d; want 1 and 1 (only the mute client's lease lapsed)", live, expired)
	}
	if err := waiter.Run(wctx, core.RunOptions{}, func(context.Context, *client.Tx) error { return nil }); err != nil {
		t.Fatalf("Run on the waiter's session: %v", err)
	}
	if live, expired := f.srv.SessionCounts(); live != 1 || expired != 1 {
		t.Fatalf("after a Run, sessions live %d, expired %d; want 1 and 1", live, expired)
	}
	f.quiesce()
}

// TestManagerCloseFailsRemoteWaiters is the Manager.Close satellite: a
// client blocked in a remote wait must promptly observe ErrClosed when
// the manager shuts down — never hang.
func TestManagerCloseFailsRemoteWaiters(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	owner := f.dial(client.Options{})
	waiter := f.dial(client.Options{})
	ctx := context.Background()

	tid, err := owner.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := owner.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- waiter.Wait(ctx, tid) }()
	time.Sleep(30 * time.Millisecond) // let the wait park server-side

	if err := f.m.Close(); err != nil {
		t.Fatalf("Manager.Close: %v", err)
	}
	select {
	case err := <-done:
		// The manager aborts live transactions at close, so the waiter sees
		// the abort with the close as its cause.
		if !errors.Is(err, core.ErrClosed) && !errors.Is(err, core.ErrAborted) {
			t.Fatalf("Wait after Close = %v, want ErrClosed/ErrAborted cause", err)
		}
		if err == nil {
			t.Fatal("Wait after Close reported success for an aborted transaction")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung across Manager.Close")
	}
}

// TestOverloadHintFloorsBackoff is the admission-control satellite: an
// ErrOverload response carries the server's retry-after hint, errors.Is
// classifies it retryable across the wire, and client.Run's backoff
// honors the floor.
func TestOverloadHintFloorsBackoff(t *testing.T) {
	const hint = 60 * time.Millisecond
	f := newFixture(t, core.Config{MaxLive: 1}, server.Config{LeaseTTL: 4 * hint})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	// Occupy the single admission slot with an idle interactive txn.
	holder, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, holder); err != nil {
		t.Fatalf("Begin: %v", err)
	}

	// A second begin sheds with ErrOverload; the wire error is retryable
	// and carries the hint.
	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	err = cli.Begin(ctx, tid)
	if !errors.Is(err, core.ErrOverload) {
		t.Fatalf("Begin over capacity = %v, want ErrOverload", err)
	}
	if !core.Retryable(err) {
		t.Fatalf("overload error not retryable across the wire: %v", err)
	}
	if got := rpc.RetryAfterHint(err); got != hint {
		t.Fatalf("RetryAfterHint = %v, want %v", got, hint)
	}
	if err := cli.Abort(ctx, tid); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	// Run retries through the hint: release the slot shortly after the
	// first shed, and the retry — floored at the hint — must succeed no
	// sooner than the hint.
	start := time.Now()
	time.AfterFunc(10*time.Millisecond, func() { cli.Abort(ctx, holder) }) //nolint:errcheck
	err = cli.Run(ctx, core.RunOptions{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		func(ctx context.Context, tx *client.Tx) error { return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("Run succeeded after %v, before the %v retry-after floor", elapsed, hint)
	}
	f.quiesce()
}

// TestSessionSurvivesDisconnect: a hard connection reset mid-workload is
// absorbed by redial + session resume; the same session keeps its
// transactions and the workload completes.
func TestSessionSurvivesDisconnect(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	var oid xid.OID
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		id, err := tx.Create(ctx, []byte("v0"))
		oid = id
		return err
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	sess := cli.Session()
	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := cli.Tx(tid).Write(ctx, oid, []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Kill the connection under the session's feet.
	f.fabric.SetScript(faultnet.NewScript(faultnet.Rule{Kind: faultnet.Disconnect, Nth: f.fabric.Messages() + 1}))

	// The next operations ride the redial: same session, same live txn.
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := cli.Tx(tid).Write(wctx, oid, []byte("v2")); err != nil {
		t.Fatalf("Write across disconnect: %v", err)
	}
	if err := cli.Commit(wctx, tid); err != nil {
		t.Fatalf("Commit across disconnect: %v", err)
	}
	if got := cli.Session(); got != sess {
		t.Fatalf("session changed across disconnect: %#x -> %#x", sess, got)
	}

	var got []byte
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		data, err := tx.Read(ctx, oid)
		got = data
		return err
	}); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(got) != "v2" {
		t.Fatalf("value = %q, want %q", got, "v2")
	}
	f.quiesce()
}

// TestLeaseExpiryAbortsAndRecovers: a client that stops heartbeating
// loses its lease; its live transactions are aborted cleanly (locks
// released, another session can take them), its next operation learns
// ErrLeaseExpired (classified retryable), and Run recovers on a fresh
// session.
func TestLeaseExpiryAbortsAndRecovers(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: 40 * time.Millisecond})
	// HeartbeatEvery far beyond the TTL: the lease always lapses.
	mute := f.dial(client.Options{HeartbeatEvery: time.Hour})
	healthy := f.dial(client.Options{})
	ctx := context.Background()

	var oid xid.OID
	if err := healthy.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		id, err := tx.Create(ctx, []byte("contested"))
		oid = id
		return err
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	// The mute client grabs a write lock, then goes quiet past its TTL.
	tid, err := mute.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := mute.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := mute.Tx(tid).Lock(ctx, oid, xid.OpWrite); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	time.Sleep(120 * time.Millisecond)

	// Expiry released the lock: the healthy session can take it promptly.
	lctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := healthy.Run(lctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		return tx.Write(ctx, oid, []byte("taken"))
	}); err != nil {
		t.Fatalf("lock after expiry: %v", err)
	}
	if st := f.m.StatusOf(tid); st != xid.StatusAborted {
		t.Fatalf("expired txn status = %v, want aborted", st)
	}

	// The mute client's next operation on the dead session learns the
	// lease error — retryable — and Run recovers on a fresh session.
	_, err = mute.Initiate(ctx)
	if !errors.Is(err, core.ErrLeaseExpired) {
		t.Fatalf("Initiate on dead session = %v, want ErrLeaseExpired", err)
	}
	if !core.Retryable(err) {
		t.Fatalf("lease expiry not retryable: %v", err)
	}
	if err := mute.Run(lctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		_, err := tx.Read(ctx, oid)
		return err
	}); err != nil {
		t.Fatalf("Run after expiry: %v", err)
	}
	f.quiesce()
}

// TestCancelSweep is the context-cancellation satellite: for every RPC
// kind, cancelling the call mid-flight must leave the server transaction
// aborted or intact — never half-done, never holding orphaned locks.
// Each case parks the operation behind a conflicting lock held by a
// second session, cancels, then releases the conflict and checks the
// world.
func TestCancelSweep(t *testing.T) {
	ops := []struct {
		name string
		op   func(ctx context.Context, tx *client.Tx, oid xid.OID) error
	}{
		{"lock", func(ctx context.Context, tx *client.Tx, oid xid.OID) error {
			return tx.Lock(ctx, oid, xid.OpWrite)
		}},
		{"read", func(ctx context.Context, tx *client.Tx, oid xid.OID) error {
			_, err := tx.Read(ctx, oid)
			return err
		}},
		{"write", func(ctx context.Context, tx *client.Tx, oid xid.OID) error {
			return tx.Write(ctx, oid, []byte("cancelled"))
		}},
		{"delete", func(ctx context.Context, tx *client.Tx, oid xid.OID) error {
			return tx.Delete(ctx, oid)
		}},
		{"readcounter", func(ctx context.Context, tx *client.Tx, oid xid.OID) error {
			_, err := tx.ReadCounter(ctx, oid)
			return err
		}},
		{"add", func(ctx context.Context, tx *client.Tx, oid xid.OID) error {
			return tx.Add(ctx, oid, 1)
		}},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, core.Config{}, server.Config{})
			holder := f.dial(client.Options{})
			victim := f.dial(client.Options{})
			ctx := context.Background()

			var oid xid.OID
			if err := holder.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
				id, err := tx.Create(ctx, counterBytes(7))
				oid = id
				return err
			}); err != nil {
				t.Fatalf("seed: %v", err)
			}

			// The holder parks a write lock on the object.
			hTid, err := holder.Initiate(ctx)
			if err != nil {
				t.Fatalf("Initiate holder: %v", err)
			}
			if err := holder.Begin(ctx, hTid); err != nil {
				t.Fatalf("Begin holder: %v", err)
			}
			if err := holder.Tx(hTid).Lock(ctx, oid, xid.OpWrite); err != nil {
				t.Fatalf("holder Lock: %v", err)
			}

			// The victim's op blocks on the conflict; cancel it mid-wait.
			vTid, err := victim.Initiate(ctx)
			if err != nil {
				t.Fatalf("Initiate victim: %v", err)
			}
			if err := victim.Begin(ctx, vTid); err != nil {
				t.Fatalf("Begin victim: %v", err)
			}
			opCtx, cancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func() { done <- tc.op(opCtx, victim.Tx(vTid), oid) }()
			time.Sleep(30 * time.Millisecond) // let the wait park server-side
			cancel()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s returned nil after cancel", tc.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s hung after cancel", tc.name)
			}

			// Release the conflict. The victim transaction must be aborted
			// or intact: if still running it can be aborted cleanly, and
			// the holder's view of the object is unchanged either way.
			if err := holder.Commit(ctx, hTid); err != nil {
				t.Fatalf("holder Commit: %v", err)
			}
			victim.Abort(ctx, vTid) //nolint:errcheck
			st := f.m.StatusOf(vTid)
			if st != xid.StatusAborted {
				t.Fatalf("victim status = %v, want aborted", st)
			}
			var v uint64
			if err := holder.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
				got, err := tx.ReadCounter(ctx, oid)
				v = got
				return err
			}); err != nil {
				if tc.name == "delete" && errors.Is(err, core.ErrNoObject) {
					t.Fatalf("cancelled delete still removed the object")
				}
				t.Fatalf("read back: %v", err)
			}
			if v != 7 {
				t.Fatalf("object value = %d after cancelled %s, want 7", v, tc.name)
			}
			f.quiesce()
		})
	}
}

// TestCancelSweepCommit: cancelling a commit mid-protocol must resolve to
// a terminal verdict — committed or aborted, never in between — and a
// retried commit on the same transaction returns that verdict.
func TestCancelSweepCommit(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	// tj's commit blocks on a commit dependency on running ti.
	ti, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate ti: %v", err)
	}
	if err := cli.Begin(ctx, ti); err != nil {
		t.Fatalf("Begin ti: %v", err)
	}
	tj, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate tj: %v", err)
	}
	if err := cli.Begin(ctx, tj); err != nil {
		t.Fatalf("Begin tj: %v", err)
	}
	if err := cli.FormDependency(ctx, xid.DepCD, ti, tj); err != nil {
		t.Fatalf("FormDependency: %v", err)
	}

	opCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- cli.Commit(opCtx, tj) }()
	time.Sleep(30 * time.Millisecond) // commit parks on the CD gate
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Commit hung after cancel")
	}

	// The transaction settles terminal; a fresh commit call on the same
	// tid reports the recorded verdict, not a second protocol run.
	deadline := time.Now().Add(5 * time.Second)
	var st xid.Status
	for {
		st = f.m.StatusOf(tj)
		if st == xid.StatusCommitted || st == xid.StatusAborted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tj never settled; status %v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	err = cli.Commit(ctx, tj)
	switch st {
	case xid.StatusCommitted:
		if err != nil {
			t.Fatalf("recommit of committed tj = %v, want nil", err)
		}
	case xid.StatusAborted:
		if err == nil {
			t.Fatal("recommit of aborted tj = nil, want abort error")
		}
	}
	if err := cli.Commit(ctx, ti); err != nil {
		t.Fatalf("Commit ti: %v", err)
	}
	f.quiesce()
}

// TestCancelSweepBegin: cancelling a begin parked in the admission queue
// leaves the transaction terminal (aborted), not stuck in the gate.
func TestCancelSweepBegin(t *testing.T) {
	f := newFixture(t, core.Config{MaxLive: 1, AdmitTimeout: time.Hour}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	holder, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, holder); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	opCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- cli.Begin(opCtx, tid) }()
	time.Sleep(30 * time.Millisecond) // park in the admission queue
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Begin returned nil after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Begin hung after cancel")
	}
	if err := cli.Abort(ctx, holder); err != nil {
		t.Fatalf("Abort holder: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := f.m.StatusOf(tid); st == xid.StatusAborted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled begin left status %v, want aborted", f.m.StatusOf(tid))
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.quiesce()
}

// TestCommitVerdictSurvivesLeaseExpiry is the exactly-once crown jewel:
// the commit executes, its response is eaten by the network, the session
// lease expires before the retransmit lands — and the retransmitted
// commit still fetches the recorded verdict instead of a lease error
// that would invite a double-apply.
func TestCommitVerdictSurvivesLeaseExpiry(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: 40 * time.Millisecond})
	cli := f.dial(client.Options{
		HeartbeatEvery:  time.Hour, // lease will lapse during the blackout
		RetransmitEvery: 15 * time.Millisecond,
	})
	ctx := context.Background()
	oid := seedCounter(ctx, t, cli, 0, 1000)

	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := cli.Tx(tid).Add(ctx, oid, 5); err != nil {
		t.Fatalf("Add: %v", err)
	}

	// Black out every server→client message: the commit request gets
	// through and executes, but its response — and every retransmitted
	// response — vanishes until the lease is long dead.
	f.fabric.SetScript(faultnet.NewScript(faultnet.Rule{Dir: faultnet.ServerToClient, Kind: faultnet.Drop}))
	done := make(chan error, 1)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	go func() { done <- cli.Commit(cctx, tid) }()
	time.Sleep(150 * time.Millisecond) // > 3× TTL: expiry certain
	f.fabric.SetScript(nil)            // heal; the next retransmit gets answered

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit across blackout = %v, want recorded verdict (nil)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit never resolved after heal")
	}
	if st := f.m.StatusOf(tid); st != xid.StatusCommitted {
		t.Fatalf("status = %v, want committed", st)
	}

	// Exactly once: the counter moved by 5, not 10.
	var v uint64
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		got, err := tx.ReadCounter(ctx, oid)
		v = got
		return err
	}); err != nil {
		t.Fatalf("read counter: %v", err)
	}
	if v != 5 {
		t.Fatalf("counter = %d, want 5 (exactly-once commit)", v)
	}
	f.quiesce()
}

// TestInDoubtCommitResolvedOnlyWhileRemembered: a commit executes, its
// response is lost with the connection, and the session's lease expires
// before the client can redial, so the client asks a fresh session for the
// verdict. While the server's outcome ring remembers the tid, the commit
// resolves as committed; once more transactions than the ring keeps (4096)
// have terminated after it, it resolves as ErrUnknownOutcome — never as an
// abort, which Run would retry. Either way the body runs exactly once.
func TestInDoubtCommitResolvedOnlyWhileRemembered(t *testing.T) {
	for _, tc := range []struct {
		name   string
		others int
	}{{"remembered", 0}, {"forgotten", 4096 + 16}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, core.Config{}, server.Config{LeaseTTL: 40 * time.Millisecond})
			var unreachable atomic.Bool
			cli := f.dial(client.Options{
				Dial: func(ctx context.Context) (net.Conn, error) {
					if unreachable.Load() {
						return nil, errors.New("server unreachable")
					}
					return f.fabric.DialContext(ctx, "assetd")
				},
				HeartbeatEvery:  time.Hour, // the lease lapses while the client is cut off
				RetransmitEvery: 15 * time.Millisecond,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			oid := seedCounter(ctx, t, cli, 0, 1000)

			var runs atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
					if err := tx.Add(ctx, oid, 5); err != nil {
						return err
					}
					if runs.Add(1) == 1 {
						// The commit that follows executes, but its response
						// resets the connection, and no redial gets through.
						unreachable.Store(true)
						f.fabric.SetScript(faultnet.NewScript(faultnet.Rule{Dir: faultnet.ServerToClient, Kind: faultnet.Disconnect}))
					}
					return nil
				})
			}()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if _, expired := f.srv.SessionCounts(); expired > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("session never expired")
				}
			}
			for i := 0; i < tc.others; i++ {
				if err := f.m.Run(ctx, core.RunOptions{}, func(*core.Tx) error { return nil }); err != nil {
					t.Fatalf("Run: %v", err)
				}
			}
			f.fabric.SetScript(nil)
			unreachable.Store(false)

			err := <-done
			if tc.others == 0 && err != nil {
				t.Fatalf("Run across the expiry = %v, want the recorded commit", err)
			}
			if tc.others > 0 && !errors.Is(err, core.ErrUnknownOutcome) {
				t.Fatalf("Run across the expiry = %v, want ErrUnknownOutcome", err)
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("body ran %d times, want 1 (its commit had executed)", n)
			}
			var v uint64
			if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
				got, err := tx.ReadCounter(ctx, oid)
				v = got
				return err
			}); err != nil {
				t.Fatalf("read counter: %v", err)
			}
			if v != 5 {
				t.Fatalf("counter = %d, want 5", v)
			}
			f.quiesce()
		})
	}
}

// TestServerCloseFailsSessions: closing the server fails in-flight
// session RPCs with ErrClosed rather than hanging them.
func TestServerCloseFailsSessions(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()

	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cli.Wait(ctx, tid) }()
	time.Sleep(30 * time.Millisecond)

	f.srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait returned nil across server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung across server close")
	}
	if st := f.m.StatusOf(tid); st != xid.StatusAborted {
		t.Fatalf("status after server close = %v, want aborted", st)
	}
}

// TestByeReleasesSessionPromptly: Close sends a fire-and-forget Bye with
// no request ID, which the dispatch dedup gate would silently drop if it
// ever reached it — so it must be handled before the gate. A dropped Bye
// leaves the closed client's session holding its transactions and locks
// until the lease TTL; here the TTL is far beyond the test's patience,
// so only an honored Bye can explain a prompt release.
func TestByeReleasesSessionPromptly(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: 30 * time.Second})
	leaver := f.dial(client.Options{})
	stayer := f.dial(client.Options{})
	ctx := context.Background()

	var oid xid.OID
	if err := stayer.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		id, err := tx.Create(ctx, []byte("contested"))
		oid = id
		return err
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	tid, err := leaver.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := leaver.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := leaver.Tx(tid).Lock(ctx, oid, xid.OpWrite); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if err := leaver.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The lock must come free well inside the 30s lease.
	lctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := stayer.Run(lctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		return tx.Write(ctx, oid, []byte("taken"))
	}); err != nil {
		t.Fatalf("lock after Bye: %v", err)
	}
	if st := f.m.StatusOf(tid); st != xid.StatusAborted {
		t.Fatalf("closed client's txn status = %v, want aborted", st)
	}
	// And the session left the table entirely — not lingering on its lease.
	deadline := time.Now().Add(2 * time.Second)
	for {
		live, expired := f.srv.SessionCounts()
		if live == 1 && expired == 0 { // the stayer only
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions after Bye: live=%d expired=%d, want 1/0", live, expired)
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.quiesce()
}

// TestLeaseExpiryDrainsPendingCalls: when one call observes the
// session's lease expiry, calls still pending must not be left for the
// retransmit loop to replay onto the fresh token-0 session — there their
// TIDs are unknown and a retryable lease expiry would curdle into a
// terminal ErrUnknownTxn. Two ops park behind a conflicting lock so both
// are in flight when the lease lapses; whichever response lands first,
// neither may surface ErrUnknownTxn.
func TestLeaseExpiryDrainsPendingCalls(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: 40 * time.Millisecond})
	mute := f.dial(client.Options{HeartbeatEvery: time.Hour})
	healthy := f.dial(client.Options{})
	ctx := context.Background()

	var oidA, oidB xid.OID
	if err := healthy.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		a, err := tx.Create(ctx, []byte("a"))
		if err != nil {
			return err
		}
		b, err := tx.Create(ctx, []byte("b"))
		oidA, oidB = a, b
		return err
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	// The healthy session holds both locks, parking the mute ops.
	hold, err := healthy.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate holder: %v", err)
	}
	if err := healthy.Begin(ctx, hold); err != nil {
		t.Fatalf("Begin holder: %v", err)
	}
	for _, oid := range []xid.OID{oidA, oidB} {
		if err := healthy.Tx(hold).Lock(ctx, oid, xid.OpWrite); err != nil {
			t.Fatalf("holder Lock: %v", err)
		}
	}

	tid, err := mute.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := mute.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	errs := make(chan error, 2)
	for _, oid := range []xid.OID{oidA, oidB} {
		oid := oid
		go func() {
			octx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			errs <- mute.Tx(tid).Lock(octx, oid, xid.OpWrite)
		}()
	}
	// Both ops are parked; the mute client never heartbeats, so the lease
	// lapses under them.
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("parked lock succeeded across lease expiry")
			}
			if errors.Is(err, core.ErrUnknownTxn) {
				t.Fatalf("parked lock = %v, want a lease/abort error, not ErrUnknownTxn", err)
			}
			if !errors.Is(err, core.ErrLeaseExpired) && !errors.Is(err, core.ErrAborted) {
				t.Fatalf("parked lock = %v, want ErrLeaseExpired or ErrAborted", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked lock never resolved after lease expiry")
		}
	}
	if err := healthy.Abort(ctx, hold); err != nil {
		t.Fatalf("Abort holder: %v", err)
	}
	f.quiesce()
}

// TestHandshakeIgnoresRacedResponse: on a resumed connection a dispatch
// goroutine finishing an old request can race its response ahead of the
// hello reply. The client must match the handshake by request ID —
// adopting the raced frame would install a garbage session token and
// epoch — and deliver the raced response to its waiter. A hand-rolled
// server forces the exact frame order.
func TestHandshakeIgnoresRacedResponse(t *testing.T) {
	const (
		tok   = uint64(0xA11CE)
		epoch = uint64(0xE90C4)
	)
	ttlUS := uint64(time.Minute / time.Microsecond)
	fabric := faultnet.New()
	defer fabric.Close()
	lis, err := fabric.Listen("fake")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			// Connection 1: answer the hello, swallow the next request, die.
			c1, err := lis.Accept()
			if err != nil {
				return fmt.Errorf("accept 1: %w", err)
			}
			hello1, err := readReq(c1)
			if err != nil {
				return fmt.Errorf("read hello 1: %w", err)
			}
			if err := writeResp(c1, &rpc.Response{ReqID: hello1.ReqID, TID: tok, Val: epoch, Aux: ttlUS}); err != nil {
				return fmt.Errorf("send hello 1: %w", err)
			}
			op, err := readReq(c1)
			if err != nil {
				return fmt.Errorf("read op: %w", err)
			}
			c1.Close()

			// Connection 2 (the redial): the old request's response beats
			// the hello reply onto the wire.
			c2, err := lis.Accept()
			if err != nil {
				return fmt.Errorf("accept 2: %w", err)
			}
			defer c2.Close()
			hello2, err := readReq(c2)
			if err != nil {
				return fmt.Errorf("read hello 2: %w", err)
			}
			stale := &rpc.Response{ReqID: op.ReqID, TID: 0xDEAD, Status: byte(xid.StatusCommitted)}
			if err := writeResp(c2, stale); err != nil {
				return fmt.Errorf("send raced response: %w", err)
			}
			if err := writeResp(c2, &rpc.Response{ReqID: hello2.ReqID, TID: tok, Val: epoch, Aux: ttlUS}); err != nil {
				return fmt.Errorf("send hello 2: %w", err)
			}
			// Drain whatever else arrives (retransmits, the Bye) until EOF.
			for {
				if _, err := rpc.ReadFrame(c2); err != nil {
					return nil
				}
			}
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cli, err := client.Dial(ctx, client.Options{
		Dial: func(ctx context.Context) (net.Conn, error) {
			return fabric.DialContext(ctx, "fake")
		},
		RetransmitEvery: 5 * time.Millisecond,
		HeartbeatEvery:  time.Hour,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close() //nolint:errcheck

	st, err := cli.Status(ctx, 1)
	if err != nil {
		t.Fatalf("Status across handshake race: %v", err)
	}
	if st != xid.StatusCommitted {
		t.Fatalf("raced response status = %v, want committed (the stale frame's verdict)", st)
	}
	if got := cli.Session(); got != tok {
		t.Fatalf("session token = %#x, want %#x (handshake adopted a raced frame)", got, tok)
	}
	if got := cli.Epoch(); got != epoch {
		t.Fatalf("epoch = %#x, want %#x", got, epoch)
	}
	cli.Close() //nolint:errcheck — unblocks the fake server's drain loop
	if err := <-srvErr; err != nil {
		t.Fatalf("fake server: %v", err)
	}
}

func readReq(c net.Conn) (*rpc.Request, error) {
	payload, err := rpc.ReadFrame(c)
	if err != nil {
		return nil, err
	}
	return rpc.DecodeRequest(payload)
}

func writeResp(c net.Conn, resp *rpc.Response) error {
	return rpc.WriteFrame(c, rpc.EncodeResponse(resp))
}

// TestCancelledLockWaitsPickNoVictim: client transactions that keep
// abandoning a lock wait on one object (a call under a short deadline,
// which the server hears as OpCancel and which leaves the transaction
// alive) and asking again wait only on the holder and on requests ahead
// of them, which cannot form a cycle. No transaction may be chosen as a
// deadlock victim.
func TestCancelledLockWaitsPickNoVictim(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{})
	cli := f.dial(client.Options{})
	ctx := context.Background()
	var oid xid.OID
	if err := cli.Run(ctx, core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		var err error
		oid, err = tx.Create(ctx, []byte{0})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var abandoned atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				tid, err := cli.Initiate(ctx)
				if err == nil {
					err = cli.Begin(ctx, tid)
				}
				for i := 0; err == nil; i++ {
					lctx, cancel := context.WithTimeout(ctx, time.Duration(200+200*(i%3))*time.Microsecond)
					err = cli.Tx(tid).Lock(lctx, oid, xid.OpWrite)
					cancel()
					if err == nil {
						time.Sleep(300 * time.Microsecond) // hold it while others abandon
						break
					}
					if errors.Is(err, context.DeadlineExceeded) {
						abandoned.Add(1)
						err = nil
					}
				}
				if err == nil {
					err = cli.Commit(ctx, tid)
				}
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d lock waits abandoned", abandoned.Load())
	if d := f.m.Stats().Deadlocks; d != 0 {
		t.Fatalf("%d deadlock victims where no cycle can form", d)
	}
}
