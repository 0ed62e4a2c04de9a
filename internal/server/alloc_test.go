package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/server"
	"repro/internal/xid"
)

// Round-trip allocation budgets, client and server sides together,
// pinned at what the wire path measures. PR 11's commit measured 22 (Lock)
// and 25 (Write) on this same test, PR 12's 3 and 4: the per-request
// goroutine closure and cancel context that the session's parked workers
// replaced. What is left is the engine's one for Write: the copy of the
// data that the object keeps (the before image is the object's old buffer
// and the log record is the manager's reused one).
const (
	lockRoundTripAllocBudget  = 0
	writeRoundTripAllocBudget = 1
)

// remoteTxnAllocBudget bounds an empty remote transaction — initiate,
// begin, commit: three round trips. It measured 28 with a goroutine and a
// context per request, a context.AfterFunc bridge per begin and a Done
// channel per commit; it measures 12: the interactive transaction's 6 (the
// itx, two channels, a cancel context and its cancel func, the body
// closure), core's 3 for a transaction (descriptor, table entry,
// termination channel) and 3 for its begin (the body's and the context
// watcher's goroutines, the Done channel the watcher parks on).
const remoteTxnAllocBudget = 14

// TestRoundTripAllocBudget drives a Lock and a Write round trip over
// loopback TCP against a running Serve and counts every heap object the
// process allocates per round trip. The object is already write-locked by
// the transaction and the written value has the stored value's length, so
// the engine's own work is at its floor and the count is the wire's:
// framing, codec, call table, dedup window, dispatch and the hop into the
// transaction body.
func TestRoundTripAllocBudget(t *testing.T) {
	cli := loopbackClient(t)
	ctx := context.Background()

	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	tx := cli.Tx(tid)
	val := make([]byte, 64)
	oid, err := tx.Create(ctx, val)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := tx.Lock(ctx, oid, xid.OpWrite); err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if err := tx.Write(ctx, oid, val); err != nil {
		t.Fatalf("Write: %v", err)
	}

	lock := testing.AllocsPerRun(2000, func() {
		if err := tx.Lock(ctx, oid, xid.OpWrite); err != nil {
			t.Fatalf("Lock: %v", err)
		}
	})
	write := testing.AllocsPerRun(2000, func() {
		if err := tx.Write(ctx, oid, val); err != nil {
			t.Fatalf("Write: %v", err)
		}
	})
	t.Logf("allocs per round trip: Lock %.1f, Write %.1f", lock, write)
	if lock > lockRoundTripAllocBudget {
		t.Errorf("Lock round trip allocates %.1f objects, budget %d", lock, lockRoundTripAllocBudget)
	}
	if write > writeRoundTripAllocBudget {
		t.Errorf("Write round trip allocates %.1f objects, budget %d", write, writeRoundTripAllocBudget)
	}
	if err := cli.Abort(ctx, tid); err != nil {
		t.Fatalf("Abort: %v", err)
	}
}

// TestRemoteTxnAllocBudget counts what a whole remote transaction with no
// operations in it allocates, client and server sides together: what the
// tier adds to a transaction, as the round-trip budget is what it adds to
// an operation.
func TestRemoteTxnAllocBudget(t *testing.T) {
	cli := loopbackClient(t)
	ctx := context.Background()
	txn := func() {
		tid, err := cli.Initiate(ctx)
		if err != nil {
			t.Fatalf("Initiate: %v", err)
		}
		if err := cli.Begin(ctx, tid); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := cli.Commit(ctx, tid); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	txn()
	got := testing.AllocsPerRun(2000, txn)
	t.Logf("allocs per empty remote transaction: %.1f", got)
	if got > remoteTxnAllocBudget {
		t.Errorf("empty remote transaction allocates %.1f objects, budget %d", got, remoteTxnAllocBudget)
	}
}

// loopbackClient serves a fresh in-memory manager on loopback TCP and
// dials it; both are torn down with the test. Skips under the race
// detector, where allocation counts are meaningless.
func loopbackClient(t *testing.T) *client.Client {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m, err := core.Open(core.Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	// A lease long enough that no heartbeat (client) or lease tick that
	// finds work (server) lands inside the measured loops.
	srv := server.Serve(m, lis, server.Config{LeaseTTL: time.Hour})
	t.Cleanup(func() {
		srv.Close()
		m.Close() //nolint:errcheck
	})
	cli, err := client.Dial(context.Background(), client.Options{
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", lis.Addr().String())
		},
		RetransmitEvery: time.Hour,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() }) //nolint:errcheck
	return cli
}
