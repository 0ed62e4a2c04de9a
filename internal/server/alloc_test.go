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
// pinned at what the pooled-frame wire path measures. PR 11's commit
// measured 22 (Lock) and 25 (Write) on this same test. What is left is
// the server's per-request goroutine closure and its cancel context (two
// objects), and for Write the engine's one: the copy of the data that the
// object keeps (the before image is the object's old buffer and the log
// record is the manager's reused one).
const (
	lockRoundTripAllocBudget  = 3
	writeRoundTripAllocBudget = 4
)

// TestRoundTripAllocBudget drives a Lock and a Write round trip over
// loopback TCP against a running Serve and counts every heap object the
// process allocates per round trip. The object is already write-locked by
// the transaction and the written value has the stored value's length, so
// the engine's own work is at its floor and the count is the wire's:
// framing, codec, call table, dedup window, dispatch and the hop into the
// transaction body.
func TestRoundTripAllocBudget(t *testing.T) {
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
	defer func() {
		srv.Close()
		m.Close() //nolint:errcheck
	}()
	ctx := context.Background()
	cli, err := client.Dial(ctx, client.Options{
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", lis.Addr().String())
		},
		RetransmitEvery: time.Hour,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close() //nolint:errcheck

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
