package server_test

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/race"
	"repro/internal/server"
	"repro/internal/txcoord"
	"repro/internal/xid"
)

// Round-trip allocation budgets, client and server sides together,
// pinned at what the wire path measures. An early version measured 22
// (Lock) and 25 (Write) on this same test, then 3 and 4: the per-request
// goroutine closure and cancel context that the session's parked workers
// replaced. A Write then measured 1, the engine's copy of the data that the
// object kept; it now overwrites the object in place, the before image in
// the transaction's descriptor and the log record the manager's reused
// one: 0. A Read is the copy the client hands its caller, and nothing on
// the server: it measured 2 when the server read into a fresh copy, which
// the response and the dedup window shared; the worker now reads into a
// buffer of its own and the window copies into one of its own.
const (
	lockRoundTripAllocBudget  = 0
	writeRoundTripAllocBudget = 0
	readRoundTripAllocBudget  = 1
)

// remoteTxnAllocBudget bounds an empty remote transaction — initiate,
// begin, commit: three round trips. It measured 28 with a goroutine and a
// context per request, and 12 with a body goroutine behind the workers
// (a server-side transaction object, two channels, a cancel context and
// its cancel func, the body closure; the body's and the context watcher's
// goroutines, the watcher's Done channel, the termination channel it
// parked on), and 4 when the workers drove the interactive transaction
// through a server object and its channel token. The server's tables hold
// core's handle now, whose token is a flag in the descriptor, and drop
// their reference on it when they forget the transaction. The manager
// reaps a terminated transaction, so the descriptor and its table entry
// are then both recycled: 0.
const remoteTxnAllocBudget = 0

// TestRoundTripAllocBudget drives a Lock, a Write and a Read round trip
// over loopback TCP against a running Serve and counts every heap object
// the process allocates per round trip. The object is already write-locked
// by the transaction and the written value has the stored value's length,
// so the engine's own work is at its floor and the count is the wire's:
// framing, codec, call table, dedup window, dispatch and the token of the
// transaction.
func TestRoundTripAllocBudget(t *testing.T) {
	cli := loopbackClient(t, core.Config{})
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
	read := testing.AllocsPerRun(2000, func() {
		if _, err := tx.Read(ctx, oid); err != nil {
			t.Fatalf("Read: %v", err)
		}
	})
	t.Logf("allocs per round trip: Lock %.1f, Write %.1f, Read %.1f", lock, write, read)
	if lock > lockRoundTripAllocBudget {
		t.Errorf("Lock round trip allocates %.1f objects, budget %d", lock, lockRoundTripAllocBudget)
	}
	if write > writeRoundTripAllocBudget {
		t.Errorf("Write round trip allocates %.1f objects, budget %d", write, writeRoundTripAllocBudget)
	}
	if read > readRoundTripAllocBudget {
		t.Errorf("Read round trip allocates %.1f objects, budget %d", read, readRoundTripAllocBudget)
	}
	if err := cli.Abort(ctx, tid); err != nil {
		t.Fatalf("Abort: %v", err)
	}
}

// TestRemoteTxnAllocBudget counts what a whole remote transaction with no
// operations in it allocates, client and server sides together: what the
// tier adds to a transaction, as the round-trip budget is what it adds to
// an operation. Its one subtest is named "reap" because every manager
// reaps terminated transactions.
func TestRemoteTxnAllocBudget(t *testing.T) {
	t.Run("reap", func(t *testing.T) {
		txn := emptyRemoteTxn(t, loopbackClient(t, core.Config{}))
		txn()
		got := testing.AllocsPerRun(2000, txn)
		t.Logf("allocs per empty remote transaction: %.1f", got)
		if got > remoteTxnAllocBudget {
			t.Errorf("empty remote transaction allocates %.1f objects, budget %d", got, remoteTxnAllocBudget)
		}
	})
}

// twoPhaseRoundAllocBudget bounds one presumed-abort 2PC round over two
// loopback participants, client, server and coordinator sides together. It
// measured 45 when each vote built its GC closure, group, gate and tid
// list and each verdict a gate and group, the tid list crossed the wire in
// two fresh encodings and two fresh decodings, a verdict copied the
// members it reaped, the coordinator spawned four goroutine closures and
// made the votes, acks and wait group, and the decision log marshalled a
// fresh payload. What is left is the members the caller builds (Remote's
// closures and tid lists), one goroutine closure per phase, and the
// in-memory filesystem's copies of the decision's write: 10.
const twoPhaseRoundAllocBudget = 10

// TestTwoPhaseRoundAllocBudget commits one two-member group per run through
// a txcoord coordinator with txcoord.Remote members, as MACRO twonode's
// xfer does. Each member is an interactive transaction begun beforehand,
// which the prepare completes, so the count is the round's alone.
func TestTwoPhaseRoundAllocBudget(t *testing.T) {
	a := loopbackClient(t, core.Config{})
	b := loopbackClient(t, core.Config{})
	coord, err := txcoord.Open(faultfs.NewMem(), "coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() }) //nolint:errcheck
	coord.RetireAcked = true
	ctx := context.Background()
	const runs = 500
	begun := func(cli *client.Client) []xid.TID {
		tids := make([]xid.TID, runs+1) // AllocsPerRun runs once more to warm up
		for i := range tids {
			tid, err := cli.Initiate(ctx)
			if err == nil {
				err = cli.Begin(ctx, tid)
			}
			if err != nil {
				t.Fatalf("begin: %v", err)
			}
			tids[i] = tid
		}
		return tids
	}
	ta, tb := begun(a), begun(b)
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		ok, err := coord.CommitGroup(ctx, coord.NewGID(), []txcoord.Member{
			txcoord.Remote("a", a, ta[next]),
			txcoord.Remote("b", b, tb[next]),
		})
		if err != nil || !ok {
			t.Fatalf("round: %v, %v", ok, err)
		}
		next++
	})
	t.Logf("allocs per two-member 2PC round: %.1f", got)
	if got > twoPhaseRoundAllocBudget {
		t.Errorf("two-member 2PC round allocates %.1f objects, budget %d", got, twoPhaseRoundAllocBudget)
	}
}

// TestCommittedTxnsLeaveNoHeap commits 50,000 remote transactions on one
// session of a manager opened on the zero Config and asks whether
// anything of them stays behind. A context per transaction, child of the
// session's and cancelled only on abort, once kept each committed one in
// the session context's children: +10.8 MB.
func TestCommittedTxnsLeaveNoHeap(t *testing.T) {
	txn := emptyRemoteTxn(t, loopbackClient(t, core.Config{}))
	for i := 0; i < 1000; i++ { // pools, maps and windows at their working size
		txn()
	}
	before := liveHeap()
	for i := 0; i < 50000; i++ {
		txn()
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("live heap after 50,000 committed remote transactions: %+d B", grown)
	if grown > 1<<20 {
		t.Errorf("live heap grew %d B over 50,000 committed transactions, want < 1 MB", grown)
	}
}

// TestRemoteTxnsLeaveNoGoroutines: 10,000 remote transactions leave the
// goroutine count where it was.
func TestRemoteTxnsLeaveNoGoroutines(t *testing.T) {
	txn := emptyRemoteTxn(t, loopbackClient(t, core.Config{}))
	for i := 0; i < 100; i++ {
		txn()
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		txn()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 10,000 remote transactions, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// emptyRemoteTxn returns initiate, begin, commit over cli.
func emptyRemoteTxn(t *testing.T, cli *client.Client) func() {
	ctx := context.Background()
	return func() {
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
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loopbackClient serves a fresh manager opened with cfg on loopback TCP
// and dials it; both are torn down with the test. Skips under the race
// detector, where allocation counts are meaningless and a run of tens of
// thousands of transactions is slow.
func loopbackClient(t *testing.T, cfg core.Config) *client.Client {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m, err := core.Open(cfg)
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
