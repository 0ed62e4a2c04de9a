package server_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/xid"
)

// TestTIDHeldAcrossRestartNotReissued: a client holds the tid of a
// transaction that has begun and read an object, so nothing on disk names
// it, when the server's disk crashes (only what was synced survives) and
// the server restarts on that image. The restarted server must not hand
// the tid to a new transaction: the next one gets a higher tid, and Status
// on the held tid never reports the new transaction running.
func TestTIDHeldAcrossRestartNotReissued(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mem := faultfs.NewMem()
	m1, err := core.Open(core.Config{Dir: "db", FS: mem, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	var oid xid.OID
	if err := m1.Run(ctx, core.RunOptions{}, func(tx *core.Tx) error {
		oid, err = tx.Create(counterBytes(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	fabric := faultnet.New()
	defer fabric.Close()
	lis, err := fabric.Listen("assetd")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.Serve(m1, lis, server.Config{LeaseTTL: time.Second})
	cli1, err := dialRetry(ctx, chaosClientOptions(fabric))
	if err != nil {
		t.Fatal(err)
	}
	defer cli1.Close() //nolint:errcheck
	held, err := cli1.Initiate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli1.Begin(ctx, held); err != nil {
		t.Fatal(err)
	}
	if _, err := cli1.Tx(held).Read(ctx, oid); err != nil {
		t.Fatal(err)
	}

	srv1.Close()
	img := mem.CrashImage(faultfs.DropUnsynced)
	m1.Close() //nolint:errcheck
	m2, err := core.Open(core.Config{Dir: "db", FS: img, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close() //nolint:errcheck
	lis2, err := fabric.Listen("assetd")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.Serve(m2, lis2, server.Config{LeaseTTL: time.Second})
	defer srv2.Close()
	cli2, err := dialRetry(ctx, chaosClientOptions(fabric))
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close() //nolint:errcheck

	next, err := cli2.Initiate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli2.Begin(ctx, next); err != nil {
		t.Fatal(err)
	}
	if next <= held {
		t.Errorf("held across the restart %v, first tid after it %v", held, next)
	}
	if st, err := cli2.Status(ctx, held); err == nil && st != xid.StatusAborted {
		t.Errorf("Status of %v, held across the restart: %v, want unknown or aborted", held, st)
	}
	if err := cli2.Abort(ctx, next); err != nil {
		t.Fatal(err)
	}
}
