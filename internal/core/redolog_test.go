package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/xid"
)

// TestLogHoldsOnlyRedo: the engine logs what replay reads and nothing
// else. A workload of every kind of update, an abort, a delegation and a
// prepared group leaves a log with no per-transaction begin record (the one
// begin record is the tid floor Open forces) and no before image in any
// update, and the log still reopens to exactly the live cache.
func TestLogHoldsOnlyRedo(t *testing.T) {
	mfs := faultfs.NewMem()
	cfg := Config{Dir: "/db", FS: mfs, SyncCommits: true}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := seedObject(t, m, []byte("alpha"))
	ctr := seedObject(t, m, wal.EncodeCounter(10))
	doomed := seedObject(t, m, []byte("doomed"))
	runTxn(t, m, func(tx *Tx) error {
		if err := tx.Write(a, []byte("ALPHA")); err != nil { // same length: in place
			return err
		}
		if err := tx.Write(a, []byte("alpha, resized")); err != nil {
			return err
		}
		if err := tx.Delete(doomed); err != nil {
			return err
		}
		return tx.Add(ctr, 5)
	})

	aborted := completed(t, m, func(tx *Tx) error {
		if err := tx.Write(a, []byte("lost, resized")); err != nil {
			return err
		}
		return tx.Add(ctr, 100)
	})
	if err := m.Abort(aborted); err != nil {
		t.Fatal(err)
	}

	worker := completed(t, m, func(tx *Tx) error { return tx.Write(a, []byte("delegated")) })
	holder := completed(t, m, noop)
	if err := m.Delegate(worker, holder); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(worker); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(holder); err != nil {
		t.Fatal(err)
	}

	p1 := completed(t, m, func(tx *Tx) error { _, err := tx.Create([]byte("prepared")); return err })
	p2 := completed(t, m, func(tx *Tx) error { return tx.Add(ctr, 1) })
	if err := m.PrepareCtx(context.Background(), 7, p1, p2); err != nil {
		t.Fatal(err)
	}
	if err := m.Decide(7, true); err != nil {
		t.Fatal(err)
	}

	want := map[xid.OID][]byte{}
	m.Cache().ForEach(func(oid xid.OID, data []byte) bool {
		want[oid] = append([]byte(nil), data...)
		return true
	})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	types := map[wal.Type]int{}
	kinds := map[wal.UpdateKind]int{}
	if err := wal.ScanChainFS(mfs, "/db", func(r *wal.Record) error {
		types[r.Type]++
		if r.Type == wal.TUpdate {
			kinds[r.Kind]++
			if len(r.Before) != 0 {
				t.Errorf("LSN %d: %v update of %v carries a %d-byte before image", r.LSN, r.Kind, r.OID, len(r.Before))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := types[wal.TBegin]; n != 1 {
		t.Errorf("the log holds %d begin records, want the one tid floor Open forced", n)
	}
	for _, typ := range []wal.Type{wal.TUndo, wal.TAbort, wal.TDelegate, wal.TPrepare, wal.TCommit} {
		if types[typ] == 0 {
			t.Errorf("the workload logged no %v record", typ)
		}
	}
	for _, k := range []wal.UpdateKind{wal.KindCreate, wal.KindModify, wal.KindDelete, wal.KindDelta} {
		if kinds[k] == 0 {
			t.Errorf("the workload logged no %v update", k)
		}
	}

	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := m2.Cache().Len(); n != len(want) {
		t.Errorf("reopen recovers %d objects, the live cache held %d", n, len(want))
	}
	for oid, data := range want {
		if got, ok := m2.Cache().Read(oid); !ok || !bytes.Equal(got, data) {
			t.Errorf("%v: reopen recovers %q (present %v), the live cache held %q", oid, got, ok, data)
		}
	}
	if got := wal.DecodeCounter(want[ctr]); got != 16 {
		t.Errorf("counter = %d, want 16", got)
	}
}

// TestCheckpointKeepsTIDFloor: a checkpoint's snapshot names no
// transaction in its images, so it carries the last tid issued, and a
// reopen after it issues tids above every one issued before it.
func TestCheckpointKeepsTIDFloor(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	var last xid.TID
	for i := 0; i < 5; i++ {
		last = runTxn(t, m, func(tx *Tx) error { _, err := tx.Create([]byte{byte(i)}); return err })
	}
	for cycle := 0; cycle < 2; cycle++ {
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m = openDurable(t, dir)
		id := runTxn(t, m, noop)
		if id <= last {
			t.Fatalf("cycle %d: the first tid after checkpoint and reopen is %v, not past %v", cycle, id, last)
		}
		last = id
	}
	m.Close()
}
