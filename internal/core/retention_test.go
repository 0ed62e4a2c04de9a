package core

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/xid"
)

// These tests pin the undo list's retention rule (txn.dropUndo): a
// descriptor keeps its undo array for its next transaction only while the
// transaction that just used it needed more than maxKeptUndo records, as
// the log keeps a batch buffer only while the batch that drained from it
// needed it.

// bulkCreates runs one interactive transaction that creates n objects from
// *next on, and commits it. It returns the descriptor the transaction ran
// on and the array its undo list filled.
func bulkCreates(t *testing.T, m *Manager, n int, next *xid.OID) (*txn, *undoRec) {
	t.Helper()
	tx, err := m.InitiateInteractive()
	if err != nil {
		t.Fatal(err)
	}
	id, d := tx.ID(), tx.t
	if _, err := m.BeginInteractive(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8)
	for i := 0; i < n; i++ {
		if err := tx.CreateAt(*next, data); err != nil {
			t.Fatal(err)
		}
		*next++
	}
	m.mu.Lock()
	arr := unsafe.SliceData(d.undo)
	if len(d.undo) != n {
		t.Errorf("%v made %d creates and has %d undo records", id, n, len(d.undo))
	}
	m.mu.Unlock()
	tx.Complete()
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	tx.Unpin()
	return d, arr
}

// TestBulkUndoArrayReused: a run of equal 8,192-create transactions grows
// one undo array, the first's: each later one finds it on the descriptor
// it is given and appends into it, where each used to regrow its own from
// undoBuf in 1.25× steps.
func TestBulkUndoArrayReused(t *testing.T) {
	const bulk, rounds = 8192, 4
	m := newMem(t)
	next := xid.OID(1)
	d0, arr0 := bulkCreates(t, m, bulk, &next)
	for r := 1; r < rounds; r++ {
		d, arr := bulkCreates(t, m, bulk, &next)
		if d != d0 {
			t.Fatalf("round %d ran on another descriptor; the test needs the free list to hand back the last one", r)
		}
		if arr != arr0 {
			t.Errorf("round %d filled a new undo array: the bulk array was not kept", r)
		}
	}
}

// TestSmallTxnReleasesBulkUndoArray: the first transaction within
// maxKeptUndo that gets a bulk transaction's descriptor lets the bulk
// array go, so no descriptor on the free list keeps more than undoBuf.
func TestSmallTxnReleasesBulkUndoArray(t *testing.T) {
	m := newMem(t)
	next := xid.OID(1)
	bulk, bulkArr := bulkCreates(t, m, 8192, &next)
	if cap(bulk.undo) <= maxKeptUndo {
		t.Fatalf("after the bulk transaction its descriptor's undo array holds %d records, want the bulk array kept", cap(bulk.undo))
	}
	small, arr := bulkCreates(t, m, maxKeptUndo, &next)
	if small != bulk || arr != bulkArr {
		t.Fatal("the small transaction did not run on the bulk descriptor and its array; the test needs the free list to hand them back")
	}
	n := 0
	if err := m.free.Audit(func(d *txn) {
		n++
		if unsafe.SliceData(d.undo) != &d.undoBuf[0] || len(d.undo) != 0 {
			t.Errorf("a free descriptor keeps an undo array of %d records (len %d)", cap(d.undo), len(d.undo))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no descriptor on the free list")
	}
}
