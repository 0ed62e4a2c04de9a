package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/race"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Budgets for what one local transaction may allocate on a directory-less
// manager (what the MACRO benchmark runs), counted over initiate, begin,
// the body on its goroutine, and commit — and over initiate, execute and
// commit, where the body runs on the caller.
//
// The budgets are pinned at the measured counts. An empty body cost 12
// objects before the local path was made allocation-free: the descriptor and
// its three channels, the Tx handle, the begin and commit records, the
// commit's tid list, group and GC component, the descriptor-table entry, and
// the goroutine's closure. What is left is the closure: 1 (2 while the
// committer that got there before the body had finished made a channel to
// park on, which it now borrows from the manager's free list of wake
// channels; 3 while every transaction had a fresh descriptor, which now
// comes off the manager's free list, as the table entry comes off htab's).
// An executed body has no goroutine to close over and has finished before
// the committer asks: 0 (1, the descriptor).
//
// A body with one Write, one Read and one Add on warm objects cost 33. On top
// of the empty body that was a pending and a granted LRD per lock, the
// txnState with its maps, their first inserts and its table entry, the
// release and settlement snapshots, the escrow reservation and its index,
// the before copy, after copy and log record of the Write, the copy the Read
// returns, two counter images and the record of the Add, and the undo list.
// What is left of those is the copy the Read returns, which the caller
// keeps: 2 in all with the closure (4 while the Write made an after copy for
// the object to keep, where it now overwrites the object in place with the
// before image kept in the descriptor, and the committer made its channel;
// 5 with a fresh descriptor).
const (
	emptyTxnAllocBudget    = 1
	smallTxnAllocBudget    = 2
	executedTxnAllocBudget = 0
)

func TestLocalTxnAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	obj := seedObject(t, m, make([]byte, 64))
	ctr := seedObject(t, m, wal.EncodeCounter(1<<20))
	payload := make([]byte, 64)

	run := func(fn TxnFunc, start func(xid.TID) error) {
		id, err := m.Initiate(fn)
		if err == nil {
			err = start(id)
		}
		if err == nil {
			err = m.Commit(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	begin := func(id xid.TID) error { return m.Begin(id) }
	empty := func(*Tx) error { return nil }
	small := func(tx *Tx) error {
		if err := tx.Write(obj, payload); err != nil {
			return err
		}
		if _, err := tx.Read(obj); err != nil {
			return err
		}
		return tx.Add(ctr, 1)
	}
	for _, tc := range []struct {
		name   string
		fn     TxnFunc
		start  func(xid.TID) error
		budget float64
	}{
		{"empty body", empty, begin, emptyTxnAllocBudget},
		{"write+read+add", small, begin, smallTxnAllocBudget},
		{"empty body, executed", empty, m.Execute, executedTxnAllocBudget},
	} {
		run(tc.fn, tc.start) // warm the free lists and the objects' lock descriptors
		got := testing.AllocsPerRun(500, func() { run(tc.fn, tc.start) })
		t.Logf("%s: %.1f objects per transaction", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.1f objects per transaction, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// prepareDecideAllocBudget bounds a participant's share of a 2PC round: a
// local PrepareCtx and a commit Decide of one completed transaction on a
// directory-less manager. It measured 8 when the vote built its GC
// closure, group, gate channel and tid list, and the verdict another gate
// and group. The vote now walks the closure through the commit path's
// frame-buffered examine, a gate's channel is made only when someone waits
// on it, and the tid list comes off a free list the verdict gives it back
// to: 0.
const prepareDecideAllocBudget = 0

// TestPrepareDecideAllocBudget counts what PrepareCtx and Decide allocate
// for one completed transaction, executed beforehand, so that the count is
// the round's alone.
func TestPrepareDecideAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const runs = 500
	ids := make([]xid.TID, runs+1) // AllocsPerRun runs once more to warm up
	for i := range ids {
		id, err := m.Initiate(noop)
		if err == nil {
			err = m.Execute(id)
		}
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ctx := context.Background()
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		gid := uint64(next + 1)
		if err := m.PrepareCtx(ctx, gid, ids[next]); err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if err := m.Decide(gid, true); err != nil {
			t.Fatalf("decide: %v", err)
		}
		next++
	})
	t.Logf("prepare + decide: %.1f objects", got)
	if got > prepareDecideAllocBudget {
		t.Errorf("prepare + decide allocates %.1f objects, budget %d", got, prepareDecideAllocBudget)
	}
}

// TestTxnSizeClass: the descriptor, made whenever the free list is empty and
// kept there for the next transaction, stays in the allocator's 320-byte
// size class; a field that pushed it past would cost the 352-byte class.
func TestTxnSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(txn{}); got > 320 {
		t.Fatalf("txn is %d bytes, past the 320-byte size class", got)
	}
}

// TestMemLogKeepsNoHeap: a directory-less manager has no log, since nothing
// could ever replay one, so committing must not grow the heap. The retaining
// in-memory log it once had kept every record with its before and after
// images — about 650 bytes per small write here, 31 MB over this loop — for
// the life of the process.
func TestMemLogKeepsNoHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	obj := seedObject(t, m, make([]byte, 64))
	payload := make([]byte, 64)
	write := func() {
		runTxn(t, m, func(tx *Tx) error { return tx.Write(obj, payload) })
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 1000; i++ {
		write() // warm free lists, maps and table buckets
	}
	before := live()
	for i := 0; i < 50_000; i++ {
		write()
	}
	after := live()
	if after > before && after-before > 1<<20 {
		t.Errorf("live heap grew %d KB over 50,000 committed writes, want < 1024 KB", (after-before)>>10)
	}
}

// TestDirlessManagerKeepsNoDirtySet: a manager opened without Dir has no
// log to checkpoint into, and no manager remembers which objects changed
// (a checkpoint writes every object); nor does the lock table remember
// objects nobody locks any more. 50,000 transactions that
// each create one object must grow the heap by what the objects cost in the
// cache and nothing else — measured against the same creates made straight
// into a bare cache. (The parent kept 43 B of dirty set and 198 B of object
// descriptor per object on top, 12 MB here.) Checkpoint keeps working.
func TestDirlessManagerKeepsNoDirtySet(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const n, size = 50_000, 32
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	bare := storage.NewCache()
	for i := 0; i < n; i++ {
		bare.Create(xid.OID(i+1), make([]byte, size))
	}
	objects := live() - before
	runtime.KeepAlive(bare)

	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := make([]byte, size)
	create := func() {
		runTxn(t, m, func(tx *Tx) error { _, err := tx.Create(payload); return err })
	}
	for i := 0; i < 1000; i++ {
		create() // warm free lists and table buckets
	}
	before = live()
	for i := 0; i < n; i++ {
		create()
	}
	grown := live() - before
	t.Logf("%d created objects: %d KB in a bare cache, %d KB through the manager", n, objects>>10, grown>>10)
	if grown > objects+1<<20 {
		t.Errorf("heap grew %d KB over %d created objects that cost %d KB in a bare cache, want no more than 1024 KB on top",
			grown>>10, n, objects>>10)
	}
	if f := m.LockManager().Footprint(); f.ODs != 0 {
		t.Errorf("lock table holds %d object descriptors with no transaction live", f.ODs)
	}
	if err := m.Checkpoint(); err != nil {
		t.Errorf("checkpoint of a directory-less manager: %v", err)
	}
}

// TestCacheCreateAbortAtFrontier: a transaction that creates an object and
// aborts, in a loop, creates each object in the block at the allocator's
// frontier and empties it again. The cache keeps that block, so the loop
// makes one block per 63 creates as the frontier moves on, not one per
// create: it allocates no more objects per transaction than the same loop
// re-creating one oid whose block a committed neighbour keeps in place.
func TestCacheCreateAbortAtFrontier(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := make([]byte, 8)
	errRollBack := errors.New("roll back")
	createAbort := func(create func(tx *Tx) error) func() {
		body := func(tx *Tx) error {
			if err := create(tx); err != nil {
				return err
			}
			return errRollBack
		}
		return func() {
			id, err := m.Initiate(body)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Execute(id); !errors.Is(err, errRollBack) {
				t.Fatalf("Execute = %v, want the body's error", err)
			}
		}
	}
	neighbour := seedObject(t, m, payload)
	pinned := createAbort(func(tx *Tx) error { return tx.CreateAt(neighbour+1, payload) })
	frontier := createAbort(func(tx *Tx) error { _, err := tx.Create(payload); return err })
	for i := 0; i < 100; i++ {
		pinned() // warm the free lists and the undo list
		frontier()
	}
	want := testing.AllocsPerRun(310, pinned)
	got := testing.AllocsPerRun(310, frontier)
	t.Logf("create then abort: %.0f objects per transaction at the frontier, %.0f in a kept block", got, want)
	if got > want {
		t.Errorf("create then abort at the frontier: %.0f objects per transaction, want %.0f (no block per create)", got, want)
	}
	if n := m.Cache().Len(); n != 1 {
		t.Errorf("cache holds %d objects after every create rolled back, want 1", n)
	}
}

// TestCheckpointStreamsSnapshot: a checkpoint writes an image of every
// object through a bounded batch, so the live heap after it is the heap
// before it: the log keeps no buffer the size of the snapshot (framing
// all 100,000 images in one batch first would leave about 5 MB behind),
// and the manager remembers nothing of what it wrote.
func TestCheckpointStreamsSnapshot(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const n, perTxn = 100_000, 1000
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := make([]byte, 24)
	for i := 0; i < n/perTxn; i++ {
		runTxn(t, m, func(tx *Tx) error {
			for j := 0; j < perTxn; j++ {
				if _, err := tx.Create(payload); err != nil {
					return err
				}
			}
			return nil
		})
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := live()
	t.Logf("live heap %d KB before a checkpoint of %d objects, %d KB after", before>>10, m.Cache().Len(), after>>10)
	if after > before && after-before > 1<<20 {
		t.Errorf("a checkpoint of %d objects grew the live heap by %d KB, want < 1024 KB", n, (after-before)>>10)
	}
}
