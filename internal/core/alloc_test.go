package core

import (
	"runtime"
	"testing"

	"repro/internal/race"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Budgets for what one local transaction may allocate on a directory-less
// manager that reaps its descriptors (what the MACRO benchmark runs), counted
// over initiate, begin, the body on its goroutine, and commit — and over
// initiate, execute and commit, where the body runs on the caller.
//
// An empty body cost 12 objects at the parent commit: the descriptor and its
// three channels, the Tx handle, the begin and commit records, the commit's
// tid list, group and GC component, the descriptor-table entry, and the
// goroutine's closure. What is left is the descriptor, the closure, and the
// channel the committer parks on when it gets there before the body has
// finished (the table entry comes off htab's free list): 3 measured. An
// executed body has no goroutine to close over and has finished before the
// committer asks: the descriptor alone, 1 measured.
//
// A body with one Write, one Read and one Add on warm objects cost 33. On top
// of the empty body that was a pending and a granted LRD per lock, the
// txnState with its maps, their first inserts and its table entry, the
// release and settlement snapshots, the escrow reservation and its index,
// the before copy, after copy and log record of the Write, the copy the Read
// returns, two counter images and the record of the Add, and the undo list.
// What is left of those is the Write's after copy and the Read's copy (the
// lock table's entry for the txnState is recycled too): 5 measured, budgeted
// with slack for the runtime's own habits and well under half of 33.
const (
	emptyTxnAllocBudget    = 6
	smallTxnAllocBudget    = 10
	executedTxnAllocBudget = 2
)

func TestLocalTxnAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m, err := Open(Config{ReapTerminated: true})
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

// TestMemLogKeepsNoHeap: a directory-less manager has a log nothing can ever
// replay, so committing must not grow the heap. The retaining in-memory log
// kept every record with its before and after images — about 650 bytes per
// small write here, 31 MB over this loop — for the life of the process.
func TestMemLogKeepsNoHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	m, err := Open(Config{ReapTerminated: true})
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

// TestDirlessManagerKeepsNoDirtySet: a manager opened without Dir has
// NullBackend behind it, so a checkpoint has nothing to write and the
// manager no reason to remember which objects changed; nor does the lock
// table remember objects nobody locks any more. 50,000 transactions that
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

	m, err := Open(Config{ReapTerminated: true})
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
	if len(m.dirty) != 0 {
		t.Errorf("dirty set holds %d objects on a manager with nothing to checkpoint into", len(m.dirty))
	}
	if f := m.LockManager().Footprint(); f.ODs != 0 {
		t.Errorf("lock table holds %d object descriptors with no transaction live", f.ODs)
	}
	if err := m.Checkpoint(); err != nil {
		t.Errorf("checkpoint of a directory-less manager: %v", err)
	}
}
