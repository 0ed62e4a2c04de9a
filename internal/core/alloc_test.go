package core

import (
	"runtime"
	"testing"

	"repro/internal/race"
	"repro/internal/wal"
)

// Budgets for what one local transaction may allocate on a directory-less
// manager that reaps its descriptors (what the MACRO benchmark runs), counted
// over initiate, begin, the body on its goroutine, and commit.
//
// An empty body cost 12 objects at the parent commit: the descriptor and its
// three channels, the Tx handle, the begin and commit records, the commit's
// tid list, group and GC component, the descriptor-table entry, and the
// goroutine's closure. What is left is the descriptor, its table entry, the
// closure, and the channel the committer parks on when it gets there before
// the body has finished.
//
// A body with one Write, one Read and one Add on warm objects cost 33. On top
// of the empty body that was a pending and a granted LRD per lock, the
// txnState with its maps, their first inserts and its table entry, the
// release and settlement snapshots, the escrow reservation and its index,
// the before copy, after copy and log record of the Write, the copy the Read
// returns, two counter images and the record of the Add, and the undo list.
// What is left of those is the Write's after copy, the Read's copy, and the
// lock table's entry for the txnState: 7 measured, budgeted with slack for
// the runtime's own habits and well under half of 33.
const (
	emptyTxnAllocBudget = 6
	smallTxnAllocBudget = 10
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

	run := func(fn TxnFunc) {
		id, err := m.Initiate(fn)
		if err == nil {
			err = m.Begin(id)
		}
		if err == nil {
			err = m.Commit(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
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
		budget float64
	}{
		{"empty body", empty, emptyTxnAllocBudget},
		{"write+read+add", small, smallTxnAllocBudget},
	} {
		run(tc.fn) // warm the free lists and the objects' lock descriptors
		got := testing.AllocsPerRun(500, func() { run(tc.fn) })
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
