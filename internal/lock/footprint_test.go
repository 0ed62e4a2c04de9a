package lock

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/race"
	"repro/internal/xid"
)

// liveHeap returns the bytes of reachable heap objects after two forced
// collections, and the cumulative count of heap objects allocated.
func liveHeap() (bytes, mallocs uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

// TestLockTableFollowsLocksInForce: a million distinct objects are locked
// and released by short transactions, beside a handful of declared escrow
// counters that see traffic too. Afterwards the table holds one OD per
// declared ledger and nothing else, the live heap is where it started, and
// the passage allocated next to nothing — the table is sized by the locks
// in force, not by the objects ever locked. With ODs that live as long as
// the table this grows by about 190 MB.
func TestLockTableFollowsLocksInForce(t *testing.T) {
	if race.Enabled {
		t.Skip("heap and allocation counts are meaningless under the race detector")
	}
	const (
		objects  = 1_000_000
		perTxn   = 4
		ledgers  = 16
		counter0 = xid.OID(1 << 40)
	)
	m := newTest(Options{})
	for i := 0; i < ledgers; i++ {
		if err := m.DeclareEscrow(counter0+xid.OID(i), 1<<20, 0, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	tid, oid := xid.TID(1), xid.OID(1)
	passage := func() {
		for i := 0; i < perTxn; i++ {
			if err := m.Lock(tid, oid, xid.OpWrite); err != nil {
				t.Fatal(err)
			}
			oid++
		}
		if err := m.EscrowReserve(tid, counter0+xid.OID(tid%ledgers), 1); err != nil {
			t.Fatal(err)
		}
		m.EscrowCommit(tid)
		m.ReleaseAll(tid)
		tid++
	}
	for i := 0; i < 5000; i++ { // fill the free lists
		passage()
	}
	heap0, mallocs0 := liveHeap()
	for i := 0; i < objects/perTxn; i++ {
		passage()
	}
	heap1, mallocs1 := liveHeap()

	if f := m.Footprint(); f.ODs != ledgers {
		t.Errorf("%d ODs mapped after every lock was released, want the %d declared ledgers (footprint %+v)", f.ODs, ledgers, f)
	}
	if grown := int64(heap1) - int64(heap0); grown > 1<<20 {
		t.Errorf("live heap grew by %d bytes over %d objects locked once", grown, objects)
	}
	if n := mallocs1 - mallocs0; n > objects/1000 {
		t.Errorf("%d heap objects allocated over %d lock/release passages of never-seen objects", n, objects)
	}
	wantClean(t, m, "after a million objects")
}

// TestShardIsOneCacheLine: adjacent shards must not share a line, or their
// latch words false-share.
func TestShardIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(lockShard{}); got != 64 {
		t.Errorf("lockShard is %d bytes, want 64", got)
	}
}
