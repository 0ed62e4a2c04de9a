package htab

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/race"
)

func TestPutGetDelete(t *testing.T) {
	m := New[string](4)
	if _, ok := m.Get(1); ok {
		t.Fatal("Get on empty table returned ok")
	}
	if !m.Put(1, "a") {
		t.Fatal("first Put reported replace")
	}
	if m.Put(1, "b") {
		t.Fatal("second Put reported insert")
	}
	if v, ok := m.Get(1); !ok || v != "b" {
		t.Fatalf("Get(1) = %q,%v; want b,true", v, ok)
	}
	if !m.Delete(1) {
		t.Fatal("Delete of present key returned false")
	}
	if m.Delete(1) {
		t.Fatal("Delete of absent key returned true")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestPutIfAbsent(t *testing.T) {
	m := New[int](1)
	if v, inserted := m.PutIfAbsent(7, 10); !inserted || v != 10 {
		t.Fatalf("first PutIfAbsent = %d,%v", v, inserted)
	}
	if v, inserted := m.PutIfAbsent(7, 20); inserted || v != 10 {
		t.Fatalf("second PutIfAbsent = %d,%v; want 10,false", v, inserted)
	}
}

func TestGrowKeepsEntries(t *testing.T) {
	m := New[uint64](1)
	const n = 10_000
	for i := uint64(1); i <= n; i++ {
		m.Put(i, i*2)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := m.Get(i); !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d,%v after grow", i, v, ok)
		}
	}
}

func TestRange(t *testing.T) {
	m := New[int](8)
	want := map[uint64]int{}
	for i := uint64(1); i <= 100; i++ {
		m.Put(i, int(i))
		want[i] = int(i)
	}
	got := map[uint64]int{}
	m.Range(func(k uint64, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range got[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	count := 0
	m.Range(func(uint64, int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Range with early stop visited %d, want 1", count)
	}
}

// TestQuickMatchesMap property-tests the table against the built-in map
// under a random operation sequence.
func TestQuickMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New[uint64](2)
		ref := map[uint64]uint64{}
		for i, op := range ops {
			key := uint64(op%64) + 1
			switch op % 3 {
			case 0:
				m.Put(key, uint64(i))
				ref[key] = uint64(i)
			case 1:
				delete(ref, key)
				m.Delete(key)
			case 2:
				v, ok := m.Get(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixed(t *testing.T) {
	m := New[int](0)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := uint64(rng.Intn(512) + 1)
				switch rng.Intn(3) {
				case 0:
					m.Put(k, i)
				case 1:
					m.Get(k)
				case 2:
					m.Delete(k)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// The table must still be internally consistent: every Range entry is
	// Get-able and counted by Len.
	n := 0
	m.Range(func(k uint64, _ int) bool {
		if _, ok := m.Get(k); !ok {
			t.Errorf("Range key %d not Get-able", k)
		}
		n++
		return true
	})
	if n != m.Len() {
		t.Fatalf("Range saw %d entries, Len = %d", n, m.Len())
	}
}

func TestPairKeySymmetryIsNotRequired(t *testing.T) {
	// PairKey is an index key, not an identity; distinct pairs may collide
	// but equal (ordered) pairs must map equally.
	if PairKey(1, 2) != PairKey(1, 2) {
		t.Fatal("PairKey not deterministic")
	}
}

// TestRecycledEntries: a deleted entry goes on its shard's free list with its
// value zeroed (the list must not keep a deleted value alive), the next
// insert reuses it under the new key alone, the list is capped, and Range and
// grow see chains of recycled entries exactly as they see fresh ones.
func TestRecycledEntries(t *testing.T) {
	m := New[*int](1)
	s := &m.shards[0]
	old := new(int)
	m.Put(1, old)
	m.Delete(1)
	if s.nfree != 1 || s.free == nil || s.free.val != nil {
		t.Fatalf("after a delete: %d entries on the free list, head %+v; want one with its value zeroed", s.nfree, s.free)
	}
	recycled := s.free
	v := new(int)
	if _, inserted := m.PutIfAbsent(2, v); !inserted {
		t.Fatal("PutIfAbsent of an absent key did not insert")
	}
	if s.nfree != 0 || s.free != nil {
		t.Fatalf("insert did not take the free entry: %d left", s.nfree)
	}
	if got, ok := m.Get(2); !ok || got != v || recycled.key != 2 || recycled.val != v {
		t.Fatalf("recycled entry holds key %d value %p, want 2 %p", recycled.key, recycled.val, v)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("the recycled entry still answers to its old key")
	}
	m.Delete(2)

	// Fill past several grows from a full free list, then check every entry.
	const n = 4 * maxFreeEntries
	for i := uint64(1); i <= n; i++ {
		m.Put(i, v)
	}
	for i := uint64(1); i <= n; i++ {
		m.Delete(i)
	}
	if s.nfree != maxFreeEntries || m.Len() != 0 {
		t.Fatalf("after %d deletes: %d on the free list (cap %d), Len %d", n, s.nfree, maxFreeEntries, m.Len())
	}
	vals := make([]int, n)
	for i := uint64(1); i <= n; i++ {
		m.Put(i+n, &vals[i-1])
	}
	if s.nfree != 0 {
		t.Fatalf("%d entries left on the free list after %d inserts", s.nfree, n)
	}
	seen := 0
	m.Range(func(k uint64, p *int) bool {
		if k <= n || k > 2*n || p != &vals[k-n-1] {
			t.Errorf("Range: key %d carries the wrong value", k)
		}
		seen++
		return true
	})
	if seen != n || m.Len() != n {
		t.Fatalf("Range saw %d entries, Len %d, want %d", seen, m.Len(), n)
	}
}

// TestChurnAllocatesNothing: inserting and deleting distinct keys — what the
// transaction table does once per transaction — allocates nothing once the
// free list has an entry.
func TestChurnAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := New[int](0)
	next := uint64(1)
	got := testing.AllocsPerRun(10_000, func() {
		m.PutIfAbsent(next, 1)
		m.Put(next+1, 2)
		m.Delete(next)
		m.Delete(next + 1)
		next += 2
	})
	if got != 0 {
		t.Errorf("%.2f allocations per insert/delete pair, want 0", got)
	}
}

// TestShardIsOneCacheLine: adjacent shards must not share a line, or their
// mutexes false-share.
func TestShardIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shard[*int]{}); got != 64 {
		t.Errorf("shard is %d bytes, want 64", got)
	}
}
