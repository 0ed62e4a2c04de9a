// Package htab provides the sharded chained hash table used by the
// transaction manager for its descriptor indexes (§4.1 of the paper places
// transaction descriptors "in a chained hash table based on the transaction
// tid", and double-hashes permit descriptors and dependency edges on the two
// tids involved).
//
// The table is generic over a uint64 key (TIDs and OIDs are both uint64
// kinds). Each shard is an independently latched chained table, so lookups
// by different transactions rarely contend.
package htab

import (
	"sync"
)

const defaultShards = 64

// maxFreeEntries caps a shard's free list; what a burst of deletes retires
// beyond it goes back to the collector.
const maxFreeEntries = 256

// entry is a node in a bucket chain, or on its shard's free list. Entry
// pointers never leave the package, so a deleted entry has no other holder
// and can be reused at once.
type entry[V any] struct {
	key  uint64
	val  V
	next *entry[V]
}

type shard[V any] struct {
	//asset:latch order=30
	mu      sync.Mutex
	buckets []*entry[V]
	n       int
	free    *entry[V] // deleted entries, values zeroed, linked through next
	nfree   int
	// Pad each shard to a full cache line (mutex 8 + slice 24 + int 8 +
	// free list 16 + pad 8 = 64 bytes); adjacent shards otherwise
	// false-share and serialize under concurrency.
	_ [8]byte
}

// insert links a new entry at the head of bucket b, taking the node off the
// free list when there is one. Caller holds s.mu and has established that
// key is absent.
func (s *shard[V]) insert(b uint64, key uint64, val V) {
	e := s.free
	if e != nil {
		s.free = e.next
		s.nfree--
	} else {
		e = new(entry[V])
	}
	e.key, e.val, e.next = key, val, s.buckets[b]
	s.buckets[b] = e
	s.n++
	if s.n > 4*len(s.buckets) {
		s.grow()
	}
}

// Map is a sharded chained hash table from uint64 keys to values of type V.
// Create one with New. All methods are safe for concurrent use.
type Map[V any] struct {
	shards []shard[V]
	mask   uint64
}

// New returns a table with the given shard count rounded up to a power of
// two; shards <= 0 selects a default suitable for many goroutines.
func New[V any](shards int) *Map[V] {
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Map[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i].buckets = make([]*entry[V], 8)
	}
	return m
}

// Hash exposes the table's 64-bit finalizer for callers that shard their
// own structures (the lock manager hashes oids onto lock-table shards with
// it, so an object's lock shard and its htab shard derive from one
// function).
func Hash(x uint64) uint64 { return mix(x) }

// mix is a 64-bit finalizer (splitmix64) spreading sequential tids across
// shards and buckets.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (m *Map[V]) shardFor(key uint64) *shard[V] {
	return &m.shards[mix(key)&m.mask]
}

// Get returns the value stored under key and whether it was present.
func (m *Map[V]) Get(key uint64) (V, bool) {
	s := m.shardFor(key)
	h := mix(key)
	s.mu.Lock()
	for e := s.buckets[h%uint64(len(s.buckets))]; e != nil; e = e.next {
		if e.key == key {
			v := e.val
			s.mu.Unlock()
			return v, true
		}
	}
	s.mu.Unlock()
	var zero V
	return zero, false
}

// Put stores val under key, replacing any existing value. It reports whether
// the key was newly inserted.
func (m *Map[V]) Put(key uint64, val V) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := mix(key) % uint64(len(s.buckets))
	for e := s.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			e.val = val
			return false
		}
	}
	s.insert(b, key, val)
	return true
}

// PutIfAbsent stores val under key only if the key is absent. It returns the
// value now present and whether this call inserted it.
func (m *Map[V]) PutIfAbsent(key uint64, val V) (V, bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := mix(key) % uint64(len(s.buckets))
	for e := s.buckets[b]; e != nil; e = e.next {
		if e.key == key {
			return e.val, false
		}
	}
	s.insert(b, key, val)
	return val, true
}

// Delete removes key and reports whether it was present.
func (m *Map[V]) Delete(key uint64) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := mix(key) % uint64(len(s.buckets))
	for p := &s.buckets[b]; *p != nil; p = &(*p).next {
		if e := *p; e.key == key {
			*p = e.next
			s.n--
			if s.nfree < maxFreeEntries {
				var zero V
				e.val, e.next = zero, s.free // the list must not keep the value alive
				s.free = e
				s.nfree++
			}
			return true
		}
	}
	return false
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Range calls fn for each entry until fn returns false. The snapshot per
// shard is consistent; entries inserted or removed concurrently in other
// shards may or may not be observed.
func (m *Map[V]) Range(fn func(key uint64, val V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		// Copy the shard's entries so fn can call back into the map.
		type kv struct {
			k uint64
			v V
		}
		var snap []kv
		for _, head := range s.buckets {
			for e := head; e != nil; e = e.next {
				snap = append(snap, kv{e.key, e.val})
			}
		}
		s.mu.Unlock()
		for _, e := range snap {
			if !fn(e.k, e.v) {
				return
			}
		}
	}
}

// grow doubles the shard's bucket array. Caller holds s.mu.
func (s *shard[V]) grow() {
	old := s.buckets
	s.buckets = make([]*entry[V], 2*len(old))
	for _, head := range old {
		for e := head; e != nil; {
			next := e.next
			b := mix(e.key) % uint64(len(s.buckets))
			e.next = s.buckets[b]
			s.buckets[b] = e
			e = next
		}
	}
}

// Pair is a two-key index entry for structures "doubly hashed on the tid of
// the two transactions involved" (permit descriptors and dependency edges):
// the same value is reachable from either tid.
type Pair struct{ A, B uint64 }

// PairKey combines two ids into one 64-bit key for use in a Map. Collisions
// between distinct pairs are acceptable for the Map's bucket placement but
// not for identity, so callers store the full Pair in the value.
func PairKey(a, b uint64) uint64 { return mix(a) ^ mix(b)*0x9e3779b97f4a7c15 }
