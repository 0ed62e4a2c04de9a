// Package odb is a minimal Ode-like object database layer over the ASSET
// transaction manager: named collections of byte records, hash indexes,
// and escrow counters, all accessed inside transactions so that every
// structure update inherits ASSET's locking, logging, and abort semantics.
// It stands in for the Ode/O++ environment the paper hosts ASSET in, and
// hosts the cursor-stability and commutativity experiments (E9, E14).
package odb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	asset "repro"
)

// RootOID is the reserved object holding the database registry (the map
// from collection/index names to their header objects).
const RootOID asset.OID = 1 << 62

// ErrNotFound reports a missing collection, index, or key.
var ErrNotFound = errors.New("odb: not found")

// Database is a handle over an ASSET manager with the registry object
// initialized.
type Database struct {
	m *asset.Manager
}

// Init returns a Database over m, creating the registry object if this is
// a fresh store.
func Init(m *asset.Manager) (*Database, error) {
	if _, ok := m.Cache().Read(RootOID); ok {
		return &Database{m: m}, nil
	}
	t, err := m.Initiate(func(tx *asset.Tx) error {
		return tx.CreateAt(RootOID, encodeDir(map[string]asset.OID{}))
	})
	if err != nil {
		return nil, err
	}
	if err := m.Execute(t); err != nil {
		return nil, err
	}
	if err := m.Commit(t); err != nil {
		return nil, err
	}
	return &Database{m: m}, nil
}

// Manager returns the underlying transaction manager.
func (db *Database) Manager() *asset.Manager { return db.m }

// encodeDir / decodeDir (de)serialize name→oid directories with gob.
func encodeDir(d map[string]asset.OID) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		panic(fmt.Sprintf("odb: encode directory: %v", err)) // cannot fail for this type
	}
	return buf.Bytes()
}

func decodeDir(b []byte) (map[string]asset.OID, error) {
	d := map[string]asset.OID{}
	if len(b) == 0 {
		return d, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&d); err != nil {
		return nil, fmt.Errorf("odb: corrupt directory: %w", err)
	}
	return d, nil
}

func encodeOIDs(oids []asset.OID) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oids); err != nil {
		panic(fmt.Sprintf("odb: encode oid list: %v", err))
	}
	return buf.Bytes()
}

func decodeOIDs(b []byte) ([]asset.OID, error) {
	var oids []asset.OID
	if len(b) == 0 {
		return nil, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&oids); err != nil {
		return nil, fmt.Errorf("odb: corrupt oid list: %w", err)
	}
	return oids, nil
}

// registryLookup finds (or, when create is true, creates) the named entry
// in the registry, where mk builds the initial header contents.
func (db *Database) registryLookup(tx *asset.Tx, name string, create bool, mk func() []byte) (asset.OID, error) {
	raw, err := tx.Read(RootOID)
	if err != nil {
		return asset.NilOID, err
	}
	dir, err := decodeDir(raw)
	if err != nil {
		return asset.NilOID, err
	}
	if oid, ok := dir[name]; ok {
		return oid, nil
	}
	if !create {
		return asset.NilOID, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	head, err := tx.Create(mk())
	if err != nil {
		return asset.NilOID, err
	}
	dir[name] = head
	if err := tx.Write(RootOID, encodeDir(dir)); err != nil {
		return asset.NilOID, err
	}
	return head, nil
}

// Collection is a named set of record objects. The header object stores
// the member oid list; records are ordinary objects, so member reads and
// writes lock only the records they touch.
type Collection struct {
	db   *Database
	name string
	head asset.OID
}

// Collection returns the named collection, creating it if needed. It must
// run inside a transaction.
func (db *Database) Collection(tx *asset.Tx, name string) (*Collection, error) {
	head, err := db.registryLookup(tx, "c:"+name, true, func() []byte { return encodeOIDs(nil) })
	if err != nil {
		return nil, err
	}
	return &Collection{db: db, name: name, head: head}, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert creates a record holding data and adds it to the collection.
func (c *Collection) Insert(tx *asset.Tx, data []byte) (asset.OID, error) {
	oid, err := tx.Create(data)
	if err != nil {
		return asset.NilOID, err
	}
	raw, err := tx.Read(c.head)
	if err != nil {
		return asset.NilOID, err
	}
	oids, err := decodeOIDs(raw)
	if err != nil {
		return asset.NilOID, err
	}
	oids = append(oids, oid)
	if err := tx.Write(c.head, encodeOIDs(oids)); err != nil {
		return asset.NilOID, err
	}
	return oid, nil
}

// Remove deletes a record from the collection and the store.
func (c *Collection) Remove(tx *asset.Tx, oid asset.OID) error {
	raw, err := tx.Read(c.head)
	if err != nil {
		return err
	}
	oids, err := decodeOIDs(raw)
	if err != nil {
		return err
	}
	found := false
	out := oids[:0]
	for _, o := range oids {
		if o == oid {
			found = true
			continue
		}
		out = append(out, o)
	}
	if !found {
		return fmt.Errorf("%w: %v in collection %q", ErrNotFound, oid, c.name)
	}
	if err := tx.Write(c.head, encodeOIDs(out)); err != nil {
		return err
	}
	return tx.Delete(oid)
}

// OIDs returns the member oids in insertion order.
func (c *Collection) OIDs(tx *asset.Tx) ([]asset.OID, error) {
	raw, err := tx.Read(c.head)
	if err != nil {
		return nil, err
	}
	return decodeOIDs(raw)
}

// Len returns the member count.
func (c *Collection) Len(tx *asset.Tx) (int, error) {
	oids, err := c.OIDs(tx)
	return len(oids), err
}

// Index is a persistent hash index from string keys to oids, stored as a
// header object pointing at bucket objects so concurrent transactions on
// different buckets do not conflict.
type Index struct {
	db      *Database
	name    string
	head    asset.OID
	buckets []asset.OID
}

type indexEntry struct {
	Key string
	Oid asset.OID
}

func encodeBucket(es []indexEntry) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(es); err != nil {
		panic(fmt.Sprintf("odb: encode bucket: %v", err))
	}
	return buf.Bytes()
}

func decodeBucket(b []byte) ([]indexEntry, error) {
	var es []indexEntry
	if len(b) == 0 {
		return nil, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&es); err != nil {
		return nil, fmt.Errorf("odb: corrupt bucket: %w", err)
	}
	return es, nil
}

// Index returns the named hash index, creating it with the given bucket
// count (rounded up to at least 1) if needed.
func (db *Database) Index(tx *asset.Tx, name string, buckets int) (*Index, error) {
	if buckets < 1 {
		buckets = 16
	}
	var created []asset.OID
	head, err := db.registryLookup(tx, "i:"+name, true, func() []byte { return encodeOIDs(nil) })
	if err != nil {
		return nil, err
	}
	raw, err := tx.Read(head)
	if err != nil {
		return nil, err
	}
	bs, err := decodeOIDs(raw)
	if err != nil {
		return nil, err
	}
	if len(bs) == 0 {
		for i := 0; i < buckets; i++ {
			b, err := tx.Create(encodeBucket(nil))
			if err != nil {
				return nil, err
			}
			created = append(created, b)
		}
		if err := tx.Write(head, encodeOIDs(created)); err != nil {
			return nil, err
		}
		bs = created
	}
	return &Index{db: db, name: name, head: head, buckets: bs}, nil
}

func (ix *Index) bucketFor(key string) asset.OID {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return ix.buckets[h%uint64(len(ix.buckets))]
}

// Set maps key to oid, replacing any existing mapping.
func (ix *Index) Set(tx *asset.Tx, key string, oid asset.OID) error {
	b := ix.bucketFor(key)
	raw, err := tx.Read(b)
	if err != nil {
		return err
	}
	es, err := decodeBucket(raw)
	if err != nil {
		return err
	}
	for i := range es {
		if es[i].Key == key {
			es[i].Oid = oid
			return tx.Write(b, encodeBucket(es))
		}
	}
	es = append(es, indexEntry{Key: key, Oid: oid})
	return tx.Write(b, encodeBucket(es))
}

// Get returns the oid mapped to key.
func (ix *Index) Get(tx *asset.Tx, key string) (asset.OID, error) {
	raw, err := tx.Read(ix.bucketFor(key))
	if err != nil {
		return asset.NilOID, err
	}
	es, err := decodeBucket(raw)
	if err != nil {
		return asset.NilOID, err
	}
	for _, e := range es {
		if e.Key == key {
			return e.Oid, nil
		}
	}
	return asset.NilOID, fmt.Errorf("%w: key %q", ErrNotFound, key)
}

// Delete removes key's mapping; deleting an absent key is an error.
func (ix *Index) Delete(tx *asset.Tx, key string) error {
	b := ix.bucketFor(key)
	raw, err := tx.Read(b)
	if err != nil {
		return err
	}
	es, err := decodeBucket(raw)
	if err != nil {
		return err
	}
	for i := range es {
		if es[i].Key == key {
			es = append(es[:i], es[i+1:]...)
			return tx.Write(b, encodeBucket(es))
		}
	}
	return fmt.Errorf("%w: key %q", ErrNotFound, key)
}

// Counter is an escrow counter object: concurrent transactions increment
// it without conflicting (the §5 commutativity extension), and reads see a
// stable committed value.
type Counter struct {
	Oid asset.OID
}

// NewCounter creates a counter initialized to v inside tx.
func NewCounter(tx *asset.Tx, v uint64) (Counter, error) {
	oid, err := tx.Create(counterImage(v))
	return Counter{Oid: oid}, err
}

// Add increments the counter by delta (mod 2^64) under a commuting
// increment lock.
func (c Counter) Add(tx *asset.Tx, delta uint64) error { return tx.Add(c.Oid, int64(delta)) }

// Sub decrements the counter by delta under a commuting decrement lock.
func (c Counter) Sub(tx *asset.Tx, delta uint64) error { return tx.Add(c.Oid, -int64(delta)) }

// Value reads the counter under a read lock (conflicts with in-flight
// increments, so it sees only committed values).
func (c Counter) Value(tx *asset.Tx) (uint64, error) { return tx.ReadCounter(c.Oid) }

// BoundedCounter is a Counter with declared escrow bounds: the committed
// value can never leave [Lo, Hi]. Concurrent deltas still commute; a delta
// that would overdraw the bounds — even in the worst case over in-flight
// reservations — blocks until headroom frees, or fails with
// asset.ErrEscrow when no in-flight resolution could admit it. The classic
// use is inventory or account balances that must not go negative.
type BoundedCounter struct {
	Counter
	Lo, Hi uint64
}

// NewBoundedCounter creates a counter initialized to v with escrow bounds
// [lo, hi] inside tx. Bounds are runtime state, not persisted: after
// reopening a store, re-declare them with Declare.
func NewBoundedCounter(tx *asset.Tx, v, lo, hi uint64) (BoundedCounter, error) {
	c, err := NewCounter(tx, v)
	if err != nil {
		return BoundedCounter{}, err
	}
	b := BoundedCounter{Counter: c, Lo: lo, Hi: hi}
	return b, tx.DeclareEscrow(c.Oid, lo, hi)
}

// Declare re-declares the counter's escrow bounds from its current
// committed value (after reopening a store, say). The caller's transaction
// takes a write lock on the counter for the declaration, serializing it
// against in-flight deltas.
func (b BoundedCounter) Declare(tx *asset.Tx) error {
	return tx.DeclareEscrow(b.Oid, b.Lo, b.Hi)
}

func counterImage(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
