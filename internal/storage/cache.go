package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/latch"
	"repro/internal/xid"
)

// Object is one entry of the shared cache. Lat is the object's S/X latch;
// per §4.2 of the paper a reader holds it in S mode across the read and a
// writer holds it in X mode across logging the before image, performing the
// write, and logging the after image. Data and SetData access the raw buffer
// and require the caller to hold the latch in the appropriate mode.
type Object struct {
	Lat  latch.Latch
	data []byte
}

// Data returns the object's buffer without copying. The caller must hold
// Lat (S for inspection, X for mutation via SetData).
func (o *Object) Data() []byte { return o.data }

// SetData replaces the object's contents. The caller must hold Lat in X
// mode.
func (o *Object) SetData(b []byte) { o.data = b }

// Cache is the shared object cache transactions operate on directly. The
// map itself is protected by a latch; individual objects carry their own
// latches.
type Cache struct {
	lat     latch.Latch
	objs    map[xid.OID]*Object
	nextOID atomic.Uint64
}

// NewCache returns an empty cache whose first allocated oid will be 1.
func NewCache() *Cache {
	return &Cache{objs: make(map[xid.OID]*Object)}
}

// AllocOID reserves a fresh object identifier without creating the object.
func (c *Cache) AllocOID() xid.OID {
	return xid.OID(c.nextOID.Add(1))
}

// SetNextOID advances the allocator so future AllocOIDs exceed floor;
// recovery calls it with the largest recovered oid.
func (c *Cache) SetNextOID(floor xid.OID) {
	for {
		cur := c.nextOID.Load()
		if cur >= uint64(floor) || c.nextOID.CompareAndSwap(cur, uint64(floor)) {
			return
		}
	}
}

// Object returns the cached object for oid, or nil if it does not exist.
func (c *Cache) Object(oid xid.OID) *Object {
	c.lat.RLock()
	o := c.objs[oid]
	c.lat.RUnlock()
	return o
}

// Read returns a copy of the object's contents: AppendRead with no buffer.
func (c *Cache) Read(oid xid.OID) ([]byte, bool) {
	return c.AppendRead(nil, oid)
}

// AppendRead appends the object's contents to dst, taking the object's S
// latch for the duration of the copy, and returns the extended slice; a nil
// dst gets a fresh slice sized to the object. The result never aliases the
// object's own buffer, which writers replace and counter adds change in
// place. A missing object leaves dst as it was.
func (c *Cache) AppendRead(dst []byte, oid xid.OID) ([]byte, bool) {
	o := c.Object(oid)
	if o == nil {
		return dst, false
	}
	o.Lat.RLock()
	if dst == nil {
		dst = make([]byte, 0, len(o.data))
	}
	dst = append(dst, o.data...)
	o.Lat.RUnlock()
	return dst, true
}

// Install creates or replaces the object outright (recovery and undo paths;
// transactional writes go through Object and its latch so the before image
// can be logged under the same X hold). It returns the previous contents,
// if any.
func (c *Cache) Install(oid xid.OID, data []byte) (prev []byte, existed bool) {
	c.lat.Lock()
	o := c.objs[oid]
	if o == nil {
		o = &Object{data: data}
		c.objs[oid] = o
		c.lat.Unlock()
		return nil, false
	}
	c.lat.Unlock()
	o.Lat.Lock()
	prev = o.data
	o.data = data
	o.Lat.Unlock()
	return prev, true
}

// Create inserts a new object under oid. It reports false if the oid is
// already present.
func (c *Cache) Create(oid xid.OID, data []byte) bool {
	c.lat.Lock()
	defer c.lat.Unlock()
	if _, exists := c.objs[oid]; exists {
		return false
	}
	c.objs[oid] = &Object{data: data}
	return true
}

// Delete removes the object, returning its final contents.
func (c *Cache) Delete(oid xid.OID) ([]byte, bool) {
	c.lat.Lock()
	o := c.objs[oid]
	if o == nil {
		c.lat.Unlock()
		return nil, false
	}
	delete(c.objs, oid)
	c.lat.Unlock()
	o.Lat.RLock()
	data := o.data
	o.Lat.RUnlock()
	return data, true
}

// Len returns the number of cached objects.
func (c *Cache) Len() int {
	c.lat.RLock()
	defer c.lat.RUnlock()
	return len(c.objs)
}

// ForEach calls fn with a copy of every object's contents. Objects created
// or deleted during the iteration may or may not be visited.
func (c *Cache) ForEach(fn func(oid xid.OID, data []byte) bool) {
	c.lat.RLock()
	oids := make([]xid.OID, 0, len(c.objs))
	for oid := range c.objs {
		oids = append(oids, oid)
	}
	c.lat.RUnlock()
	for _, oid := range oids {
		data, ok := c.Read(oid)
		if !ok {
			continue
		}
		if !fn(oid, data) {
			return
		}
	}
}

// Backend persists committed cache state across restarts. The manager loads
// it at open and writes changed objects at checkpoint.
type Backend interface {
	// LoadAll streams every stored object into fn.
	LoadAll(fn func(oid xid.OID, data []byte) error) error
	// Put stores (or replaces) one object.
	Put(oid xid.OID, data []byte) error
	// Delete removes one object.
	Delete(oid xid.OID) error
	// Sync makes preceding Puts/Deletes durable, together with the record
	// that the backend now reflects every log record at or below lsn.
	Sync(lsn uint64) error
	// Close releases the backend.
	Close() error
}

// NullBackend is the no-durability backend for purely in-memory managers.
type NullBackend struct{}

// LoadAll loads nothing.
func (NullBackend) LoadAll(func(xid.OID, []byte) error) error { return nil }

// Put discards the object.
func (NullBackend) Put(xid.OID, []byte) error { return nil }

// Delete discards the deletion.
func (NullBackend) Delete(xid.OID) error { return nil }

// Sync does nothing.
func (NullBackend) Sync(uint64) error { return nil }

// Close does nothing.
func (NullBackend) Close() error { return nil }

// PageBackend adapts a PageStore to the Backend interface.
type PageBackend struct {
	Store *PageStore
}

// LoadAll streams the page store contents.
func (b PageBackend) LoadAll(fn func(xid.OID, []byte) error) error {
	return b.Store.ForEach(fn)
}

// Put stores one object in the page store.
func (b PageBackend) Put(oid xid.OID, data []byte) error { return b.Store.Put(oid, data) }

// Delete removes one object from the page store.
func (b PageBackend) Delete(oid xid.OID) error {
	_, err := b.Store.Delete(oid)
	return err
}

// Sync flushes the page store durably and stamps it with lsn.
func (b PageBackend) Sync(lsn uint64) error { return b.Store.SyncThrough(lsn) }

// Close closes the page store.
func (b PageBackend) Close() error { return b.Store.Close() }

// MemBackend keeps a map copy; it exists so tests can observe checkpoint
// contents without disk.
type MemBackend struct {
	mu   sync.Mutex
	objs map[xid.OID][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{objs: make(map[xid.OID][]byte)} }

// LoadAll streams the backend contents.
func (b *MemBackend) LoadAll(fn func(xid.OID, []byte) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for oid, data := range b.objs {
		if err := fn(oid, data); err != nil {
			return err
		}
	}
	return nil
}

// Put stores a copy of data.
func (b *MemBackend) Put(oid xid.OID, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	b.objs[oid] = cp
	return nil
}

// Delete removes the object.
func (b *MemBackend) Delete(oid xid.OID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.objs, oid)
	return nil
}

// Sync does nothing.
func (b *MemBackend) Sync(uint64) error { return nil }

// Close does nothing.
func (b *MemBackend) Close() error { return nil }

// Len returns the number of stored objects.
func (b *MemBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.objs)
}

// Get returns the stored object.
func (b *MemBackend) Get(oid xid.OID) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.objs[oid]
	return v, ok
}
