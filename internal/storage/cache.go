package storage

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/latch"
	"repro/internal/xid"
)

// Object is one entry of the shared cache. Lat is the object's S/X latch;
// per §4.2 of the paper a reader holds it in S mode across the read and a
// writer holds it in X mode across logging the before image, performing the
// write, and logging the after image. Data and SetData access the raw buffer
// and require the caller to hold the latch in the appropriate mode.
//
// Objects live inline in the cache's blocks, one slot per oid, and a
// Delete and re-Create of the oid empty and refill the same slot. So a
// caller that keeps an *Object past its lookup holds the oid's lock, which
// keeps both out from under it (core's Write, Update and Add do).
//
// A slot is 16 bytes: the 4-byte latch word, the buffer's length, and a
// pointer to its first byte. The pointer is an ordinary Go pointer, so it
// keeps the buffer alive; a slice header would cost 24 bytes, and nothing
// reads an object's capacity. A length fits 32 bits, as it must to be
// logged (a record frames each byte field with a 32-bit length).
type Object struct {
	// Held in X mode across the log append of the object's update (§4.2),
	// so it orders before the log's latches.
	//asset:latch order=14 spin
	Lat latch.Latch
	n   uint32
	p   *byte // nil for an empty buffer
}

// Data returns the object's buffer without copying; its capacity is its
// length. The caller must hold Lat (S for inspection, X for mutation via
// SetData).
func (o *Object) Data() []byte { return unsafe.Slice(o.p, o.n) }

// SetData replaces the object's contents with b, which the object keeps.
// The caller must hold Lat in X mode.
func (o *Object) SetData(b []byte) {
	if len(b) == 0 {
		o.p, o.n = nil, 0 // an empty object keeps no buffer alive
		return
	}
	o.p, o.n = unsafe.SliceData(b), uint32(len(b))
}

// blockSlots is the number of objects in a block: 63 slots of 16 B and
// the presence word make 1,016 B, which fills the 1,024-B size class.
const blockSlots = 63

// block holds the objects of blockSlots consecutive oids inline. Bit i of
// live says whether slot i holds an object; it flips only under the slot's
// X latch and only while the flipper holds the cache latch, so a reader
// holding a slot's S latch sees a stable bit, and a block whose word is
// zero under the cache latch in X mode stays empty.
type block struct {
	objs [blockSlots]Object
	live atomic.Uint64
}

// blockOf splits an oid into its block's key and its slot's presence bit.
func blockOf(oid xid.OID) (key uint64, slot int, bit uint64) {
	key, s := uint64(oid)/blockSlots, uint64(oid)%blockSlots
	return key, int(s), 1 << s
}

// Cache is the shared object cache transactions operate on directly. The
// directory of blocks is protected by a latch; individual objects carry
// their own latches.
//
// An emptied block leaves the directory, except the block at the
// allocator's frontier (the block of the last allocated oid): a loop of
// creates rolled back at the frontier would otherwise make and drop a block
// per create. A frontier block kept empty is dropped when the next block is
// made, if it is still empty and the frontier has moved on.
type Cache struct {
	// Taken in S mode around every directory lookup and held, in S mode,
	// while a presence bit is set, so an emptiness check under X is stable.
	//asset:latch order=12 spin
	lat     latch.Latch
	dir     map[uint64]*block
	nextOID atomic.Uint64
	kept    atomic.Uint64 // key of the last emptied block kept at the frontier
}

// NewCache returns an empty cache whose first allocated oid will be 1.
func NewCache() *Cache {
	return &Cache{dir: make(map[uint64]*block)}
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

// frontier returns the key of the block holding the last allocated oid.
func (c *Cache) frontier() uint64 { return c.nextOID.Load() / blockSlots }

// lookup returns the directory's block for key, or nil.
func (c *Cache) lookup(key uint64) *block {
	c.lat.RLock()
	b := c.dir[key]
	c.lat.RUnlock()
	return b
}

// Object returns the cached object for oid, or nil if it does not exist.
func (c *Cache) Object(oid xid.OID) *Object {
	key, slot, bit := blockOf(oid)
	b := c.lookup(key)
	if b == nil || b.live.Load()&bit == 0 {
		return nil
	}
	return &b.objs[slot]
}

// Read returns a copy of the object's contents: AppendRead with no buffer.
func (c *Cache) Read(oid xid.OID) ([]byte, bool) {
	return c.AppendRead(nil, oid)
}

// AppendRead appends the object's contents to dst, taking the object's S
// latch for the duration of the copy, and returns the extended slice; a nil
// dst gets a fresh slice sized to the object. The result never aliases the
// object's own buffer, which same-length writes, counter adds and an
// abort's restore change in place and length-changing writes replace. A
// missing object leaves dst as it was. The copy is made under the S latch
// that every such writer excludes with its X hold, so it is a whole image.
//
// Presence is checked again under the S latch: a Delete (and a re-Create)
// racing the read gives "not found" or a whole image, never an emptied one.
func (c *Cache) AppendRead(dst []byte, oid xid.OID) ([]byte, bool) {
	key, slot, bit := blockOf(oid)
	b := c.lookup(key)
	if b == nil {
		return dst, false
	}
	return b.appendSlot(dst, slot, bit)
}

// appendSlot appends the contents of a present slot under its S latch.
func (b *block) appendSlot(dst []byte, slot int, bit uint64) ([]byte, bool) {
	o := &b.objs[slot]
	o.Lat.RLock()
	if b.live.Load()&bit == 0 {
		o.Lat.RUnlock()
		return dst, false
	}
	data := o.Data()
	if dst == nil {
		dst = make([]byte, 0, len(data))
	}
	dst = append(dst, data...)
	o.Lat.RUnlock()
	return dst, true
}

// Install creates or replaces the object outright with data, which the
// object keeps (recovery and undo paths; transactional writes go through
// Object and its latch so the before image can be logged under the same X
// hold). It returns the previous contents, if any.
func (c *Cache) Install(oid xid.OID, data []byte) (prev []byte, existed bool) {
	prev, existed, _ = c.put(oid, data, putReplace)
	return prev, existed
}

// Restore makes the object's contents a copy of img, creating the object if
// it is missing: in place when its buffer has img's length, in a new buffer
// otherwise. It keeps nothing of img, which an abort's undo hands in from a
// buffer its descriptor reuses.
func (c *Cache) Restore(oid xid.OID, img []byte) {
	c.put(oid, img, putCopy)
}

// Create inserts a new object under oid. It reports false if the oid is
// already present.
func (c *Cache) Create(oid xid.OID, data []byte) bool {
	_, _, stored := c.put(oid, data, putCreate)
	return stored
}

// putMode is what put does with an occupied slot and with data.
type putMode int8

const (
	putCreate  putMode = iota // leave an occupied slot as it is; keep data
	putReplace                // replace an occupied slot's buffer with data
	putCopy                   // copy data into the slot's buffer, or a new one
)

// put stores data in oid's slot as mode says, making the slot's block if it
// is missing. The cache latch is held in S mode across the slot's X hold,
// so the block cannot leave the directory between the lookup and the
// presence bit's flip.
func (c *Cache) put(oid xid.OID, data []byte, mode putMode) (prev []byte, existed, stored bool) {
	key, slot, bit := blockOf(oid)
	for {
		c.lat.RLock()
		b := c.dir[key]
		if b == nil {
			c.lat.RUnlock()
			c.addBlock(key)
			continue // the new block may be dropped before the S latch is back
		}
		o := &b.objs[slot]
		o.Lat.Lock()
		existed = b.live.Load()&bit != 0
		if existed {
			prev = o.Data()
		} else {
			b.live.Add(bit) // the bit is clear, so the add only sets it
		}
		switch {
		case mode == putCopy && existed && len(prev) == len(data):
			copy(prev, data)
		case mode == putCopy:
			o.SetData(append([]byte(nil), data...))
		case mode == putReplace || !existed:
			o.SetData(data)
		}
		stored = mode != putCreate || !existed
		o.Lat.Unlock()
		c.lat.RUnlock()
		return prev, existed, stored
	}
}

// addBlock makes key's block if the directory has none, and drops the
// empty block last kept at the frontier if the frontier has left it.
func (c *Cache) addBlock(key uint64) {
	c.lat.Lock()
	if c.dir[key] == nil {
		c.dir[key] = new(block)
		if k := c.kept.Load(); k != key {
			c.dropEmptyLocked(k)
		}
	}
	c.lat.Unlock()
}

// dropEmptyLocked removes key's block from the directory if it holds no
// object and is not at the frontier. The caller holds c.lat in X mode.
func (c *Cache) dropEmptyLocked(key uint64) {
	if b := c.dir[key]; b != nil && b.live.Load() == 0 && key != c.frontier() {
		delete(c.dir, key)
	}
}

// Delete removes the object, returning its final contents.
func (c *Cache) Delete(oid xid.OID) ([]byte, bool) {
	key, slot, bit := blockOf(oid)
	c.lat.RLock()
	b := c.dir[key]
	if b == nil {
		c.lat.RUnlock()
		return nil, false
	}
	o := &b.objs[slot]
	o.Lat.Lock()
	if b.live.Load()&bit == 0 {
		o.Lat.Unlock()
		c.lat.RUnlock()
		return nil, false
	}
	data := o.Data()
	o.SetData(nil)
	emptied := b.live.Add(-bit) == 0 // the bit is set, so the add only clears it
	o.Lat.Unlock()
	c.lat.RUnlock()
	if emptied {
		if key == c.frontier() {
			c.kept.Store(key)
		} else {
			c.lat.Lock()
			c.dropEmptyLocked(key)
			c.lat.Unlock()
		}
	}
	return data, true
}

// Len returns the number of cached objects.
func (c *Cache) Len() int {
	c.lat.RLock()
	defer c.lat.RUnlock()
	n := 0
	for _, b := range c.dir {
		n += bits.OnesCount64(b.live.Load())
	}
	return n
}

// ForEach calls fn with a copy of every object's contents, in ascending
// oid order. The copy is valid only until fn returns: the walk copies
// every object into one buffer, so fn copies what it keeps. Objects
// created or deleted during the iteration may or may not be visited; an
// object present throughout is visited once.
func (c *Cache) ForEach(fn func(oid xid.OID, data []byte) bool) {
	type entry struct {
		key uint64
		b   *block
	}
	c.lat.RLock()
	blocks := make([]entry, 0, len(c.dir))
	for key, b := range c.dir {
		blocks = append(blocks, entry{key, b})
	}
	c.lat.RUnlock()
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].key < blocks[j].key })
	var buf []byte
	for _, e := range blocks {
		for live := e.b.live.Load(); live != 0; live &= live - 1 {
			slot := bits.TrailingZeros64(live)
			data, ok := e.b.appendSlot(buf[:0], slot, 1<<slot)
			if !ok {
				continue
			}
			buf = data
			if !fn(xid.OID(e.key*blockSlots+uint64(slot)), data) {
				return
			}
		}
	}
}
