package storage

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/race"
	"repro/internal/xid"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache()
	oid := c.AllocOID()
	if oid.IsNil() {
		t.Fatal("AllocOID returned nil oid")
	}
	if !c.Create(oid, []byte("a")) {
		t.Fatal("Create failed")
	}
	if c.Create(oid, []byte("b")) {
		t.Fatal("duplicate Create succeeded")
	}
	got, ok := c.Read(oid)
	if !ok || string(got) != "a" {
		t.Fatalf("Read = %q,%v", got, ok)
	}
	prev, existed := c.Install(oid, []byte("c"))
	if !existed || string(prev) != "a" {
		t.Fatalf("Install prev = %q,%v", prev, existed)
	}
	data, ok := c.Delete(oid)
	if !ok || string(data) != "c" {
		t.Fatalf("Delete = %q,%v", data, ok)
	}
	if _, ok := c.Read(oid); ok {
		t.Fatal("Read after Delete succeeded")
	}
}

func TestCacheReadReturnsCopy(t *testing.T) {
	c := NewCache()
	c.Create(1, []byte("abc"))
	got, _ := c.Read(1)
	got[0] = 'X'
	again, _ := c.Read(1)
	if string(again) != "abc" {
		t.Fatal("Read exposed the internal buffer")
	}
}

func TestCacheObjectLatchedWrite(t *testing.T) {
	c := NewCache()
	c.Create(1, []byte{0})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o := c.Object(1)
				o.Lat.Lock()
				d := o.Data()
				cp := make([]byte, len(d))
				copy(cp, d)
				cp[0]++
				o.SetData(cp)
				o.Lat.Unlock()
			}
		}()
	}
	wg.Wait()
	got, _ := c.Read(1)
	if got[0] != byte(8*1000%256) {
		t.Fatalf("counter = %d, want %d (lost update under latch)", got[0], byte(8*1000%256))
	}
}

func TestCacheAllocAfterSetNextOID(t *testing.T) {
	c := NewCache()
	c.SetNextOID(100)
	if oid := c.AllocOID(); oid != 101 {
		t.Fatalf("AllocOID after SetNextOID(100) = %v, want ob101", oid)
	}
	c.SetNextOID(50) // must not regress
	if oid := c.AllocOID(); oid != 102 {
		t.Fatalf("AllocOID = %v, want ob102", oid)
	}
}

func TestCacheForEach(t *testing.T) {
	c := NewCache()
	for i := 100; i >= 1; i-- {
		c.Create(xid.OID(i), []byte{byte(i)})
	}
	n := 0
	c.ForEach(func(oid xid.OID, data []byte) bool {
		if data[0] != byte(oid) {
			t.Errorf("oid %v has data %v", oid, data)
		}
		n++
		if oid != xid.OID(n) {
			t.Errorf("visit %d is oid %v, want ascending oid order", n, oid)
		}
		return true
	})
	if n != 100 {
		t.Fatalf("ForEach visited %d, want 100", n)
	}

	// Creates and deletes during the walk: an object present throughout is
	// visited once with its own contents; one deleted or created during the
	// walk may or may not be; nothing is visited twice. The deletes empty
	// whole blocks, which leave the directory under the walk.
	const old, fresh = 400, 800
	c = NewCache()
	for i := 1; i <= old; i++ {
		c.Create(xid.OID(i), []byte{byte(i)})
	}
	doomed := func(oid xid.OID) bool { return oid%3 == 0 || (oid >= 2*blockSlots && oid < 5*blockSlots) }
	seen := make(map[xid.OID]int)
	first, deleted := true, 0
	c.ForEach(func(oid xid.OID, data []byte) bool {
		if first {
			first = false
			for i := 1; i <= old; i++ {
				if doomed(xid.OID(i)) {
					c.Delete(xid.OID(i))
					deleted++
				}
			}
			for i := old + 1; i <= fresh; i++ {
				c.Create(xid.OID(i), []byte{byte(i)})
			}
		}
		if len(data) != 1 || data[0] != byte(oid) {
			t.Errorf("oid %v has data %v", oid, data)
		}
		seen[oid]++
		return true
	})
	for oid, k := range seen {
		if k != 1 {
			t.Errorf("oid %v visited %d times", oid, k)
		}
		if oid < 1 || oid > fresh {
			t.Errorf("visited oid %v, which was never created", oid)
		}
	}
	for i := 1; i <= old; i++ {
		if oid := xid.OID(i); !doomed(oid) && seen[oid] != 1 {
			t.Errorf("oid %v, present throughout, visited %d times", oid, seen[oid])
		}
	}
	if want := fresh - deleted; c.Len() != want {
		t.Errorf("Len after the walk = %d, want %d", c.Len(), want)
	}

	// A walk stops when fn says so.
	n = 0
	c.ForEach(func(xid.OID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("ForEach went on for %d calls after fn returned false at 5", n)
	}
}

// TestCacheEmptiedBlockLeaves: a block whose last object is deleted leaves
// the directory, except at the allocator's frontier, where it stays until
// the next block is made past it.
func TestCacheEmptiedBlockLeaves(t *testing.T) {
	c := NewCache()
	oid := xid.OID(3*blockSlots + 4)
	c.Create(oid, []byte("x"))
	c.Create(oid+1, []byte("y"))
	c.Delete(oid)
	if len(c.dir) != 1 {
		t.Fatalf("directory holds %d blocks with one object left, want 1", len(c.dir))
	}
	c.Delete(oid + 1)
	if len(c.dir) != 0 {
		t.Fatalf("directory holds %d blocks after its only block emptied, want 0", len(c.dir))
	}

	// At the frontier the emptied block stays, and goes when the frontier
	// has moved on and the next block is made.
	oid = c.AllocOID()
	c.Create(oid, []byte("x"))
	c.Delete(oid)
	if len(c.dir) != 1 {
		t.Fatalf("directory holds %d blocks after the frontier block emptied, want 1 (kept)", len(c.dir))
	}
	c.SetNextOID(blockSlots)
	next := c.AllocOID()
	c.Create(next, []byte("y"))
	if _, ok := c.dir[uint64(oid)/blockSlots]; ok || len(c.dir) != 1 {
		t.Fatalf("directory holds %d blocks, the old frontier's among them: %v", len(c.dir), ok)
	}

	// Creates rolled back as the frontier moves leave no empty blocks
	// behind it.
	for i := 0; i < 20*blockSlots; i++ {
		oid := c.AllocOID()
		c.Create(oid, []byte("z"))
		c.Delete(oid)
	}
	if len(c.dir) != 2 {
		t.Errorf("directory holds %d blocks, want 2: the object's and the frontier's", len(c.dir))
	}
}

// TestCacheReadRacesDeleteAndRecreate: readers copying one oid while a
// writer deletes and re-creates it, and a neighbour creates and deletes
// the other slots of its block (so the block leaves the directory and comes
// back), see "not found" or one whole image a writer installed, never an
// empty, torn or foreign one.
func TestCacheReadRacesDeleteAndRecreate(t *testing.T) {
	const size, cycles = 64, 3000
	c := NewCache()
	oid := xid.OID(2*blockSlots + 7)
	image := func(gen int) []byte { return bytes.Repeat([]byte{byte(1 + gen%255)}, size) }
	c.Create(oid, image(0))

	stop := make(chan struct{})
	var readers, others sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				var ok bool
				buf, ok = c.AppendRead(buf[:0], oid)
				if !ok {
					continue
				}
				if len(buf) != size || buf[0] == 0 || !bytes.Equal(buf, bytes.Repeat(buf[:1], size)) {
					t.Errorf("read an image no writer installed: %v", buf)
					return
				}
				if d, ok := c.AppendRead(buf[size:], oid+1); ok && string(d) != "n" {
					t.Errorf("neighbour's slot holds %q", d)
				}
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		base := xid.OID(2 * blockSlots)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := base + xid.OID(i%blockSlots)
			if n == oid {
				continue
			}
			c.Create(n, []byte("n"))
			c.Delete(n)
		}
	}()
	for gen := 1; gen <= cycles; gen++ {
		if _, ok := c.Delete(oid); !ok {
			t.Fatalf("cycle %d: Delete found no object", gen)
		}
		if gen%2 == 0 {
			if !c.Create(oid, image(gen)) {
				t.Fatalf("cycle %d: Create found the deleted oid present", gen)
			}
		} else if _, existed := c.Install(oid, image(gen)); existed {
			t.Fatalf("cycle %d: Install found the deleted oid present", gen)
		}
	}
	close(stop)
	readers.Wait()
	others.Wait()
	if got, ok := c.Read(oid); !ok || !bytes.Equal(got, image(cycles)) {
		t.Fatalf("final image = %v,%v, want the last one installed", got, ok)
	}
}

// TestCacheFootprint pins what the cache costs per object beyond its
// payload: a dense run of oids fills whole blocks, about 17 B per object;
// every other oid (a node of a two-way hash-partitioned layout) fills half
// of each, about 33 B; an isolated oid costs its whole block, about 1 KB.
func TestCacheFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	payload := make([]byte, 16) // shared by every object, so none of it counts
	perObject := func(oids func(yield func(xid.OID))) float64 {
		before := live()
		c := NewCache()
		n := 0
		oids(func(oid xid.OID) {
			c.Create(oid, payload)
			n++
		})
		grown := live() - before
		runtime.KeepAlive(c)
		return float64(grown) / float64(n)
	}
	dense := perObject(func(yield func(xid.OID)) {
		for i := 1; i <= 262_144; i++ {
			yield(xid.OID(i))
		}
		for i := 0; i < 65_536; i++ {
			yield(xid.OID(2<<20 + i))
		}
	})
	alternate := perObject(func(yield func(xid.OID)) {
		for i := 1; i <= 2*262_144; i += 2 {
			yield(xid.OID(i))
		}
	})
	sparse := perObject(func(yield func(xid.OID)) {
		for i := 1; i <= 4096; i++ {
			yield(xid.OID(i * 100))
		}
	})
	t.Logf("dense oids: %.1f B per object; every other oid: %.1f B; one object per block: %.0f B", dense, alternate, sparse)
	if dense > 17 {
		t.Errorf("dense oids cost %.1f B per object beyond payload, want at most 17", dense)
	}
	if alternate > 34 {
		t.Errorf("every other oid costs %.1f B per object beyond payload, want at most 34", alternate)
	}
	if sparse > 1.1*1024 {
		t.Errorf("an isolated oid costs %.0f B, want at most 1.1 KB", sparse)
	}
}

// TestCacheSlotSize: a slot is a latch word, a length and a pointer, and a
// block of them with its presence word fits the 1,024-B size class.
func TestCacheSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 16 {
		t.Errorf("Object is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(block{}); got > 1024 {
		t.Errorf("block is %d bytes, want at most 1,024", got)
	}
}

// TestCacheSlotKeepsDataAlive: a slot's pointer is all that holds the
// buffer it was given, and it keeps the buffer alive and intact through
// collections that reuse the memory of everything dropped around it. An
// empty object is present, not missing, through every operation.
func TestCacheSlotKeepsDataAlive(t *testing.T) {
	const objects = 500
	image := func(oid xid.OID) []byte {
		b := make([]byte, 1+int(oid)%97)
		for i := range b {
			b[i] = byte(int(oid)*7 + i)
		}
		return b
	}
	c := NewCache()
	for oid := xid.OID(1); oid <= objects; oid++ {
		data := image(oid)
		if oid%2 == 0 {
			data = append(make([]byte, 0, 2*len(data)), data...) // spare capacity
		}
		if oid%3 == 0 {
			c.Install(oid, data)
		} else {
			c.Create(oid, data)
		}
	}
	var garbage [][]byte
	for round := 0; round < 4; round++ {
		for i := 0; i < 20_000; i++ {
			garbage = append(garbage, bytes.Repeat([]byte{0xee}, 1+i%97))
			if len(garbage) > 1000 {
				garbage = garbage[:0]
			}
		}
		runtime.GC()
	}
	runtime.KeepAlive(garbage)
	for oid := xid.OID(1); oid <= objects; oid++ {
		if got, ok := c.Read(oid); !ok || !bytes.Equal(got, image(oid)) {
			t.Fatalf("oid %v reads %v,%v after collections, want %v", oid, got, ok, image(oid))
		}
	}

	const empty = xid.OID(objects + 1)
	if got, ok := c.Read(empty); ok {
		t.Fatalf("missing oid reads %v,%v", got, ok)
	}
	if !c.Create(empty, []byte{}) {
		t.Fatal("Create of an empty object failed")
	}
	if c.Create(empty, []byte("x")) {
		t.Fatal("Create over a present empty object succeeded")
	}
	if got, ok := c.Read(empty); !ok || len(got) != 0 {
		t.Fatalf("empty object reads %v,%v, want present and empty", got, ok)
	}
	if prev, existed := c.Install(empty, nil); !existed || len(prev) != 0 {
		t.Fatalf("Install over the empty object = %v,%v, want present and empty", prev, existed)
	}
	if got, ok := c.Read(empty); !ok || len(got) != 0 {
		t.Fatalf("empty object reads %v,%v after Install, want present and empty", got, ok)
	}
	if data, ok := c.Delete(empty); !ok || len(data) != 0 {
		t.Fatalf("Delete of the empty object = %v,%v, want present and empty", data, ok)
	}
	if got, ok := c.Read(empty); ok {
		t.Fatalf("deleted empty object reads %v,%v, want missing", got, ok)
	}
	if _, ok := c.Delete(empty); ok {
		t.Fatal("second Delete of the empty object found it")
	}
	if c.Len() != objects {
		t.Fatalf("Len = %d, want %d", c.Len(), objects)
	}
}
