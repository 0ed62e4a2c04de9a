package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/faultfs"
)

// ErrPoisoned marks a store whose backing file is in an indeterminate
// state after a failed write or fsync (on Linux a failed fsync may mark
// dirty pages clean, so retrying can "succeed" without persisting
// anything). A poisoned store refuses all further I/O rather than let a
// later checkpoint silently claim durability.
var ErrPoisoned = errors.New("storage: store poisoned by an earlier write/sync failure")

// pool is a buffer pool of fixed capacity over the store file, with clock
// (second-chance) eviction. Page 0 of the file is the store header; data
// pages start at 1. The pool is not internally synchronized: PageStore
// serializes access.
type pool struct {
	f         faultfs.File
	capacity  int
	frames    map[uint64]*frame
	clock     []*frame
	hand      int
	pageCount uint64 // pages in the file, including header page 0
	dw        *dwJournal
	err       error // sticky ErrPoisoned state
}

// poison records an I/O failure that leaves the on-disk state
// indeterminate; every later pool operation fails with ErrPoisoned. The
// failing call itself returns the original cause.
func (p *pool) poison(cause error) error {
	if p.err == nil {
		p.err = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	}
	return cause
}

type frame struct {
	pageNo uint64
	data   []byte
	dirty  bool
	pins   int
	ref    bool
}

var poolCRC = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum computes the stored page checksum (covering everything but
// the checksum field itself).
func pageChecksum(p []byte) uint32 {
	crc := crc32.Update(0, poolCRC, p[:16])
	return crc32.Update(crc, poolCRC, p[20:])
}

func sealPage(p []byte) {
	binary.LittleEndian.PutUint32(p[16:20], pageChecksum(p))
}

func verifyPage(pageNo uint64, p []byte) error {
	want := binary.LittleEndian.Uint32(p[16:20])
	if got := pageChecksum(p); got != want {
		if isZeroPage(p) {
			return nil // never-written (hole) page: legitimately free
		}
		return fmt.Errorf("storage: page %d checksum mismatch (torn write?)", pageNo)
	}
	return nil
}

func isZeroPage(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

func newPool(f faultfs.File, capacity int, dw *dwJournal) (*pool, error) {
	if capacity < 4 {
		capacity = 4
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		// A torn append: ignore the partial trailing page.
		if err := f.Truncate(st.Size() - st.Size()%PageSize); err != nil {
			return nil, err
		}
		st, err = f.Stat()
		if err != nil {
			return nil, err
		}
	}
	return &pool{
		f:         f,
		capacity:  capacity,
		frames:    make(map[uint64]*frame),
		pageCount: uint64(st.Size() / PageSize),
		dw:        dw,
	}, nil
}

// get pins and returns the frame for pageNo, reading it if absent.
func (p *pool) get(pageNo uint64) (*frame, error) {
	if p.err != nil {
		return nil, p.err
	}
	if fr, ok := p.frames[pageNo]; ok {
		fr.pins++
		fr.ref = true
		return fr, nil
	}
	fr, err := p.newFrame(pageNo)
	if err != nil {
		return nil, err
	}
	spilled := false
	if p.dw != nil {
		if spilled, err = p.dw.read(pageNo, fr.data); err != nil {
			return nil, err
		}
	}
	if !spilled {
		if _, err := p.f.ReadAt(fr.data, int64(pageNo)*PageSize); err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("storage: read page %d: %w", pageNo, err)
		}
	}
	if err := verifyPage(pageNo, fr.data); err != nil {
		return nil, err
	}
	return fr, nil
}

// alloc appends a zeroed page to the file and returns its pinned frame.
func (p *pool) alloc() (*frame, uint64, error) {
	if p.err != nil {
		return nil, 0, p.err
	}
	pageNo := p.pageCount
	p.pageCount++
	fr, err := p.newFrame(pageNo)
	if err != nil {
		return nil, 0, err
	}
	fr.dirty = true
	return fr, pageNo, nil
}

// newFrame makes room (evicting if needed) and installs a pinned zero frame
// for pageNo.
func (p *pool) newFrame(pageNo uint64) (*frame, error) {
	if len(p.clock) >= p.capacity {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	fr := &frame{pageNo: pageNo, data: make([]byte, PageSize), pins: 1, ref: true}
	p.frames[pageNo] = fr
	p.clock = append(p.clock, fr)
	return fr, nil
}

// evictOne runs the clock hand to find an unpinned frame and removes it. A
// dirty frame leaves the pool only through the double-write journal: the
// hand passes dirty frames by, and when it finds no clean one it spills the
// whole unpinned dirty set into the journal as one batch — appended, not
// committed, so the store file changes only at the next flushAll — and
// runs again. Without a journal a dirty victim is written in place.
func (p *pool) evictOne() error {
	ok, err := p.dropOne()
	if !ok && err == nil && p.dw != nil {
		if err = p.spillDirty(); err == nil {
			ok, err = p.dropOne()
		}
	}
	if ok || err != nil {
		return err
	}
	return fmt.Errorf("storage: buffer pool exhausted (%d frames, all pinned)", len(p.clock))
}

// dropOne removes the first frame the clock hand may evict, reporting
// whether it found one.
func (p *pool) dropOne() (bool, error) {
	for sweep := 0; sweep < 2*len(p.clock)+1; sweep++ {
		p.hand %= len(p.clock)
		fr := p.clock[p.hand]
		if fr.pins > 0 || (fr.dirty && p.dw != nil) {
			p.hand++
			continue
		}
		if fr.ref {
			fr.ref = false
			p.hand++
			continue
		}
		if fr.dirty {
			if err := p.writeFrame(fr); err != nil {
				return false, err
			}
		}
		delete(p.frames, fr.pageNo)
		p.clock = append(p.clock[:p.hand], p.clock[p.hand+1:]...)
		return true, nil
	}
	return false, nil
}

// spillDirty seals the unpinned dirty frames and appends them to the
// journal, after which they are clean and may be dropped: a later get reads
// them back from the journal. A failed append poisons the pool.
func (p *pool) spillDirty() error {
	var dirty []*frame
	for _, fr := range p.clock {
		if fr.dirty && fr.pins == 0 {
			sealPage(fr.data)
			dirty = append(dirty, fr)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	if err := p.dw.spill(dirty); err != nil {
		return p.poison(err)
	}
	for _, fr := range dirty {
		fr.dirty = false
	}
	return nil
}

// unpin releases a pin; dirty marks the page modified.
func (p *pool) unpin(fr *frame, dirty bool) {
	if fr.pins <= 0 {
		panic("storage: unpin of unpinned frame")
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

// writeFrame seals and writes one page in place, for a store without a
// double-write journal. A failed in-place write poisons the pool: the page
// may be half-written on disk.
func (p *pool) writeFrame(fr *frame) error {
	sealPage(fr.data)
	if _, err := p.f.WriteAt(fr.data, int64(fr.pageNo)*PageSize); err != nil {
		return p.poison(fmt.Errorf("storage: write page %d: %w", fr.pageNo, err))
	}
	fr.dirty = false
	return nil
}

// flushAll makes every change since the last flush durable and fsyncs the
// store file. With the double-write journal the changes are one batch: the
// dirty frames join the pages eviction spilled, the marker and an fsync
// commit the journal, and only then is every image written in place. Any
// failure poisons the pool: the flushed frames are already marked clean, so
// without the sticky error a retry would find nothing dirty and "succeed"
// even though the failed fsync persisted nothing.
func (p *pool) flushAll() error {
	if p.err != nil {
		return p.err
	}
	var dirty []*frame
	for _, fr := range p.frames {
		if fr.dirty {
			sealPage(fr.data)
			dirty = append(dirty, fr)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].pageNo < dirty[j].pageNo })
	if p.dw == nil {
		for _, fr := range dirty {
			if err := p.writeFrame(fr); err != nil {
				return err
			}
		}
	} else if len(dirty) > 0 || p.dw.n > 0 {
		if err := p.dw.capture(dirty); err != nil {
			return p.poison(err)
		}
		// apply fsyncs the store.
		if err := p.dw.apply(p.f, p.dw.n); err != nil {
			return p.poison(err)
		}
		for _, fr := range dirty {
			fr.dirty = false
		}
		if err := p.dw.clear(); err != nil {
			return p.poison(err)
		}
		return nil
	}
	if err := p.f.Sync(); err != nil {
		return p.poison(err)
	}
	return nil
}
