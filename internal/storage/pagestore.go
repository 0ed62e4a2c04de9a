package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// PageStore is a persistent object store over slotted pages. It maps OIDs to
// variable-length byte records; records larger than a page spill into blob
// page chains. All access is serialized by one store mutex (the store is the
// checkpoint backend, not the concurrency hot path — the shared cache is).
type PageStore struct {
	mu        sync.Mutex
	f         faultfs.File
	pool      *pool
	dw        *dwJournal
	dir       map[xid.OID]dirEntry
	freeSpace map[uint64]int // data page -> free bytes after compaction
	freePages []uint64       // reusable (freed blob) pages
	hintPage  uint64         // last page that had room
	ckptLSN   uint64         // the header's checkpoint stamp (SyncThrough)
	closed    bool
}

type dirEntry struct {
	page uint64
	slot int
}

// PageStoreOptions configures OpenPageStore.
type PageStoreOptions struct {
	// PoolPages is the buffer pool capacity in pages (default 256).
	PoolPages int
	// NoDoubleWrite disables the torn-write journal (benchmarks only).
	NoDoubleWrite bool
	// FS, when non-nil, replaces the OS filesystem (fault injection and
	// crash simulation).
	FS faultfs.FS
}

// The header page holds the store magic and, behind it, the checkpoint
// stamp: the LSN of the last log record the store reflects (0: none).
var storeMagic = []byte("ASSETPG1")

const headerLSNOff = pageHeaderSize + 8

// OpenPageStore opens or creates the store rooted at dir, replaying any
// pending double-write journal first.
func OpenPageStore(dir string, opts PageStoreOptions) (*PageStore, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "store.dat")
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	var dw *dwJournal
	if !opts.NoDoubleWrite {
		dw, err = openDWJournal(fsys, filepath.Join(dir, "store.dw"))
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	// store.dat / store.dw may have just been created; their directory
	// entries must be durable before any page or journal write is relied
	// upon, or a crash can lose the files entirely.
	if err := fsys.SyncDir(dir); err != nil {
		if dw != nil {
			dw.close()
		}
		f.Close()
		return nil, err
	}
	if dw != nil {
		if err := dw.replay(f); err != nil {
			dw.close()
			f.Close()
			return nil, err
		}
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 256
	}
	pl, err := newPool(f, opts.PoolPages, dw)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &PageStore{
		f:         f,
		pool:      pl,
		dw:        dw,
		dir:       make(map[xid.OID]dirEntry),
		freeSpace: make(map[uint64]int),
	}
	if pl.pageCount == 0 {
		// Fresh store: write the header page.
		fr, pageNo, err := pl.alloc()
		if err != nil {
			return nil, err
		}
		if pageNo != 0 {
			return nil, fmt.Errorf("storage: header page allocated at %d", pageNo)
		}
		setPageType(fr.data, 3) // header
		copy(fr.data[pageHeaderSize:], storeMagic)
		pl.unpin(fr, true)
		if err := pl.flushAll(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.scan(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// scan rebuilds the directory, free-space map, and free-page list from the
// on-disk pages.
func (s *PageStore) scan() error {
	// Verify the header.
	hdr, err := s.pool.get(0)
	if err != nil {
		return err
	}
	magicOK := string(hdr.data[pageHeaderSize:pageHeaderSize+len(storeMagic)]) == string(storeMagic)
	s.ckptLSN = binary.LittleEndian.Uint64(hdr.data[headerLSNOff:])
	s.pool.unpin(hdr, false)
	if !magicOK {
		return fmt.Errorf("storage: bad store magic")
	}
	blobUsed := make(map[uint64]bool)
	var blobRefs []uint64
	for pageNo := uint64(1); pageNo < s.pool.pageCount; pageNo++ {
		fr, err := s.pool.get(pageNo)
		if err != nil {
			return err
		}
		switch pageType(fr.data) {
		case pageTypeData:
			if err := pageCheck(pageNo, fr.data); err != nil {
				s.pool.unpin(fr, false)
				return err
			}
			n := pageNSlots(fr.data)
			for i := 0; i < n; i++ {
				sl := getSlot(fr.data, i)
				if sl.flags == slotDead {
					continue
				}
				if _, dup := s.dir[sl.oid]; dup {
					s.pool.unpin(fr, false)
					return fmt.Errorf("storage: duplicate oid %v on page %d", sl.oid, pageNo)
				}
				s.dir[sl.oid] = dirEntry{page: pageNo, slot: i}
				if sl.flags == slotBlobRef {
					rec := fr.data[sl.off : int(sl.off)+int(sl.len)]
					blobRefs = append(blobRefs, binary.LittleEndian.Uint64(rec[0:8]))
				}
			}
			s.freeSpace[pageNo] = pageFreeAfterCompaction(fr.data)
		case pageTypeBlob:
			// Ownership resolved after the scan.
		default:
			s.freePages = append(s.freePages, pageNo)
		}
		s.pool.unpin(fr, false)
	}
	// Walk blob chains from live refs; unreferenced blob pages are free.
	for _, first := range blobRefs {
		for pageNo := first; pageNo != 0; {
			blobUsed[pageNo] = true
			fr, err := s.pool.get(pageNo)
			if err != nil {
				return err
			}
			next := pageNext(fr.data)
			s.pool.unpin(fr, false)
			pageNo = next
		}
	}
	for pageNo := uint64(1); pageNo < s.pool.pageCount; pageNo++ {
		if _, isData := s.freeSpace[pageNo]; isData {
			continue
		}
		if !blobUsed[pageNo] {
			already := false
			for _, p := range s.freePages {
				if p == pageNo {
					already = true
					break
				}
			}
			if !already {
				s.freePages = append(s.freePages, pageNo)
			}
		}
	}
	return nil
}

// Get returns a copy of the record stored under oid.
func (s *PageStore) Get(oid xid.OID) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.dir[oid]
	if !ok {
		return nil, false, nil
	}
	fr, err := s.pool.get(e.page)
	if err != nil {
		return nil, false, err
	}
	sl := getSlot(fr.data, e.slot)
	rec := fr.data[sl.off : int(sl.off)+int(sl.len)]
	if sl.flags == slotBlobRef {
		first := binary.LittleEndian.Uint64(rec[0:8])
		total := binary.LittleEndian.Uint32(rec[8:12])
		s.pool.unpin(fr, false)
		data, err := s.readBlob(first, int(total))
		return data, err == nil, err
	}
	out := make([]byte, sl.len)
	copy(out, rec)
	s.pool.unpin(fr, false)
	return out, true, nil
}

// Put inserts or replaces the record under oid.
func (s *PageStore) Put(oid xid.OID, data []byte) error {
	if oid.IsNil() {
		return fmt.Errorf("storage: Put with null oid")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.dir[oid]; ok {
		// In-place overwrite when the new record is inline and fits in the
		// old slot.
		fr, err := s.pool.get(e.page)
		if err != nil {
			return err
		}
		sl := getSlot(fr.data, e.slot)
		if sl.flags == slotLive && len(data) <= int(sl.len) && len(data) <= maxInline {
			copy(fr.data[sl.off:], data)
			// Zero the tail of the old record so checksums stay clean.
			for i := int(sl.off) + len(data); i < int(sl.off)+int(sl.len); i++ {
				fr.data[i] = 0
			}
			old := int(sl.len)
			sl.len = uint16(len(data))
			putSlot(fr.data, e.slot, sl)
			s.freeSpace[e.page] += old - len(data)
			s.pool.unpin(fr, true)
			return nil
		}
		s.pool.unpin(fr, false)
		if err := s.deleteLocked(oid); err != nil {
			return err
		}
	}
	return s.insertLocked(oid, data)
}

// Delete removes the record under oid, reporting whether it existed.
func (s *PageStore) Delete(oid xid.OID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dir[oid]; !ok {
		return false, nil
	}
	return true, s.deleteLocked(oid)
}

func (s *PageStore) deleteLocked(oid xid.OID) error {
	e := s.dir[oid]
	fr, err := s.pool.get(e.page)
	if err != nil {
		return err
	}
	sl := getSlot(fr.data, e.slot)
	if sl.flags == slotBlobRef {
		rec := fr.data[sl.off : int(sl.off)+int(sl.len)]
		first := binary.LittleEndian.Uint64(rec[0:8])
		if err := s.freeBlob(first); err != nil {
			s.pool.unpin(fr, false)
			return err
		}
	}
	sl.flags = slotDead
	putSlot(fr.data, e.slot, sl)
	s.freeSpace[e.page] = pageFreeAfterCompaction(fr.data)
	s.pool.unpin(fr, true)
	delete(s.dir, oid)
	return nil
}

func (s *PageStore) insertLocked(oid xid.OID, data []byte) error {
	rec := data
	flags := uint16(slotLive)
	if len(data) > maxInline {
		first, err := s.writeBlob(data)
		if err != nil {
			return err
		}
		ref := make([]byte, blobRefSize)
		binary.LittleEndian.PutUint64(ref[0:8], first)
		binary.LittleEndian.PutUint32(ref[8:12], uint32(len(data)))
		rec = ref
		flags = slotBlobRef
	}
	need := slotSize + len(rec)
	pageNo, fr, err := s.findDataPage(need)
	if err != nil {
		return err
	}
	if pageContigFree(fr.data) < need {
		moved := compactPage(fr.data)
		for movedOID, idx := range moved {
			s.dir[movedOID] = dirEntry{page: pageNo, slot: idx}
		}
	}
	// Reuse a dead slot if one exists; otherwise append one.
	slotIdx := -1
	n := pageNSlots(fr.data)
	for i := 0; i < n; i++ {
		if getSlot(fr.data, i).flags == slotDead {
			slotIdx = i
			break
		}
	}
	if slotIdx == -1 {
		slotIdx = n
		setPageNSlots(fr.data, n+1)
	}
	off := pageFreeOff(fr.data) - len(rec)
	copy(fr.data[off:], rec)
	setPageFreeOff(fr.data, off)
	putSlot(fr.data, slotIdx, slot{oid: oid, off: uint16(off), len: uint16(len(rec)), flags: flags})
	s.freeSpace[pageNo] = pageFreeAfterCompaction(fr.data)
	s.hintPage = pageNo
	s.pool.unpin(fr, true)
	s.dir[oid] = dirEntry{page: pageNo, slot: slotIdx}
	return nil
}

// findDataPage returns a pinned data page with at least need bytes free
// after compaction, allocating a fresh one if necessary.
func (s *PageStore) findDataPage(need int) (uint64, *frame, error) {
	if free, ok := s.freeSpace[s.hintPage]; ok && free >= need {
		fr, err := s.pool.get(s.hintPage)
		if err != nil {
			return 0, nil, err
		}
		return s.hintPage, fr, nil
	}
	for pageNo, free := range s.freeSpace {
		if free >= need {
			fr, err := s.pool.get(pageNo)
			if err != nil {
				return 0, nil, err
			}
			return pageNo, fr, nil
		}
	}
	// Reuse a free page as a data page, or append.
	if len(s.freePages) > 0 {
		pageNo := s.freePages[len(s.freePages)-1]
		s.freePages = s.freePages[:len(s.freePages)-1]
		fr, err := s.pool.get(pageNo)
		if err != nil {
			return 0, nil, err
		}
		initDataPage(fr.data)
		fr.dirty = true
		s.freeSpace[pageNo] = pageFreeAfterCompaction(fr.data)
		return pageNo, fr, nil
	}
	fr, pageNo, err := s.pool.alloc()
	if err != nil {
		return 0, nil, err
	}
	initDataPage(fr.data)
	s.freeSpace[pageNo] = pageFreeAfterCompaction(fr.data)
	return pageNo, fr, nil
}

// writeBlob stores data across a chain of blob pages, returning the first
// page number.
func (s *PageStore) writeBlob(data []byte) (uint64, error) {
	var first uint64
	var prevFrame *frame
	for off := 0; off < len(data); off += blobChunkSize {
		end := off + blobChunkSize
		if end > len(data) {
			end = len(data)
		}
		fr, pageNo, err := s.allocBlobPage()
		if err != nil {
			if prevFrame != nil {
				s.pool.unpin(prevFrame, true)
			}
			return 0, err
		}
		setBlobChunkLen(fr.data, end-off)
		copy(fr.data[pageHeaderSize:], data[off:end])
		if first == 0 {
			first = pageNo
		}
		if prevFrame != nil {
			setPageNext(prevFrame.data, pageNo)
			s.pool.unpin(prevFrame, true)
		}
		prevFrame = fr
	}
	if prevFrame != nil {
		s.pool.unpin(prevFrame, true)
	}
	return first, nil
}

func (s *PageStore) allocBlobPage() (*frame, uint64, error) {
	if len(s.freePages) > 0 {
		pageNo := s.freePages[len(s.freePages)-1]
		s.freePages = s.freePages[:len(s.freePages)-1]
		fr, err := s.pool.get(pageNo)
		if err != nil {
			return nil, 0, err
		}
		initBlobPage(fr.data)
		fr.dirty = true
		return fr, pageNo, nil
	}
	fr, pageNo, err := s.pool.alloc()
	if err != nil {
		return nil, 0, err
	}
	initBlobPage(fr.data)
	return fr, pageNo, nil
}

func (s *PageStore) readBlob(first uint64, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	for pageNo := first; pageNo != 0; {
		fr, err := s.pool.get(pageNo)
		if err != nil {
			return nil, err
		}
		n := blobChunkLen(fr.data)
		out = append(out, fr.data[pageHeaderSize:pageHeaderSize+n]...)
		next := pageNext(fr.data)
		s.pool.unpin(fr, false)
		pageNo = next
	}
	if len(out) != total {
		return nil, fmt.Errorf("storage: blob chain length %d, want %d", len(out), total)
	}
	return out, nil
}

func (s *PageStore) freeBlob(first uint64) error {
	for pageNo := first; pageNo != 0; {
		fr, err := s.pool.get(pageNo)
		if err != nil {
			return err
		}
		next := pageNext(fr.data)
		for i := range fr.data {
			fr.data[i] = 0
		}
		s.pool.unpin(fr, true)
		s.freePages = append(s.freePages, pageNo)
		pageNo = next
	}
	return nil
}

// Len returns the number of stored records.
func (s *PageStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dir)
}

// ForEach calls fn for every record. The iteration order is unspecified.
func (s *PageStore) ForEach(fn func(oid xid.OID, data []byte) error) error {
	s.mu.Lock()
	oids := make([]xid.OID, 0, len(s.dir))
	for oid := range s.dir {
		oids = append(oids, oid)
	}
	s.mu.Unlock()
	for _, oid := range oids {
		data, ok, err := s.Get(oid)
		if err != nil {
			return err
		}
		if !ok {
			continue // deleted concurrently
		}
		if err := fn(oid, data); err != nil {
			return err
		}
	}
	return nil
}

// Sync makes all buffered changes durable, as one double-write protected
// batch.
func (s *PageStore) Sync() error { return s.SyncThrough(0) }

// SyncThrough is Sync that also stamps the store as reflecting every log
// record at or below lsn (a stamp never moves back). The stamp is written
// to the header page inside the same journaled batch as the pages it
// describes, so a crash leaves the store with both or with neither.
func (s *PageStore) SyncThrough(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.ckptLSN {
		hdr, err := s.pool.get(0)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(hdr.data[headerLSNOff:], lsn)
		s.pool.unpin(hdr, true)
	}
	if err := s.pool.flushAll(); err != nil {
		return err
	}
	s.ckptLSN = max(s.ckptLSN, lsn)
	return nil
}

// CheckpointLSN returns the store's checkpoint stamp: the LSN through which
// it reflects the log (0 for a store never stamped).
func (s *PageStore) CheckpointLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptLSN
}

// Close syncs and closes the store.
func (s *PageStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.pool.flushAll()
	if s.dw != nil {
		if cerr := s.dw.close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
