package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/faultfs"
)

// dwJournal is a double-write journal: dirty pages reach the store file
// only through it. Their full images are appended to a side file — by the
// buffer pool's eviction, when it must drop a dirty frame (spill), and by a
// flush for the dirty frames still in the pool — and a commit marker plus
// an fsync seal the batch before the first in-place write. A crash before
// the marker is durable leaves the store file untouched; a crash after it
// leaves intact images to replay. The journal is emptied once the in-place
// writes are durable. So a flush is all-or-nothing however many pages it
// covers and however many of them the pool had to let go of on the way.
//
// Journal format: repeated [pageNo u64][PageSize bytes], followed by a
// commit marker [^uint64(0)][count u64]. Without a valid trailing marker the
// journal is ignored. A page spilled more than once appears more than once;
// replay applies the images in journal order, so its latest one wins.
type dwJournal struct {
	f   faultfs.File
	n   uint64           // page images appended since the last clear
	at  map[uint64]int64 // spilled page -> offset of its latest image
	ent []byte           // one entry's bytes, for a single write or read
}

const (
	dwMarker = ^uint64(0)
	dwEntry  = 8 + PageSize
)

func openDWJournal(fsys faultfs.FS, path string) (*dwJournal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open double-write journal: %w", err)
	}
	return &dwJournal{f: f}, nil
}

// spill appends the images of frames the pool is about to drop, which later
// reads find here (read) until the journal is cleared. Nothing is synced:
// until a marker follows, the images are the pool's spill space only.
func (j *dwJournal) spill(frames []*frame) error {
	if j.at == nil {
		j.at = make(map[uint64]int64)
	}
	for _, fr := range frames {
		j.at[fr.pageNo] = int64(j.n)*dwEntry + 8
		if err := j.append(fr); err != nil {
			return err
		}
	}
	return nil
}

// read fills buf with the latest spilled image of pageNo, reporting false
// when the page was not spilled.
func (j *dwJournal) read(pageNo uint64, buf []byte) (bool, error) {
	off, ok := j.at[pageNo]
	if !ok {
		return false, nil
	}
	if _, err := j.f.ReadAt(buf, off); err != nil {
		return false, fmt.Errorf("storage: read spilled page %d: %w", pageNo, err)
	}
	return true, nil
}

// capture appends the images of frames behind whatever was spilled, then
// the commit marker, and fsyncs: from here on the batch survives a crash.
func (j *dwJournal) capture(frames []*frame) error {
	for _, fr := range frames {
		if err := j.append(fr); err != nil {
			return err
		}
	}
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[0:8], dwMarker)
	binary.LittleEndian.PutUint64(tail[8:16], j.n)
	if _, err := j.f.Write(tail[:]); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *dwJournal) append(fr *frame) error {
	ent := j.entry()
	binary.LittleEndian.PutUint64(ent, fr.pageNo)
	copy(ent[8:], fr.data)
	if _, err := j.f.Write(ent); err != nil {
		return err
	}
	j.n++
	return nil
}

func (j *dwJournal) entry() []byte {
	if j.ent == nil {
		j.ent = make([]byte, dwEntry)
	}
	return j.ent
}

// apply writes the journal's first count page images to store in journal
// order and fsyncs it. A failed store write leaves the page indeterminate.
func (j *dwJournal) apply(store faultfs.File, count uint64) error {
	ent := j.entry()
	for i := uint64(0); i < count; i++ {
		if _, err := j.f.ReadAt(ent, int64(i)*dwEntry); err != nil {
			return err
		}
		pageNo, page := binary.LittleEndian.Uint64(ent), ent[8:]
		if err := verifyPage(pageNo, page); err != nil {
			return err // journal itself torn mid-page: should not happen past the marker check
		}
		if _, err := store.WriteAt(page, int64(pageNo)*PageSize); err != nil {
			return fmt.Errorf("storage: write page %d: %w", pageNo, err)
		}
	}
	return store.Sync()
}

// clear empties the journal after the in-place writes are durable, or
// drops an uncommitted one.
func (j *dwJournal) clear() error {
	j.n, j.at = 0, nil
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return j.f.Sync()
}

// replay applies a complete journal (if any) to the store file and clears
// it. Called at open, before anything reads the store.
func (j *dwJournal) replay(store faultfs.File) error {
	st, err := j.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	if size < 16 {
		return j.clear() // incomplete capture: store is untouched
	}
	var tail [16]byte
	if _, err := j.f.ReadAt(tail[:], size-16); err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(tail[0:8]) != dwMarker {
		return j.clear() // incomplete capture: store is untouched
	}
	count := binary.LittleEndian.Uint64(tail[8:16])
	if int64(count)*dwEntry+16 != size {
		return j.clear() // malformed: ignore
	}
	if err := j.apply(store, count); err != nil {
		return err
	}
	return j.clear()
}

func (j *dwJournal) close() error { return j.f.Close() }
