package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// Appender is the write side of a log. Append assigns LSNs in strictly
// increasing order; Flush forces everything appended so far to stable
// storage (the commit protocol calls it before declaring a commit durable).
//
// Append encodes what it needs of r before it returns and keeps neither r
// nor the slices r points to: the caller may reuse the record, and the
// images it carries, as soon as the call is over.
type Appender interface {
	Append(r *Record) (lsn uint64, err error)
	Flush() error
	Close() error
}

// Frame layout on disk: [payloadLen u32][crc u32][lsn u64][payload].
// The crc covers lsn+payload. A short or corrupt frame marks the torn tail
// of the log; scanning stops there.
const frameHeader = 4 + 4 + 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrPoisoned marks a log handle on which a write, buffer drain, or
// fsync has failed. The on-disk suffix of such a log is indeterminate —
// on Linux a failed fsync may mark dirty pages clean, so a retried sync
// can "succeed" without persisting anything — so the handle refuses all
// further appends and flushes rather than let a later commit silently
// claim durability over a hole.
var ErrPoisoned = errors.New("wal: log poisoned by an earlier write/sync failure")

// errAppendClosed is a package sentinel so the Append fast path's
// closed-log check stays allocation-free (//asset:noalloc).
var errAppendClosed = errors.New("wal: append to closed log")

// FileLog is a durable log backed by a single append-only file.
type FileLog struct {
	mu      sync.Mutex
	f       faultfs.File
	w       *bufio.Writer
	nextLSN uint64
	sync    bool // fsync on Flush
	dirty   bool
	err     error  // sticky ErrPoisoned state
	frame   []byte // the frame Append builds, reused by the next one
}

// OpenFile opens (creating if needed) the log at path and positions appends
// after the last intact record. When syncOnFlush is true, Flush issues an
// fsync, making commits crash-durable; when false, Flush only drains
// buffers (fast mode for benchmarks).
func OpenFile(path string, syncOnFlush bool) (*FileLog, error) {
	return OpenFileFS(faultfs.OS{}, path, syncOnFlush)
}

// OpenFileFS is OpenFile over an injected filesystem (fault injection
// and crash simulation use it; production code uses OpenFile).
func OpenFileFS(fsys faultfs.FS, path string, syncOnFlush bool) (*FileLog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	// The open may have just created the file; its directory entry must
	// be durable before any commit forced into it is acked, or a crash
	// can drop the whole log while every record in it was "fsynced".
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	// Find the end of the intact prefix and the next LSN.
	var nextLSN uint64 = 1
	end, err := scanReader(f, func(r *Record) error {
		nextLSN = r.LSN + 1
		return nil
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &FileLog{f: f, w: bufio.NewWriterSize(f, 1<<16), nextLSN: nextLSN, sync: syncOnFlush}, nil
}

// Append assigns r the next LSN (stored into r.LSN), frames it in a buffer
// the log keeps, and buffers the frame for writing.
func (l *FileLog) Append(r *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errAppendClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	l.frame = appendFrame(l.frame[:0], r)
	if _, err := l.w.Write(l.frame); err != nil {
		return 0, l.poison(err)
	}
	l.dirty = true
	return r.LSN, nil
}

// poison records a write/sync failure, making every later Append, Flush,
// and Truncate fail with ErrPoisoned. The failing call itself returns
// the original cause. Caller holds l.mu.
func (l *FileLog) poison(cause error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	}
	return cause
}

// Flush drains the buffer and, if the log was opened with syncOnFlush,
// fsyncs the file.
func (l *FileLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *FileLog) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.poison(err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return l.poison(err)
		}
	}
	l.dirty = false
	return nil
}

// Truncate discards the entire log contents (used after a quiescent
// checkpoint has made the store current) while keeping LSNs monotonic.
func (l *FileLog) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return l.poison(err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return l.poison(err)
	}
	l.w.Reset(l.f)
	return nil
}

// Close flushes and closes the log file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.flushLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// MemLog is the log of a manager configured without durability: it assigns
// LSNs and keeps nothing. A directory-less manager never checkpoints and
// nothing can replay an in-memory log, so retaining the records only grew
// the heap with every append; not retaining them is also what lets a
// caller reuse the Record it passes to Append. Tests that want the records
// back wrap an Appender of their own around it.
type MemLog struct {
	lsn atomic.Uint64 // last LSN assigned
}

// NewMem returns an in-memory log whose first LSN is 1.
func NewMem() *MemLog { return &MemLog{} }

// Append assigns r the next LSN.
func (l *MemLog) Append(r *Record) (uint64, error) {
	r.LSN = l.lsn.Add(1)
	return r.LSN, nil
}

// Flush returns at once: there is nothing to write, so nothing to share.
func (l *MemLog) Flush() error { return nil }

// Close does nothing: there is nothing to release.
func (l *MemLog) Close() error { return nil }

// ScanFile reads every intact record of the log at path in order, invoking
// fn for each. It stops cleanly at a torn tail. fn errors abort the scan.
func ScanFile(path string, fn func(*Record) error) error {
	return ScanFileFS(faultfs.OS{}, path, fn)
}

// ScanFileFS is ScanFile over an injected filesystem.
func ScanFileFS(fsys faultfs.FS, path string, fn func(*Record) error) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	_, err = scanReader(f, fn)
	return err
}

// appendFrame appends the on-disk frame for r — with r.LSN already
// assigned — to buf and returns the extended slice. Both logs frame with
// it: FileLog.Append into a buffer of its own, SegmentedLog into a shared
// slab. Allocation-free once buf has capacity.
func appendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	var zero [frameHeader]byte
	buf = append(buf, zero[:]...)
	buf = r.marshalInto(buf)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[start+8:start+16], r.LSN)
	crc := crc32.Update(0, crcTable, buf[start+8:start+16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc)
	return buf
}

// scanReader scans records from r, returning the byte offset just past the
// last intact record.
func scanReader(r io.ReadSeeker, fn func(*Record) error) (int64, error) {
	return scanFrames(r, 0, fn)
}

// scanFrames scans record frames from r starting at byte offset start,
// returning the offset just past the last intact record. A torn or
// corrupt frame stops the scan cleanly; fn errors abort it.
func scanFrames(r io.ReadSeeker, start int64, fn func(*Record) error) (int64, error) {
	if _, err := r.Seek(start, io.SeekStart); err != nil {
		return start, err
	}
	br := bufio.NewReaderSize(r, 1<<16)
	off := start
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header: stop here
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		lsn := binary.LittleEndian.Uint64(hdr[8:16])
		if plen > 1<<30 {
			return off, nil // absurd length: torn
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, nil // torn payload
		}
		crc := crc32.Update(0, crcTable, hdr[8:16])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != want {
			return off, nil // corrupt: treat as torn tail
		}
		rec, err := unmarshal(payload)
		if err != nil {
			return off, nil
		}
		rec.LSN = lsn
		if err := fn(rec); err != nil {
			return off, err
		}
		off += int64(frameHeader) + int64(plen)
	}
}
