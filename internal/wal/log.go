package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync/atomic"
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
// of a segment; scanning stops there.
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

// appendFrame appends the on-disk frame for r — with r.LSN already
// assigned — to buf and returns the extended slice. Allocation-free once
// buf has capacity.
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
