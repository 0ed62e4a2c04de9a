package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

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
// closed-log check stays allocation-free (TestSegmentedAppendAllocFree).
var errAppendClosed = errors.New("wal: append to closed log")

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
