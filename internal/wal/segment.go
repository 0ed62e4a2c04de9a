package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// The segmented log lives in the database directory as a chain of
// fixed-size(ish) segment files plus a manifest:
//
//	wal-000001.seg  wal-000002.seg  ...  wal.manifest
//
// Each segment starts with a 32-byte header naming its sequence number
// and the LSN of its first record; record frames (see appendFrame)
// follow. Segments are append-only and sealed with an fsync before the
// next segment is created, so at any crash only the final segment of the
// chain can have a torn tail.
//
// Typed errors distinguish corruption (a chain recovery must refuse to
// silently skip) from the clean torn tail every crash leaves.
var (
	// ErrManifestCorrupt marks an unreadable or internally inconsistent
	// wal.manifest.
	ErrManifestCorrupt = errors.New("wal: manifest corrupt")
	// ErrSegmentCorrupt marks a segment whose header is unreadable or
	// contradicts its name or the manifest.
	ErrSegmentCorrupt = errors.New("wal: segment corrupt")
	// ErrSegmentMissing marks a segment the manifest references but the
	// filesystem does not hold.
	ErrSegmentMissing = errors.New("wal: manifest references missing segment")
	// ErrSegmentGap marks a chain in which records follow a torn or
	// missing region: replaying around the hole would silently drop
	// committed effects, so recovery refuses.
	ErrSegmentGap = errors.New("wal: segment chain gap: records follow a torn or missing region")
	// ErrRetiredFormat marks a directory holding a log format this
	// package no longer reads: a single-file wal.log, a manifest that
	// names one as the chain's base, or a coordinator's coord.log.
	// Opening around it would drop the effects or decisions it holds.
	ErrRetiredFormat = errors.New("wal: retired log format")
)

const (
	segMagic      = "ASETWSEG"
	segVersion    = 1
	segHeaderSize = 8 + 4 + 4 + 8 + 8 // magic, version, crc, seq, firstLSN
)

// segmentName renders the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%06d.seg", seq) }

// segmentPath renders the full path of segment seq under dir.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, segmentName(seq))
}

// encodeSegmentHeader renders the header for segment seq whose first
// record will carry firstLSN.
func encodeSegmentHeader(seq, firstLSN uint64) [segHeaderSize]byte {
	var b [segHeaderSize]byte
	copy(b[0:8], segMagic)
	binary.LittleEndian.PutUint32(b[8:12], segVersion)
	binary.LittleEndian.PutUint64(b[16:24], seq)
	binary.LittleEndian.PutUint64(b[24:32], firstLSN)
	crc := crc32.Update(0, crcTable, b[8:12])
	crc = crc32.Update(crc, crcTable, b[16:32])
	binary.LittleEndian.PutUint32(b[12:16], crc)
	return b
}

// decodeSegmentHeader parses a segment header, returning the sequence
// number and first LSN. Errors wrap ErrSegmentCorrupt.
func decodeSegmentHeader(b []byte) (seq, firstLSN uint64, err error) {
	if len(b) < segHeaderSize {
		return 0, 0, fmt.Errorf("%w: short header (%d bytes)", ErrSegmentCorrupt, len(b))
	}
	if string(b[0:8]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrSegmentCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != segVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrSegmentCorrupt, v)
	}
	crc := crc32.Update(0, crcTable, b[8:12])
	crc = crc32.Update(crc, crcTable, b[16:32])
	if want := binary.LittleEndian.Uint32(b[12:16]); crc != want {
		return 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrSegmentCorrupt)
	}
	return binary.LittleEndian.Uint64(b[16:24]), binary.LittleEndian.Uint64(b[24:32]), nil
}

// readSegmentHeader reads the header of the segment at path and checks
// it against wantSeq (its name / manifest entry), returning the first
// LSN it names. Header damage is reported as ErrSegmentCorrupt for the
// caller to interpret (fatal for a manifest-listed segment, a clean
// chain end for a probed one).
func readSegmentHeader(fsys faultfs.FS, path string, wantSeq uint64) (uint64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		// Shorter than a header: a crash during creation.
		return 0, fmt.Errorf("%w: truncated header: %w", ErrSegmentCorrupt, err)
	}
	seq, firstLSN, err := decodeSegmentHeader(hdr[:])
	if err != nil {
		return 0, err
	}
	if seq != wantSeq {
		return 0, fmt.Errorf("%w: header says segment %d, expected %d (duplicated or misnamed file)",
			ErrSegmentCorrupt, seq, wantSeq)
	}
	return firstLSN, nil
}

// scanSegment streams every intact record of the segment at path, whose
// header readSegmentHeader already checked, to fn. It returns the offset
// just past the last intact record, and whether bytes follow it (a torn
// tail, which stops the scan cleanly).
func scanSegment(fsys faultfs.FS, path string, fn func(*Record) error) (end int64, torn bool, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	if end, err = scanFrames(f, segHeaderSize, fn); err != nil {
		return 0, false, err
	}
	st, err := f.Stat()
	return end, err == nil && st.Size() > end, nil
}
