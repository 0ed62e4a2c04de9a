package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

const (
	manifestName = "wal.manifest"
	manMagic     = "ASETWMAN"
	manVersion   = 1
)

// manifestSegment is one chain entry: a segment's sequence number and
// the LSN of its first record.
type manifestSegment struct {
	Seq      uint64
	FirstLSN uint64
}

// manifest describes the segment chain: consecutively numbered segments.
// The manifest is advisory about the chain's *end* — a crash between
// segment creation and the manifest update leaves a trailing segment
// recovery discovers by probing — but authoritative about its *start*:
// truncation moves the first listed segment forward, and files below it
// are dead.
type manifest struct {
	Segments []manifestSegment
}

// encode renders the manifest:
//
//	magic(8) version(4) crc(4) legacy(1) count(4) {seq(8) firstLSN(8)}*
//
// The crc covers everything after itself. The legacy byte is always 0: it
// once flagged a single-file wal.log base, a format no longer read.
func (m *manifest) encode() []byte {
	buf := make([]byte, 0, 21+16*len(m.Segments))
	buf = append(buf, manMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, manVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc backfilled below
	buf = append(buf, 0)                           // legacy flag
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Segments)))
	for _, s := range m.Segments {
		buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, s.FirstLSN)
	}
	crc := crc32.Update(0, crcTable, buf[16:])
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	return buf
}

// decodeManifest parses and validates manifest bytes. Errors wrap
// ErrManifestCorrupt, or ErrRetiredFormat for an intact manifest whose
// legacy byte says a wal.log base precedes the segments.
func decodeManifest(b []byte) (*manifest, error) {
	if len(b) < 21 {
		return nil, fmt.Errorf("%w: short file (%d bytes)", ErrManifestCorrupt, len(b))
	}
	if string(b[0:8]) != manMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrManifestCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != manVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrManifestCorrupt, v)
	}
	if crc := crc32.Update(0, crcTable, b[16:]); crc != binary.LittleEndian.Uint32(b[12:16]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrManifestCorrupt)
	}
	if b[16] == 1 {
		return nil, fmt.Errorf("%w: %s puts a wal.log base under the segments", ErrRetiredFormat, manifestName)
	}
	if b[16] > 1 {
		return nil, fmt.Errorf("%w: bad legacy flag %d", ErrManifestCorrupt, b[16])
	}
	m := &manifest{}
	count := binary.LittleEndian.Uint32(b[17:21])
	rest := b[21:]
	if uint64(len(rest)) != uint64(count)*16 {
		return nil, fmt.Errorf("%w: %d entries but %d trailing bytes", ErrManifestCorrupt, count, len(rest))
	}
	for i := uint32(0); i < count; i++ {
		s := manifestSegment{
			Seq:      binary.LittleEndian.Uint64(rest[0:8]),
			FirstLSN: binary.LittleEndian.Uint64(rest[8:16]),
		}
		rest = rest[16:]
		// The chain is consecutively numbered with ascending first LSNs;
		// anything else (duplicated entries included) is corruption.
		if n := len(m.Segments); n > 0 {
			prev := m.Segments[n-1]
			if s.Seq != prev.Seq+1 {
				return nil, fmt.Errorf("%w: segment %d follows %d", ErrManifestCorrupt, s.Seq, prev.Seq)
			}
			if s.FirstLSN < prev.FirstLSN {
				return nil, fmt.Errorf("%w: first LSN regresses at segment %d", ErrManifestCorrupt, s.Seq)
			}
		}
		m.Segments = append(m.Segments, s)
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("%w: empty segment list", ErrManifestCorrupt)
	}
	return m, nil
}

// readManifest loads dir's manifest; a missing file returns (nil, nil).
func readManifest(fsys faultfs.FS, dir string) (*manifest, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, manifestName), os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifestCorrupt, err)
	}
	return decodeManifest(data)
}

// writeManifest atomically replaces dir's manifest: the new image is
// written to a temporary file, fsynced, and renamed over the old one, so
// a crash at any point leaves one intact manifest — the old chain or the
// new, never a torn in-between.
//
//asset:durable before=Rename
func writeManifest(fsys faultfs.FS, dir string, m *manifest) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(m.encode()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	// The rename itself is only a volatile directory update until the
	// directory is fsynced; without this a crash can roll the directory
	// back to the old manifest even though the new one was "renamed into
	// place", undoing a truncation cutover or segment-chain extension
	// the caller already acted on.
	return fsys.SyncDir(dir)
}
