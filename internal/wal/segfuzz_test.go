package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"repro/internal/faultfs"
)

// typedChainErr reports whether err is one of the typed chain errors a
// damaged segmented log is allowed to produce. Anything else escaping
// recovery is a bug: the contract is clean prefix stop or typed refusal,
// never a silent partial replay and never an untyped failure.
func typedChainErr(err error) bool {
	return errors.Is(err, ErrManifestCorrupt) ||
		errors.Is(err, ErrSegmentCorrupt) ||
		errors.Is(err, ErrSegmentMissing) ||
		errors.Is(err, ErrSegmentGap) ||
		errors.Is(err, ErrRetiredFormat)
}

// legacyManifest renders an intact manifest whose legacy byte is 1: the
// chain index a database with a wal.log base once wrote.
func legacyManifest(segs ...manifestSegment) []byte {
	b := (&manifest{Segments: segs}).encode()
	b[16] = 1
	binary.LittleEndian.PutUint32(b[12:16], crc32.Update(0, crcTable, b[16:]))
	return b
}

// fuzzChain builds a small multi-segment chain and returns the MemFS
// plus the full record count of the pristine chain.
func fuzzChain(t testing.TB) (*faultfs.MemFS, int) {
	t.Helper()
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{SegmentBytes: 256, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return mfs, 12 * 3
}

// overwrite replaces path's content on mfs with data (creating it if
// the fuzz input resurrects a deleted file shape).
func overwrite(t testing.TB, mfs *faultfs.MemFS, path string, data []byte) {
	t.Helper()
	f, err := mfs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readBack returns path's current content on mfs.
func readBack(t testing.TB, mfs *faultfs.MemFS, path string) []byte {
	t.Helper()
	f, err := mfs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzManifestDecode: arbitrary manifest bytes must decode or error,
// never panic; whatever decodes must round-trip through encode.
func FuzzManifestDecode(f *testing.F) {
	good := (&manifest{Segments: []manifestSegment{{Seq: 1, FirstLSN: 1}, {Seq: 2, FirstLSN: 9}}}).encode()
	f.Add(good)
	f.Add(legacyManifest(manifestSegment{Seq: 3, FirstLSN: 77}))
	f.Add([]byte{})
	f.Add(good[:15])
	short := append([]byte{}, good...)
	short[20] = 9 // count disagrees with trailing bytes
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrManifestCorrupt) && !errors.Is(err, ErrRetiredFormat) {
				t.Fatalf("decode error is neither ErrManifestCorrupt nor ErrRetiredFormat: %v", err)
			}
			return
		}
		again, err := decodeManifest(m.encode())
		if err != nil {
			t.Fatalf("re-decode of valid manifest failed: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest round trip mismatch: %+v vs %+v", again, m)
		}
	})
}

// FuzzSegmentHeaderDecode: arbitrary header bytes must decode or produce
// ErrSegmentCorrupt; valid headers round-trip.
func FuzzSegmentHeaderDecode(f *testing.F) {
	h := encodeSegmentHeader(3, 12345)
	f.Add(h[:])
	f.Add(h[:10])
	f.Add([]byte{})
	flipped := append([]byte{}, h[:]...)
	flipped[20] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, first, err := decodeSegmentHeader(data)
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("decode error is not ErrSegmentCorrupt: %v", err)
			}
			return
		}
		again := encodeSegmentHeader(seq, first)
		s2, f2, err := decodeSegmentHeader(again[:])
		if err != nil || s2 != seq || f2 != first {
			t.Fatalf("header round trip mismatch: %d/%d vs %d/%d (%v)", s2, f2, seq, first, err)
		}
	})
}

// FuzzChainSegmentFile: replacing the final segment's bytes with
// arbitrary data must leave recovery panic-free and well-behaved —
// clean prefix recovery or a typed error — and RecoverDirFS and the
// opener must stay in exact agreement about which.
func FuzzChainSegmentFile(f *testing.F) {
	mfs, _ := fuzzChain(f)
	last := segmentPath("/db", lastSegmentFuzz(f, mfs))
	good := readBack(f, mfs, last)
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(good[:segHeaderSize])
	f.Add(good[:segHeaderSize-3])
	f.Add([]byte{})
	mangled := append([]byte{}, good...)
	mangled[segHeaderSize+2] ^= 0xff
	f.Add(mangled)
	dup := append(append([]byte{}, good...), good[segHeaderSize:]...) // duplicated frames
	f.Add(dup)
	// The torn shapes a crash or a bad disk leaves on the final frame.
	shapes := tornShapes(good, segHeaderSize)
	for _, name := range []string{"torn-frame-header", "frame-boundary", "hole", "bad-checksum"} {
		f.Add(shapes[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mfs, total := fuzzChain(t)
		last := segmentPath("/db", lastSegmentFuzz(t, mfs))
		overwrite(t, mfs, last, data)
		st, err := agreeingReaders(t, mfs)
		if err != nil {
			return
		}
		// No invented state: the damaged chain can never recover more
		// LSNs than the pristine one held in its earlier segments plus
		// whatever the fuzzed tail legitimately decodes to.
		if st.NextLSN > uint64(total)+1+uint64(len(data)/frameHeader) {
			t.Fatalf("recovered NextLSN %d exceeds any plausible chain length", st.NextLSN)
		}
	})
}

// FuzzChainManifestFile: replacing the manifest's bytes with arbitrary
// data must yield clean recovery (only if the bytes are a valid
// manifest for the chain) or a typed error; never a panic, never an
// untyped failure, and never disagreement between RecoverDirFS and the
// opener.
func FuzzChainManifestFile(f *testing.F) {
	mfs, _ := fuzzChain(f)
	good := readBack(f, mfs, "/db/wal.manifest")
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-2] ^= 0xff
	f.Add(flipped)
	// A forged valid manifest pointing at a segment that does not exist.
	f.Add((&manifest{Segments: []manifestSegment{{Seq: 40, FirstLSN: 1}}}).encode())
	// A forged valid manifest whose firstLSN contradicts the header.
	f.Add((&manifest{Segments: []manifestSegment{{Seq: 1, FirstLSN: 999}}}).encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		mfs, _ := fuzzChain(t)
		overwrite(t, mfs, "/db/wal.manifest", data)
		agreeingReaders(t, mfs)
	})
}

// agreeingReaders recovers the chain in /db with RecoverDirFS and then
// with the opener, and fails unless both refuse it with a typed error or
// both recover the same state. It returns RecoverDirFS's outcome.
func agreeingReaders(t *testing.T, mfs *faultfs.MemFS) (*State, error) {
	t.Helper()
	st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
	opened, openErr := openReplay(mfs)
	if (err == nil) != (openErr == nil) {
		t.Fatalf("reader disagreement: RecoverDirFS=%v opener=%v", err, openErr)
	}
	if err != nil {
		if !typedChainErr(err) || !typedChainErr(openErr) {
			t.Fatalf("untyped recovery error: RecoverDirFS=%v opener=%v", err, openErr)
		}
		return nil, err
	}
	diffStates(t, st, opened)
	return st, nil
}

// lastSegmentFuzz is lastSegment for testing.TB (fuzz seeds run under
// *testing.F).
func lastSegmentFuzz(t testing.TB, fsys faultfs.FS) uint64 {
	t.Helper()
	var last uint64
	for seq := uint64(1); ; seq++ {
		if !fileExists(fsys, segmentPath("/db", seq)) {
			break
		}
		last = seq
	}
	if last == 0 {
		t.Fatal("no segments found")
	}
	return last
}
