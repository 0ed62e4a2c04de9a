package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// FuzzRecordRoundTrip: any record we can marshal must unmarshal to an
// equal record; any payload bytes must either decode or error, never
// panic or over-read.
func FuzzRecordRoundTrip(f *testing.F) {
	seeds := []*Record{
		{Type: TBegin, TID: 1},
		{Type: TUpdate, TID: 2, OID: 3, Kind: KindModify, Before: []byte("b"), After: []byte("a")},
		{Type: TDelegate, TID: 1, TID2: 2, OIDs: []xid.OID{5, 6}},
		{Type: TCommit, TIDs: []xid.TID{1, 2, 3}},
		{Type: TUndo, TID: 9, OID: 8, Kind: KindDelta, After: EncodeCounter(42)},
		{Type: TCheckpoint},
	}
	for _, r := range seeds {
		f.Add(r.marshal())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := unmarshal(payload)
		if err != nil {
			return // malformed input is fine, as long as we didn't panic
		}
		// Whatever decoded must re-encode and decode back identically.
		again, err := unmarshal(r.marshal())
		if err != nil {
			t.Fatalf("re-decode of valid record failed: %v", err)
		}
		if again.Type != r.Type || again.TID != r.TID || again.TID2 != r.TID2 ||
			again.OID != r.OID || again.Kind != r.Kind ||
			!bytes.Equal(again.Before, r.Before) || !bytes.Equal(again.After, r.After) {
			t.Fatalf("round trip mismatch: %+v vs %+v", again, r)
		}
	})
}

// realisticRecords is a multi-transaction history — begins, updates, a
// delegate, an undo, commits, an abort, a checkpoint — the base for the
// corrupted-tail corpus.
func realisticRecords() []*Record {
	return []*Record{
		{Type: TBegin, TID: 1},
		{Type: TUpdate, TID: 1, OID: 10, Kind: KindCreate, After: []byte("one")},
		{Type: TCommit, TIDs: []xid.TID{1}},
		{Type: TBegin, TID: 2},
		{Type: TBegin, TID: 3},
		{Type: TUpdate, TID: 2, OID: 11, Kind: KindModify, Before: []byte("one"), After: []byte("two")},
		{Type: TDelegate, TID: 2, TID2: 3, OIDs: []xid.OID{11}},
		{Type: TUndo, TID: 3, OID: 11, Kind: KindModify, After: []byte("one")},
		{Type: TAbort, TID: 3},
		{Type: TCommit, TIDs: []xid.TID{2}},
		{Type: TCheckpoint},
	}
}

// frames renders recs, numbered from LSN 1, as the frames a segment
// holds after its header.
func frames(recs []*Record) []byte {
	var buf []byte
	for i, r := range recs {
		r.LSN = uint64(i + 1)
		buf = appendFrame(buf, r)
	}
	return buf
}

// lastFrameStart returns the offset of the last whole frame in a run of
// frames starting at off.
func lastFrameStart(data []byte, off int) int {
	last := off
	for off+frameHeader <= len(data) {
		next := off + frameHeader + int(binary.LittleEndian.Uint32(data[off:off+4]))
		if next > len(data) {
			break
		}
		last, off = off, next
	}
	return last
}

// tornShapes derives the damage a crash or a bad disk leaves on the last
// frame of a run of frames starting at off: a record truncated
// mid-payload, a flipped checksum byte, a garbage length prefix, a tail
// torn mid-header, a tail torn exactly at the frame boundary, and a hole
// (a zeroed frame header's worth of bytes) in the middle of the run.
func tornShapes(good []byte, off int) map[string][]byte {
	last := lastFrameStart(good, off)
	dup := func() []byte { return append([]byte{}, good...) }
	badCRC := dup()
	badCRC[last+4] ^= 0xff
	badLen := dup()
	copy(badLen[last:last+4], []byte{0xff, 0xff, 0xff, 0x7f})
	hole := dup()
	mid := off + (len(good)-off)/2
	for i := mid; i < mid+frameHeader && i < len(hole); i++ {
		hole[i] = 0
	}
	return map[string][]byte{
		"truncated-record":  dup()[:len(good)-3],
		"bad-checksum":      badCRC,
		"garbage-length":    badLen,
		"torn-frame-header": good[:last+frameHeader/2],
		"frame-boundary":    good[:last],
		"hole":              hole,
	}
}

// FuzzScanRobustness: arbitrary bytes as the frames of a chain's only
// segment must leave the scan, recovery and a reopen panic-free: the
// scan stops cleanly or fails with a typed chain error, and a chain that
// scans reopens, drops its torn tail and appends after it.
func FuzzScanRobustness(f *testing.F) {
	good := frames([]*Record{{Type: TBegin, TID: 1}, {Type: TCommit, TIDs: []xid.TID{1}}})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), 0xde, 0xad, 0xbe, 0xef))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	// Corrupted-tail corpus: the torn shapes recovery must survive.
	multi := frames(realisticRecords())
	f.Add(multi)
	shapes := tornShapes(multi, 0)
	for _, name := range []string{"truncated-record", "bad-checksum", "garbage-length",
		"torn-frame-header", "frame-boundary", "hole"} {
		f.Add(shapes[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		mfs := faultfs.NewMem()
		hdr := encodeSegmentHeader(1, 1)
		overwrite(t, mfs, segmentPath("/db", 1), append(hdr[:], data...))
		n := 0
		err := ScanChainFS(mfs, "/db", func(*Record) error { n++; return nil })
		if _, rerr := RecoverDirFS(mfs, "/db", RecoverOptions{}); (err == nil) != (rerr == nil) {
			t.Fatalf("scan and recovery disagree: %v vs %v", err, rerr)
		}
		if err != nil {
			if !typedChainErr(err) {
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		// Reopening for append must truncate the torn tail and stay usable.
		l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if _, err := l.Append(&Record{Type: TBegin, TID: 99}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		m := 0
		if err := ScanChainFS(mfs, "/db", func(*Record) error { m++; return nil }); err != nil || m != n+1 {
			t.Fatalf("after repair scan saw %d records (%v), want %d", m, err, n+1)
		}
	})
}

// TestRecoverCorruptedTails pins down the exact semantics the fuzz
// corpus shapes exercise on the final segment of a chain: every
// torn-tail class stops the scan at the last intact record, and
// recovery of the intact prefix is unaffected.
func TestRecoverCorruptedTails(t *testing.T) {
	build := func(t *testing.T) *faultfs.MemFS {
		mfs := faultfs.NewMem()
		l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{SegmentBytes: 128, Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range realisticRecords() {
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return mfs
	}
	mfs := build(t)
	last := segmentPath("/db", lastSegment(t, mfs))
	if last == segmentPath("/db", 1) {
		t.Fatal("the history fits one segment; the final segment is not exercised")
	}
	intact := 0
	if err := ScanChainFS(mfs, "/db", func(*Record) error { intact++; return nil }); err != nil {
		t.Fatal(err)
	}
	if intact != 11 {
		t.Fatalf("intact log has %d records, want 11", intact)
	}
	shapes := tornShapes(readBack(t, mfs, last), segHeaderSize)
	for _, name := range []string{"truncated-record", "bad-checksum", "garbage-length", "torn-frame-header"} {
		t.Run(name, func(t *testing.T) {
			mfs := build(t)
			overwrite(t, mfs, last, shapes[name])
			n := 0
			if err := ScanChainFS(mfs, "/db", func(*Record) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			// Every corruption hits the final frame (the checkpoint):
			// exactly one record is lost, never more.
			if n != intact-1 {
				t.Fatalf("scanned %d records, want %d", n, intact-1)
			}
			// The committed state of the intact prefix is unaffected:
			// T1 created oid 10, and T3's undo installed oid 11's old
			// image over the modify T2 delegated to it. Every intact
			// record was replayed.
			st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if string(st.Objects[10]) != "one" || string(st.Objects[11]) != "one" {
				t.Fatalf("oids 10/11 = %q/%q", st.Objects[10], st.Objects[11])
			}
			if st.NextLSN != uint64(intact) {
				t.Fatalf("NextLSN = %d, want %d", st.NextLSN, intact)
			}
		})
	}
}
