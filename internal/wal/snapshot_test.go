package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/xid"
)

// TestSnapshotPrefixRecoversSameState: a checkpoint's snapshot segment
// holds one image per live object, so the old chain followed by any
// prefix of it (what a crash before the manifest cutover leaves: the new
// segment is a probed continuation) recovers the state the old chain
// alone recovers, byte for byte of the segment; and the new chain alone
// recovers it too. The history has a counter with a committed delta and
// an aborted one, so an image replayed over its own delta must not add
// the delta again.
func TestSnapshotPrefixRecoversSameState(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmented(dir, SegmentedOptions{SegmentBytes: 256, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	history := []*Record{
		{Type: TBegin, TID: 1},
		{Type: TUpdate, TID: 1, OID: 1, Kind: KindCreate, After: []byte("one")},
		{Type: TUpdate, TID: 1, OID: 2, Kind: KindCreate, After: EncodeCounter(100)},
		{Type: TUpdate, TID: 1, OID: 3, Kind: KindCreate, After: []byte("three")},
		{Type: TCommit, TIDs: []xid.TID{1}},
		{Type: TBegin, TID: 2},
		{Type: TUpdate, TID: 2, OID: 2, Kind: KindDelta, After: EncodeCounter(5)},
		{Type: TUpdate, TID: 2, OID: 1, Kind: KindModify, Before: []byte("one"), After: []byte("ONE")},
		{Type: TUpdate, TID: 2, OID: 3, Kind: KindDelete, Before: []byte("three")},
		{Type: TCommit, TIDs: []xid.TID{2}},
		{Type: TBegin, TID: 3},
		{Type: TUpdate, TID: 3, OID: 2, Kind: KindDelta, After: EncodeCounter(7)},
		{Type: TUndo, TID: 3, OID: 2, Kind: KindDelta, After: EncodeCounter(-7 & (1<<64 - 1))},
		{Type: TAbort, TID: 3},
	}
	for i := 4; i < 24; i++ {
		tid := xid.TID(i)
		history = append(history,
			&Record{Type: TBegin, TID: tid},
			&Record{Type: TUpdate, TID: tid, OID: xid.OID(i), Kind: KindCreate, After: []byte{byte(i), 'x'}},
			&Record{Type: TCommit, TIDs: []xid.TID{tid}})
	}
	for _, r := range history {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	old := readDirFiles(t, dir)
	ref, err := RecoverDir(dir, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if DecodeCounter(ref.Objects[2]) != 105 {
		t.Fatalf("old chain recovers counter %d, want 105", DecodeCounter(ref.Objects[2]))
	}

	// The snapshot a checkpoint keeps: one image per object, one reused
	// record for the whole stream.
	oids := make([]xid.OID, 0, len(ref.Objects))
	for oid := range ref.Objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	var img Record
	if err := l.Truncate(func(emit func(*Record) error) error {
		for _, oid := range oids {
			img = Record{Type: TImage, OID: oid, After: ref.Objects[oid]}
			if err := emit(&img); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seq := l.CurrentSegment()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	alone, err := RecoverDir(dir, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone.Objects, ref.Objects) {
		t.Fatalf("new chain alone recovers %v, old chain %v", alone.Objects, ref.Objects)
	}
	if alone.NextLSN != ref.NextLSN+uint64(len(oids)) {
		t.Fatalf("new chain's NextLSN %d, want %d", alone.NextLSN, ref.NextLSN+uint64(len(oids)))
	}
	snap, err := os.ReadFile(segmentPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}

	crash := t.TempDir()
	for name, data := range old {
		if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := old[filepath.Base(segmentPath(dir, seq))]; ok {
		t.Fatalf("the snapshot segment %d was already part of the old chain", seq)
	}
	for n := 0; n <= len(snap); n++ {
		if err := os.WriteFile(segmentPath(crash, seq), snap[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := RecoverDir(crash, RecoverOptions{})
		if err != nil {
			t.Fatalf("old chain + %d bytes of the snapshot: %v", n, err)
		}
		if !reflect.DeepEqual(st.Objects, ref.Objects) || st.MaxTID != ref.MaxTID || st.InDoubt != nil {
			t.Fatalf("old chain + %d bytes of the snapshot recovers %v (max tid %d), old chain alone %v (max tid %d)",
				n, st.Objects, st.MaxTID, ref.Objects, ref.MaxTID)
		}
	}
}
