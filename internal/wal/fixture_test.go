package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/xid"
)

// fixtureDir holds a segmented chain written by an earlier revision of
// this package: fixtureRecords appended through OpenSegmented with
// SegmentBytes 256 and Sync on, a flush after every commit, abort and
// prepare, then Close. The files are committed as they came off the
// writer; the test below holds the current code to reading them.
const fixtureDir = "testdata/segmented-chain"

// fixtureRecords is the history in fixtureDir, LSNs 1 to 26: committed
// creates, a modify, a delete and a counter delta; a partial delegation
// and a delegate-all; a group commit; an abort with its undo; a loser;
// a prepared group left in doubt; and one coordinator decision.
func fixtureRecords() []*Record {
	return []*Record{
		{Type: TBegin, TID: 1},
		{Type: TUpdate, TID: 1, OID: 10, Kind: KindCreate, After: []byte("ten")},
		{Type: TUpdate, TID: 1, OID: 11, Kind: KindCreate, After: EncodeCounter(100)},
		{Type: TCommit, TIDs: []xid.TID{1}},
		{Type: TBegin, TID: 2},
		{Type: TBegin, TID: 3},
		{Type: TUpdate, TID: 2, OID: 10, Kind: KindModify, Before: []byte("ten"), After: []byte("TEN")},
		{Type: TUpdate, TID: 3, OID: 11, Kind: KindDelta, After: EncodeCounter(5)},
		{Type: TUpdate, TID: 3, OID: 12, Kind: KindCreate, After: []byte("twelve")},
		{Type: TDelegate, TID: 3, TID2: 2, OIDs: []xid.OID{12}},
		{Type: TCommit, TIDs: []xid.TID{2, 3}},
		{Type: TBegin, TID: 4},
		{Type: TUpdate, TID: 4, OID: 10, Kind: KindModify, Before: []byte("TEN"), After: []byte("lost")},
		{Type: TUndo, TID: 4, OID: 10, Kind: KindModify, After: []byte("TEN")},
		{Type: TAbort, TID: 4},
		{Type: TBegin, TID: 5},
		{Type: TUpdate, TID: 5, OID: 13, Kind: KindCreate, After: []byte("loser")},
		{Type: TBegin, TID: 6},
		{Type: TUpdate, TID: 6, OID: 12, Kind: KindDelete, Before: []byte("twelve")},
		{Type: TDelegate, TID: 6, TID2: 7},
		{Type: TBegin, TID: 7},
		{Type: TCommit, TIDs: []xid.TID{7}},
		{Type: TBegin, TID: 8},
		{Type: TUpdate, TID: 8, OID: 14, Kind: KindCreate, After: []byte("in doubt")},
		{Type: TPrepare, GID: 0xfeed, TIDs: []xid.TID{8}},
		{Type: TDecide, GID: 0xbeef, Commit: true},
	}
}

// TestSegmentedFixtureReopensByteIdentical: a chain an earlier revision
// wrote opens and closes without a byte changing, and recovers to the
// state its history replays to.
func TestSegmentedFixtureReopensByteIdentical(t *testing.T) {
	want := readDirFiles(t, fixtureDir)
	if len(want) < 3 {
		t.Fatalf("fixture holds %d files; want a manifest and several segments", len(want))
	}
	dir := t.TempDir()
	for name, data := range want {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := OpenSegmented(dir, SegmentedOptions{SegmentBytes: 256, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readDirFiles(t, dir)
	if len(got) != len(want) {
		t.Fatalf("reopen left %d files, fixture has %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s changed on reopen", name)
		}
	}

	recs := fixtureRecords()
	for i, r := range recs {
		r.LSN = uint64(i + 1)
	}
	ref := RecoverRecords(recs)
	st, err := RecoverDir(dir, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	diffStates(t, ref, st)
	// The bytes the engine no longer writes were never read: the same
	// history without its TBegin records and before images, each record
	// at its LSN, replays to the same state.
	var redo []*Record
	for _, r := range recs {
		if r.Type != TBegin {
			r.Before = nil
			redo = append(redo, r)
		}
	}
	diffStates(t, RecoverRecords(redo), st)
	// The replay itself, pinned: the undo restored TEN, the delta folded
	// into the counter, the delegated create was deleted by the delegate-
	// all's receiver, the loser and the in-doubt create stay out.
	if string(st.Objects[10]) != "TEN" || DecodeCounter(st.Objects[11]) != 105 {
		t.Errorf("objects 10/11 = %q/%d, want TEN/105", st.Objects[10], DecodeCounter(st.Objects[11]))
	}
	if _, ok := st.Objects[12]; ok || st.Objects[13] != nil || st.Objects[14] != nil {
		t.Errorf("objects 12/13/14: 12 present=%v %q %q", ok, st.Objects[13], st.Objects[14])
	}
	if st.NextLSN != 27 || st.MaxTID != 8 || len(st.InDoubt[0xfeed]) != 1 {
		t.Errorf("NextLSN %d MaxTID %d InDoubt %v", st.NextLSN, st.MaxTID, st.InDoubt)
	}
}

// readDirFiles returns every regular file in dir by name.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}
