package wal

import (
	"bytes"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/xid"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Type: TBegin, TID: 7},
		{Type: TUpdate, TID: 7, OID: 42, Kind: KindModify, Before: []byte("old"), After: []byte("new")},
		{Type: TUpdate, TID: 7, OID: 43, Kind: KindCreate, After: []byte("born")},
		{Type: TUpdate, TID: 7, OID: 44, Kind: KindDelete, Before: []byte("gone")},
		{Type: TDelegate, TID: 7, TID2: 9, OIDs: []xid.OID{42, 43}},
		{Type: TDelegate, TID: 7, TID2: 9}, // all objects
		{Type: TCommit, TIDs: []xid.TID{7, 9, 11}},
		{Type: TAbort, TID: 12},
		{Type: TUndo, TID: 12, OID: 42, Kind: KindModify, After: []byte("restored")},
		{Type: TUndo, TID: 12, OID: 43, Kind: KindDelete},
		{Type: TCheckpoint},
	}
	for i, r := range recs {
		got, err := unmarshal(r.marshal())
		if err != nil {
			t.Fatalf("rec %d (%v): unmarshal: %v", i, r.Type, err)
		}
		if got.Type != r.Type || got.TID != r.TID || got.TID2 != r.TID2 ||
			got.OID != r.OID || got.Kind != r.Kind ||
			!bytes.Equal(got.Before, r.Before) || !bytes.Equal(got.After, r.After) ||
			len(got.OIDs) != len(r.OIDs) || len(got.TIDs) != len(r.TIDs) {
			t.Fatalf("rec %d round trip mismatch: %+v vs %+v", i, got, r)
		}
		if (got.OIDs == nil) != (r.OIDs == nil) {
			t.Fatalf("rec %d OIDs nil-ness lost (delegate-all must stay nil)", i)
		}
	}
}

// oneSegment opens a chain in a fresh directory with the default
// rotation threshold, so a test's few records share one segment.
func oneSegment(t *testing.T) (string, *SegmentedLog) {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenSegmented(dir, SegmentedOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	return dir, l
}

// scanCount returns how many records the chain in dir yields.
func scanCount(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if err := ScanChain(dir, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSegmentedAppendScan(t *testing.T) {
	dir, l := oneSegment(t)
	for i := 1; i <= 10; i++ {
		lsn, err := l.Append(&Record{Type: TBegin, TID: xid.TID(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []xid.TID
	if err := ScanChain(dir, func(r *Record) error {
		got = append(got, r.TID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 1 || got[9] != 10 {
		t.Fatalf("scan got %v", got)
	}
}

// TestTornTailIgnored: garbage after the final segment's last frame is
// a torn tail: the scan stops before it, and a reopen drops it and
// appends in its place.
func TestTornTailIgnored(t *testing.T) {
	dir, l := oneSegment(t)
	l.Append(&Record{Type: TBegin, TID: 1})
	l.Append(&Record{Type: TCommit, TIDs: []xid.TID{1}})
	l.Close()
	// Simulate a crash mid-append: garbage partial frame at the tail.
	f, _ := os.OpenFile(segmentPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{0x10, 0, 0, 0, 0xde, 0xad})
	f.Close()

	if n := scanCount(t, dir); n != 2 {
		t.Fatalf("scan of torn log saw %d records, want 2", n)
	}
	// Reopen must truncate the tail and keep appending cleanly.
	l2, err := OpenSegmented(dir, SegmentedOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, _ := l2.Append(&Record{Type: TBegin, TID: 2}); lsn != 3 {
		t.Fatalf("lsn after torn reopen = %d, want 3", lsn)
	}
	l2.Close()
	if n := scanCount(t, dir); n != 3 {
		t.Fatalf("after repair scan saw %d records, want 3", n)
	}
}

func TestCorruptMiddleStopsScan(t *testing.T) {
	dir, l := oneSegment(t)
	l.Append(&Record{Type: TBegin, TID: 1})
	l.Append(&Record{Type: TBegin, TID: 2})
	l.Close()
	path := segmentPath(dir, 1)
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xff // corrupt last record's payload
	os.WriteFile(path, data, 0o644)
	if n := scanCount(t, dir); n != 1 {
		t.Fatalf("scan saw %d records, want 1 (corrupt record must stop scan)", n)
	}
}

func TestRecoverCommittedOnly(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 10, Kind: KindCreate, After: []byte("a")},
		{LSN: 3, Type: TBegin, TID: 2},
		{LSN: 4, Type: TUpdate, TID: 2, OID: 20, Kind: KindCreate, After: []byte("b")},
		{LSN: 5, Type: TCommit, TIDs: []xid.TID{1}},
		// t2 never commits: loser.
	}
	st := RecoverRecords(recs)
	if string(st.Objects[10]) != "a" {
		t.Fatalf("committed object missing: %v", st.Objects)
	}
	if _, ok := st.Objects[20]; ok {
		t.Fatal("loser's object recovered")
	}
	if st.MaxTID != 2 || st.NextLSN != 6 {
		t.Fatalf("MaxTID=%d NextLSN=%d", st.MaxTID, st.NextLSN)
	}
}

func TestRecoverAbortDiscards(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 10, Kind: KindCreate, After: []byte("x")},
		{LSN: 3, Type: TAbort, TID: 1},
	}
	st := RecoverRecords(recs)
	if len(st.Objects) != 0 {
		t.Fatalf("abort not clean: %+v", st)
	}
}

func TestRecoverDelegation(t *testing.T) {
	// t1 updates ob10 and ob11, delegates ob10 to t2, then aborts. t2
	// commits. Only ob10 must survive: responsibility moved with delegate.
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 10, Kind: KindCreate, After: []byte("ten")},
		{LSN: 3, Type: TUpdate, TID: 1, OID: 11, Kind: KindCreate, After: []byte("eleven")},
		{LSN: 4, Type: TBegin, TID: 2},
		{LSN: 5, Type: TDelegate, TID: 1, TID2: 2, OIDs: []xid.OID{10}},
		{LSN: 6, Type: TAbort, TID: 1},
		{LSN: 7, Type: TCommit, TIDs: []xid.TID{2}},
	}
	st := RecoverRecords(recs)
	if string(st.Objects[10]) != "ten" {
		t.Fatal("delegated update lost")
	}
	if _, ok := st.Objects[11]; ok {
		t.Fatal("aborter's retained update survived")
	}
}

func TestRecoverDelegateAll(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 10, Kind: KindCreate, After: []byte("a")},
		{LSN: 3, Type: TUpdate, TID: 1, OID: 11, Kind: KindCreate, After: []byte("b")},
		{LSN: 4, Type: TDelegate, TID: 1, TID2: 2}, // all
		{LSN: 5, Type: TCommit, TIDs: []xid.TID{2}},
	}
	st := RecoverRecords(recs)
	if len(st.Objects) != 2 {
		t.Fatalf("delegate-all lost updates: %v", st.Objects)
	}
}

func TestRecoverUndoAppliesUnconditionally(t *testing.T) {
	// The paper's cooperating-transaction caveat: t1 creates ob and commits
	// a modify; t2 (permitted) modified it earlier; t2's abort installs its
	// before image over t1's committed value. Recovery must reproduce the
	// final (post-undo) state.
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 5, Kind: KindCreate, After: []byte("v0")},
		{LSN: 3, Type: TCommit, TIDs: []xid.TID{1}},
		{LSN: 4, Type: TBegin, TID: 2},
		{LSN: 5, Type: TUpdate, TID: 2, OID: 5, Kind: KindModify, Before: []byte("v0"), After: []byte("v2")},
		{LSN: 6, Type: TBegin, TID: 3},
		{LSN: 7, Type: TUpdate, TID: 3, OID: 5, Kind: KindModify, Before: []byte("v2"), After: []byte("v3")},
		{LSN: 8, Type: TCommit, TIDs: []xid.TID{3}},
		{LSN: 9, Type: TUndo, TID: 2, OID: 5, Kind: KindModify, After: []byte("v0")},
		{LSN: 10, Type: TAbort, TID: 2},
	}
	st := RecoverRecords(recs)
	if string(st.Objects[5]) != "v0" {
		t.Fatalf("object 5 = %q, want v0 (undo must override committed v3)", st.Objects[5])
	}
}

func TestRecoverGroupCommitOrdering(t *testing.T) {
	// Interleaved updates by two group members must apply in LSN order.
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TBegin, TID: 2},
		{LSN: 3, Type: TUpdate, TID: 1, OID: 9, Kind: KindCreate, After: []byte("first")},
		{LSN: 4, Type: TUpdate, TID: 2, OID: 9, Kind: KindModify, Before: []byte("first"), After: []byte("second")},
		{LSN: 5, Type: TCommit, TIDs: []xid.TID{2, 1}}, // group, listed out of order
	}
	st := RecoverRecords(recs)
	if string(st.Objects[9]) != "second" {
		t.Fatalf("object 9 = %q, want second", st.Objects[9])
	}
}

// TestQuickRecoverEqualsDirectApply: for random sequences of single-txn
// create/modify/delete + always-commit, recovery equals applying operations
// directly in order.
func TestQuickRecoverEqualsDirectApply(t *testing.T) {
	f := func(steps []struct {
		Oid uint8
		Val uint8
		Op  uint8
	}) bool {
		var recs []*Record
		want := map[xid.OID][]byte{}
		lsn := uint64(1)
		tid := xid.TID(1)
		for _, s := range steps {
			oid := xid.OID(s.Oid%8) + 1
			val := []byte{s.Val}
			recs = append(recs, &Record{LSN: lsn, Type: TBegin, TID: tid})
			lsn++
			switch s.Op % 3 {
			case 0, 1: // create-or-modify
				kind := KindModify
				if _, ok := want[oid]; !ok {
					kind = KindCreate
				}
				recs = append(recs, &Record{LSN: lsn, Type: TUpdate, TID: tid, OID: oid, Kind: kind, After: val})
				want[oid] = val
			case 2:
				recs = append(recs, &Record{LSN: lsn, Type: TUpdate, TID: tid, OID: oid, Kind: KindDelete})
				delete(want, oid)
			}
			lsn++
			recs = append(recs, &Record{LSN: lsn, Type: TCommit, TIDs: []xid.TID{tid}})
			lsn++
			tid++
		}
		st := RecoverRecords(recs)
		if len(st.Objects) != len(want) {
			return false
		}
		for k, v := range want {
			if !bytes.Equal(st.Objects[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendersKeepNothing pins the Append contract the engine's reused
// record relies on: a record (and the images it points to) overwritten
// right after Append returns must not change what the log holds. Every
// record goes through one Record value and one image buffer, and the scan
// must still return the original sequence.
func TestAppendersKeepNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmented(dir, SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	img := make([]byte, 8)
	tids := make([]xid.TID, 1)
	for i := 1; i <= 50; i++ {
		copy(img, EncodeCounter(uint64(i)))
		rec = Record{Type: TUpdate, TID: xid.TID(i), OID: 5, Kind: KindModify, Before: img, After: img}
		if _, err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		tids[0] = xid.TID(i)
		rec = Record{Type: TCommit, TIDs: tids}
		if _, err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(name string, st *State, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := DecodeCounter(st.Objects[5]); got != 50 {
			t.Errorf("%s: object 5 recovered as %d, want 50", name, got)
		}
		if st.NextLSN != 101 {
			t.Errorf("%s: NextLSN %d, want 101 after 100 records", name, st.NextLSN)
		}
	}
	st, err := RecoverDir(dir, RecoverOptions{})
	check("segmented", st, err)
}

func TestTypeAndKindStrings(t *testing.T) {
	types := map[Type]string{
		TBegin: "begin", TUpdate: "update", TDelegate: "delegate",
		TCommit: "commit", TAbort: "abort", TUndo: "undo", TCheckpoint: "checkpoint",
	}
	for ty, want := range types {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type must render")
	}
	kinds := map[UpdateKind]string{
		KindModify: "modify", KindCreate: "create", KindDelete: "delete", KindDelta: "delta",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if UpdateKind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestDecodeCounterShortImages(t *testing.T) {
	if DecodeCounter([]byte{0x01, 0x02}) != 0x0201 {
		t.Fatal("short image decode wrong")
	}
	if DecodeCounter(nil) != 0 {
		t.Fatal("nil image decode wrong")
	}
	if DecodeCounter(EncodeCounter(123456789)) != 123456789 {
		t.Fatal("round trip wrong")
	}
}

func TestRecoverLoserWithDelegatedInOps(t *testing.T) {
	// A transaction that never began but received delegated ops and never
	// terminated is a loser; its delegated ops are dropped, and its tid is
	// still one the resuming manager must not issue.
	recs := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 5, Kind: KindCreate, After: []byte("x")},
		{LSN: 3, Type: TDelegate, TID: 1, TID2: 9}, // t9 never began
		{LSN: 4, Type: TAbort, TID: 1},
	}
	st := RecoverRecords(recs)
	if len(st.Objects) != 0 || st.MaxTID != 9 {
		t.Fatalf("objects = %v, MaxTID %d", st.Objects, st.MaxTID)
	}
}
