package wal

import (
	"fmt"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// appendUntilCrash drives committed transactions through l until an
// append or flush fails (the scripted crash fired), returning how many
// transactions were fully acknowledged before the failure.
func appendUntilCrash(t *testing.T, l *SegmentedLog, max int) int {
	t.Helper()
	acked := 0
	for i := 0; i < max; i++ {
		if !tryCommitOne(l, acked+1) {
			return acked
		}
		acked++
	}
	t.Fatalf("crash never fired within %d transactions", max)
	return acked
}

// tryCommitOne appends one committed transaction (same shape as
// appendCommitted) and reports whether it was acknowledged.
func tryCommitOne(l *SegmentedLog, id int) bool {
	tid := xid.TID(id)
	recs := []*Record{
		{Type: TBegin, TID: tid},
		{Type: TUpdate, TID: tid, OID: xid.OID(id), Kind: KindCreate, After: []byte(fmt.Sprintf("v%d", id))},
		{Type: TCommit, TIDs: []xid.TID{tid}},
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			return false
		}
	}
	return l.Flush() == nil
}

// TestCrashAtRotationBoundary pins the ISSUE-named regression: a crash
// in the window between the new segment becoming durable (its header
// fsync) and the manifest rename that publishes it must recover exactly
// the pre-rotation prefix — every transaction acknowledged before the
// rotation, nothing more, nothing less, and the chain must remain
// reopenable. Two boundary flavours: losing the manifest rename itself,
// and losing the manifest tmp-file write just before it.
func TestCrashAtRotationBoundary(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		// Rename #1 happens inside OpenSegmentedFS (fresh-chain manifest);
		// #2 is the first rotation's publish.
		{"lost-manifest-rename", faultfs.Rule{
			Op: faultfs.OpRename, Path: "wal.manifest", Nth: 2,
			Action: faultfs.ActCrash, Keep: -1}},
		// Same counting for the tmp file: write #2 is the rotation's.
		{"lost-manifest-tmp-write", faultfs.Rule{
			Op: faultfs.OpWrite, Path: "wal.manifest.tmp", Nth: 2,
			Action: faultfs.ActCrash, Keep: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mfs := faultfs.NewMem()
			mfs.SetScript(faultfs.NewScript(tc.rule))
			l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
			if err != nil {
				t.Fatal(err)
			}
			acked := appendUntilCrash(t, l, 50)
			if !mfs.Crashed() {
				t.Fatal("filesystem did not crash")
			}
			if acked == 0 {
				t.Fatal("crash fired before any transaction committed; boundary not exercised")
			}
			for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
				img := mfs.CrashImage(mode)
				st, err := RecoverDirFS(img, "/db", RecoverOptions{})
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				checkRecoveredRange(t, st, 1, acked)
				if want := uint64(3*acked + 1); st.NextLSN != want {
					t.Fatalf("%v: NextLSN = %d, want %d (exact pre-rotation prefix)",
						mode, st.NextLSN, want)
				}
				// The chain must also be adoptable: reopen, extend, recover.
				l2, err := OpenSegmentedFS(img, "/db", testSegOpts(true))
				if err != nil {
					t.Fatalf("%v: reopen: %v", mode, err)
				}
				appendCommitted(t, l2, acked+1, 2)
				if err := l2.Close(); err != nil {
					t.Fatal(err)
				}
				st, err = RecoverDirFS(img, "/db", RecoverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				checkRecoveredRange(t, st, 1, acked+2)
			}
		})
	}
}

// TestCrashAtDirectorySyncBoundaries sweeps a crash across every
// directory fsync the chain issues — after each segment creation and
// after each manifest rename, inside Open and inside every rotation.
// In DropUnsynced mode the crash deletes the not-yet-dir-synced entry
// (the new segment file, or the manifest rename rolls back), which is
// exactly the failure the plain crash matrix could not model before
// MemFS tracked directory-entry durability. Whatever survives, recovery
// must return exactly the acked prefix: the rotation's dir syncs run
// before the batch write, so the in-flight batch can never be on disk.
func TestCrashAtDirectorySyncBoundaries(t *testing.T) {
	swept := 0
	for nth := 1; nth < 200; nth++ {
		mfs := faultfs.NewMem()
		mfs.SetScript(faultfs.NewScript(faultfs.Rule{
			Op: faultfs.OpSyncDir, Nth: nth, Action: faultfs.ActCrash, Keep: -1,
		}))
		acked := 0
		l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
		if err == nil {
			for acked < 60 && tryCommitOne(l, acked+1) {
				acked++
			}
		}
		if !mfs.Crashed() {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			break // nth exceeds the SyncDirs a 60-txn run issues
		}
		swept++
		for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
			img := mfs.CrashImage(mode)
			st, rerr := RecoverDirFS(img, "/db", RecoverOptions{})
			if rerr != nil {
				t.Fatalf("syncdir #%d %v: %v", nth, mode, rerr)
			}
			checkRecoveredRange(t, st, 1, acked)
			if want := uint64(3*acked + 1); st.NextLSN != want {
				t.Fatalf("syncdir #%d %v: NextLSN = %d, want %d (exact acked prefix)",
					nth, mode, st.NextLSN, want)
			}
			// The survivor must stay adoptable and writable.
			l2, rerr := OpenSegmentedFS(img, "/db", testSegOpts(true))
			if rerr != nil {
				t.Fatalf("syncdir #%d %v: reopen: %v", nth, mode, rerr)
			}
			appendCommitted(t, l2, acked+1, 1)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if swept < 4 {
		t.Fatalf("swept only %d directory-sync crash points; rotation boundaries not exercised", swept)
	}
}

// TestCrashAtTruncationCutover: a crash on the truncation's manifest
// cutover rename leaves the old manifest authoritative, so recovery must
// return the entire pre-truncation chain — the new, still-unpublished
// segment is probed, found empty, and contributes nothing.
func TestCrashAtTruncationCutover(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 10)
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpRename, Path: "wal.manifest", Nth: 1,
		Action: faultfs.ActCrash, Keep: -1,
	}))
	if err := l.Truncate(nil); err == nil {
		t.Fatal("Truncate succeeded despite scripted crash")
	}
	if !mfs.Crashed() {
		t.Fatal("filesystem did not crash")
	}
	for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
		img := mfs.CrashImage(mode)
		st, err := RecoverDirFS(img, "/db", RecoverOptions{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		checkRecoveredRange(t, st, 1, 10)
		if want := uint64(31); st.NextLSN != want {
			t.Fatalf("%v: NextLSN = %d, want %d", mode, st.NextLSN, want)
		}
	}
}

// TestCrashAtTruncationCleanup: once the cutover rename lands, the new
// single-segment manifest is authoritative. A crash during the removal
// of old segments leaves orphan files below the manifest's first listed
// sequence; recovery must ignore them completely and the chain must
// stay reopenable and writable.
func TestCrashAtTruncationCleanup(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 10)
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpRemove, Nth: 1, Action: faultfs.ActCrash, Keep: -1,
	}))
	if err := l.Truncate(nil); err == nil {
		t.Fatal("Truncate succeeded despite scripted crash")
	}
	if !mfs.Crashed() {
		t.Fatal("filesystem did not crash")
	}
	for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
		img := mfs.CrashImage(mode)
		st, err := RecoverDirFS(img, "/db", RecoverOptions{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(st.Objects) != 0 {
			t.Fatalf("%v: truncated chain recovered %d objects, want 0", mode, len(st.Objects))
		}
		if want := uint64(31); st.NextLSN != want {
			t.Fatalf("%v: NextLSN = %d, want %d (preserved across truncation)", mode, st.NextLSN, want)
		}
		l2, err := OpenSegmentedFS(img, "/db", testSegOpts(true))
		if err != nil {
			t.Fatalf("%v: reopen: %v", mode, err)
		}
		appendCommitted(t, l2, 11, 3)
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = RecoverDirFS(img, "/db", RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkRecoveredRange(t, st, 11, 3)
	}
}
