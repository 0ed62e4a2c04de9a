package wal

import (
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// openFaulty opens a chain on mfs and then installs rule, so the rule's
// count starts after the opener's own header and manifest I/O.
func openFaulty(t *testing.T, mfs *faultfs.MemFS, sync bool, rule faultfs.Rule) *SegmentedLog {
	t.Helper()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(rule))
	return l
}

// TestFailedSyncPoisonsLog is the regression test for the unpoisoned-
// handle bug class: on the seed code, a commit whose fsync failed left
// the log usable, so the *next* commit's flush could succeed and claim
// durability even though the log now has an indeterminate hole before
// it (a failed fsync may never write those pages). The handle must stay
// poisoned instead.
func TestFailedSyncPoisonsLog(t *testing.T) {
	mfs := faultfs.NewMem()
	l := openFaulty(t, mfs, true, faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Action: faultfs.ActError})
	defer l.Close()
	if _, err := l.Append(&Record{Type: TBegin, TID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("first flush = %v, want injected fault", err)
	}
	// Every later operation must refuse, not silently succeed.
	if err := l.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("flush after failed sync = %v, want ErrPoisoned", err)
	}
	if _, err := l.Append(&Record{Type: TCommit, TIDs: []xid.TID{1}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed sync = %v, want ErrPoisoned", err)
	}
	if err := l.Truncate(nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("truncate after failed sync = %v, want ErrPoisoned", err)
	}
}

// TestFailedWritePoisonsLog: a failed batch write poisons the handle
// the same way (the written suffix is in an unknown state on disk).
func TestFailedWritePoisonsLog(t *testing.T) {
	mfs := faultfs.NewMem()
	l := openFaulty(t, mfs, false, faultfs.Rule{Op: faultfs.OpWrite, Path: "wal-", Nth: 1, Action: faultfs.ActError})
	defer l.Close()
	if _, err := l.Append(&Record{Type: TBegin, TID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("first flush = %v, want injected fault", err)
	}
	if _, err := l.Append(&Record{Type: TBegin, TID: 2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed write = %v, want ErrPoisoned", err)
	}
}

// TestLostFlushNotSilentlyCommitted reconstructs the end-to-end disaster
// the poisoning prevents: commit A's records lost to a failed fsync,
// commit B synced fine after it. Without poisoning the log accepts B and
// a crash leaves a hole before B's records, so the scan never reaches
// them — B's "durable" commit evaporates.
func TestLostFlushNotSilentlyCommitted(t *testing.T) {
	mfs := faultfs.NewMem()
	l := openFaulty(t, mfs, true, faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Action: faultfs.ActError})
	l.Append(&Record{Type: TBegin, TID: 1})
	l.Append(&Record{Type: TCommit, TIDs: []xid.TID{1}})
	if err := l.Flush(); err == nil {
		t.Fatal("flush of commit A succeeded despite failed fsync")
	}
	// Commit B must NOT be accepted on the poisoned handle.
	if _, err := l.Append(&Record{Type: TBegin, TID: 2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit B accepted on poisoned log: %v", err)
	}
	l.Close()
	// Crash: nothing claimed durability, so an empty surviving log is a
	// correct outcome (no acknowledged commit is missing).
	img := mfs.CrashImage(faultfs.DropUnsynced)
	var tids []xid.TID
	if err := ScanChainFS(img, "/db", func(r *Record) error {
		if r.Type == TCommit {
			tids = append(tids, r.TIDs...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tids) != 0 {
		t.Fatalf("unexpected durable commits %v", tids)
	}
}

// TestScanOverFaultInjectedFS exercises ScanChainFS/RecoverDirFS over
// the in-memory filesystem end to end.
func TestScanOverFaultInjectedFS(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Type: TBegin, TID: 1})
	l.Append(&Record{Type: TUpdate, TID: 1, OID: 7, Kind: KindCreate, After: []byte("x")})
	l.Append(&Record{Type: TCommit, TIDs: []xid.TID{1}})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	n := 0
	if err := ScanChainFS(mfs, "/db", func(*Record) error { n++; return nil }); err != nil || n != 3 {
		t.Fatalf("scan = %d records, %v", n, err)
	}
	st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Objects[7]) != "x" || st.NextLSN != 4 {
		t.Fatalf("recovered %+v", st)
	}
	// A crash image in DropUnsynced mode keeps the synced records.
	st, err = RecoverDirFS(mfs.CrashImage(faultfs.DropUnsynced), "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Objects[7]) != "x" {
		t.Fatalf("recovered from crash image: %+v", st)
	}
}
