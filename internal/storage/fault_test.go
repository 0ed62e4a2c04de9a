package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// TestFailedSyncPoisonsStore is the regression test for the silent-
// retry bug class: on the seed code, a failed fsync in Sync left every
// flushed frame marked clean, so a retried Sync found nothing dirty and
// returned nil — claiming durability for pages a failed fsync may never
// have written. The store must stay poisoned instead.
func TestFailedSyncPoisonsStore(t *testing.T) {
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(1, []byte("value")); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpSync, Path: "store.dat", Nth: 1, Action: faultfs.ActError,
	}))
	if err := s.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("first sync = %v, want injected fault", err)
	}
	// The retry must refuse, not silently succeed.
	if err := s.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sync after failed fsync = %v, want ErrPoisoned", err)
	}
	if err := s.Put(2, []byte("more")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("put after failed fsync = %v, want ErrPoisoned", err)
	}
	if _, _, err := s.Get(1); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("get after failed fsync = %v, want ErrPoisoned", err)
	}
}

// TestFailedInPlaceWritePoisonsStore: a failed page write (in place,
// after the journal capture) also poisons.
func TestFailedInPlaceWritePoisonsStore(t *testing.T) {
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(1, []byte("value")); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "store.dat", Nth: 1, Action: faultfs.ActError,
	}))
	if err := s.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("sync = %v, want injected fault", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("retry = %v, want ErrPoisoned", err)
	}
}

// populate fills a store with enough records to dirty several pages and
// returns their oids and values.
func populate(t *testing.T, s *PageStore, n int) map[xid.OID][]byte {
	t.Helper()
	want := make(map[xid.OID][]byte, n)
	for i := 1; i <= n; i++ {
		oid := xid.OID(i)
		val := bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := s.Put(oid, val); err != nil {
			t.Fatal(err)
		}
		want[oid] = val
	}
	return want
}

func checkAll(t *testing.T, s *PageStore, want map[xid.OID][]byte) {
	t.Helper()
	for oid, val := range want {
		got, ok, err := s.Get(oid)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("oid %v: got %d bytes, ok=%v, err=%v", oid, len(got), ok, err)
		}
	}
}

// TestDoubleWriteHealsTornPage: crash mid in-place page write, leaving
// 512 surviving bytes of an 8 KiB page. The double-write journal was
// captured and fsynced before the in-place writes, so reopening must
// heal the torn page and lose nothing.
func TestDoubleWriteHealsTornPage(t *testing.T) {
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	want := populate(t, s, 30)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite a record so its page is dirty again, then crash tearing
	// the first in-place page write of the next sync.
	want[5] = bytes.Repeat([]byte{0xaa}, 200)
	if err := s.Put(5, want[5]); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "store.dat", Nth: 1, Action: faultfs.ActCrash, Keep: 512,
	}))
	if err := s.Sync(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("sync = %v, want crash", err)
	}
	s.Close()

	// The journal capture was synced before the in-place write, so it
	// survives even in drop-unsynced mode and heals the torn page.
	for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
		img := mfs.CrashImage(mode)
		s2, err := OpenPageStore("/db", PageStoreOptions{FS: img})
		if err != nil {
			t.Fatalf("%v: reopen: %v", mode, err)
		}
		checkAll(t, s2, want)
		s2.Close()
	}
}

// TestTornPageDetectedWithoutDoubleWrite: same tear with the journal
// disabled must NOT open silently — the page checksum catches it.
func TestTornPageDetectedWithoutDoubleWrite(t *testing.T) {
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs, NoDoubleWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	want := populate(t, s, 30)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want[5] = bytes.Repeat([]byte{0xaa}, 200)
	if err := s.Put(5, want[5]); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "store.dat", Nth: 1, Action: faultfs.ActCrash, Keep: 512,
	}))
	if err := s.Sync(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("sync = %v, want crash", err)
	}
	s.Close()

	img := mfs.CrashImage(faultfs.KeepAll)
	s2, err := OpenPageStore("/db", PageStoreOptions{FS: img, NoDoubleWrite: true})
	if err == nil {
		s2.Close()
		t.Fatal("torn page opened silently without double-write journal")
	}
}

// TestCrashDuringJournalCaptureLeavesStoreIntact: a crash while writing
// the journal itself (before any in-place write) must leave the store
// exactly at its previous synced state.
func TestCrashDuringJournalCaptureLeavesStoreIntact(t *testing.T) {
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	want := populate(t, s, 10)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(3, []byte("never-synced")); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "store.dw", Nth: 1, Action: faultfs.ActCrash, Keep: 4,
	}))
	if err := s.Sync(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("sync = %v, want crash", err)
	}
	s.Close()
	s2, err := OpenPageStore("/db", PageStoreOptions{FS: mfs.CrashImage(faultfs.DropUnsynced)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkAll(t, s2, want) // oid 3 still has its old value
}

// TestTornEvictionLeavesStoreOpenable rewrites a store many times larger
// than its 8-frame pool and tears the first write that reaches the store
// file in place to 512 bytes. Eviction once wrote dirty frames in place
// with no journal capture, so the tear hit a page mid-rewrite that nothing
// could heal and the crash image failed to open ("page 1 checksum
// mismatch"). A dirty frame now leaves the pool only through the journal:
// the image opens, and holds the old records or the new ones, never a mix.
func TestTornEvictionLeavesStoreOpenable(t *testing.T) {
	const n = 2000
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	record := func(oid, gen int) []byte { return bytes.Repeat([]byte{byte(oid + gen)}, 64) }
	for i := 1; i <= n; i++ {
		if err := s.Put(xid.OID(i), record(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "store.dat", Nth: 1, Action: faultfs.ActCrash, Keep: 512,
	}))
	err = nil
	for i := 1; i <= n && err == nil; i++ {
		err = s.Put(xid.OID(i), record(i, 1))
	}
	if err == nil {
		err = s.Sync()
	}
	if !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("rewrite = %v, want the crash", err)
	}
	s.Close()

	for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
		s2, err := OpenPageStore("/db", PageStoreOptions{FS: mfs.CrashImage(mode), PoolPages: 8})
		if err != nil {
			t.Fatalf("%v: reopen: %v", mode, err)
		}
		var gen int
		for i := 1; i <= n; i++ {
			got, ok, err := s2.Get(xid.OID(i))
			if err != nil || !ok {
				t.Fatalf("%v: oid %d: ok=%v err=%v", mode, i, ok, err)
			}
			if i == 1 {
				gen = int(got[0]) - 1
			}
			if !bytes.Equal(got, record(i, gen)) {
				t.Fatalf("%v: oid %d holds %x, want generation %d like oid 1", mode, i, got[:4], gen)
			}
		}
		s2.Close()
	}
}

// TestPageStoreOnMemFSRoundTrip: the store works end to end on the
// in-memory filesystem, across a clean close and reopen.
func TestPageStoreOnMemFSRoundTrip(t *testing.T) {
	mfs := faultfs.NewMem()
	s, err := OpenPageStore("/db", PageStoreOptions{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	want := populate(t, s, 20)
	// A blob-sized record exercises overflow chains through the fs seam.
	want[99] = bytes.Repeat([]byte("blob"), 5000)
	if err := s.Put(99, want[99]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenPageStore("/db", PageStoreOptions{FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkAll(t, s2, want)
}
