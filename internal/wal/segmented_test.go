package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/race"
	"repro/internal/xid"
)

// testSegOpts returns options with a tiny rotation threshold so tests
// cross many segment boundaries with little data.
func testSegOpts(sync bool) SegmentedOptions {
	return SegmentedOptions{SegmentBytes: 256, Sync: sync}
}

// appendCommitted appends n committed single-update transactions and
// returns the manager-visible images, flushing after every commit the
// way the commit protocol does.
func appendCommitted(t testing.TB, l *SegmentedLog, startTID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tid := xid.TID(startTID + i)
		oid := xid.OID(startTID + i)
		recs := []*Record{
			{Type: TBegin, TID: tid},
			{Type: TUpdate, TID: tid, OID: oid, Kind: KindCreate, After: []byte(fmt.Sprintf("v%d", tid))},
			{Type: TCommit, TIDs: []xid.TID{tid}},
		}
		for _, r := range recs {
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRecoveredRange asserts the recovered state holds exactly the
// objects appendCommitted(startTID, n) created.
func checkRecoveredRange(t *testing.T, st *State, startTID, n int) {
	t.Helper()
	if len(st.Objects) != n {
		t.Fatalf("recovered %d objects, want %d", len(st.Objects), n)
	}
	for i := 0; i < n; i++ {
		oid := xid.OID(startTID + i)
		want := fmt.Sprintf("v%d", startTID+i)
		if got := string(st.Objects[oid]); got != want {
			t.Fatalf("object %d = %q, want %q", oid, got, want)
		}
	}
}

// TestSegmentedRoundTrip: records written through the segmented log
// across many rotations recover intact.
func TestSegmentedRoundTrip(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 40)
	if seq := l.CurrentSegment(); seq < 3 {
		t.Fatalf("current segment %d: the 256-byte threshold should have rotated several times", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredRange(t, st, 1, 40)
}

// TestSegmentedReopenContinues: a reopened log adopts the chain's tail
// segment and continues the LSN sequence without gaps or reuse.
func TestSegmentedReopenContinues(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 11, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredRange(t, st, 1, 20)
	// LSN contiguity across the reopen is what scanChain validates; a
	// clean recovery already proves it, but assert the count explicitly:
	// 20 txns × 3 records each.
	if want := uint64(61); st.NextLSN != want {
		t.Fatalf("NextLSN = %d, want %d", st.NextLSN, want)
	}
}

// TestSegmentedBufferedCrashKeepsSealedSegments: in buffered mode
// (Sync=false) the tail segment's unsynced records are lost to a crash,
// but everything in sealed (rotated-away) segments must survive — the
// rotation seal fsync is what makes mid-chain holes impossible.
func TestSegmentedBufferedCrashKeepsSealedSegments(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 40)
	tail := l.CurrentSegment()
	if tail < 3 {
		t.Fatalf("expected several rotations, tail segment is %d", tail)
	}
	// Crash without closing: the tail segment's buffered suffix is gone.
	img := mfs.CrashImage(faultfs.DropUnsynced)
	st, err := RecoverDirFS(img, "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Objects) >= 40 {
		t.Fatalf("recovered all %d objects from a buffered crash; tail loss expected", len(st.Objects))
	}
	// Every sealed segment's records must be there: the recovered prefix
	// must cover at least the records that rotated into sealed segments.
	if len(st.Objects) == 0 {
		t.Fatal("recovered nothing; sealed segments should have survived the crash")
	}
	for i := 1; i <= len(st.Objects); i++ {
		want := fmt.Sprintf("v%d", i)
		if got := string(st.Objects[xid.OID(i)]); got != want {
			t.Fatalf("object %d = %q, want %q (prefix must be exact)", i, got, want)
		}
	}
}

// TestSegmentedTruncate: truncation cuts the manifest over to a fresh
// segment, deletes the old chain, and keeps LSNs monotonic.
func TestSegmentedTruncate(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 20)
	preTail := l.CurrentSegment()
	if err := l.Truncate(nil); err != nil {
		t.Fatal(err)
	}
	if seq := l.CurrentSegment(); seq != preTail+1 {
		t.Fatalf("post-truncate segment = %d, want %d", seq, preTail+1)
	}
	// The old segments must actually be gone.
	for seq := uint64(1); seq <= preTail; seq++ {
		if fileExists(mfs, segmentPath("/db", seq)) {
			t.Fatalf("segment %d survived truncation", seq)
		}
	}
	appendCommitted(t, l, 21, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveredRange(t, st, 21, 5)
	// LSNs continue past the truncated prefix: 25 txns × 3 records.
	if want := uint64(76); st.NextLSN != want {
		t.Fatalf("NextLSN = %d, want %d", st.NextLSN, want)
	}
}

// TestSegmentedTruncateKeep: the records Truncate keeps open the new
// chain, numbered on from the old one and fsynced before the cutover
// even in buffered mode; records appended after follow them.
func TestSegmentedTruncateKeep(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 10) // LSNs 1..30
	keep := []*Record{
		{Type: TDecide, GID: 7, Commit: true},
		{Type: TDecide, GID: 9, Commit: false},
	}
	if err := l.Truncate(recordsOf(keep...)); err != nil {
		t.Fatal(err)
	}
	if keep[0].LSN != 31 || keep[1].LSN != 32 {
		t.Fatalf("kept records numbered %d, %d; want 31, 32", keep[0].LSN, keep[1].LSN)
	}
	if _, err := l.Append(&Record{Type: TDecide, GID: 11, Commit: true}); err != nil {
		t.Fatal(err)
	}
	scan := func(fsys faultfs.FS) []uint64 {
		t.Helper()
		var gids []uint64
		if err := ScanChainFS(fsys, "/db", func(r *Record) error {
			if r.Type != TDecide || r.LSN != 31+uint64(len(gids)) {
				t.Fatalf("unexpected record %v at LSN %d", r.Type, r.LSN)
			}
			gids = append(gids, r.GID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return gids
	}
	// Nothing forced the later append; a crash keeps exactly the kept.
	if got := scan(mfs.CrashImage(faultfs.DropUnsynced)); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("crash image holds decisions %v, want [7 9]", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := scan(mfs); len(got) != 3 || got[2] != 11 {
		t.Fatalf("chain holds decisions %v, want [7 9 11]", got)
	}
}

// TestRefuseRetiredWALLog: a directory holding a single-file wal.log is
// refused by every reader and by the opener, with the file named — the
// retired format's committed effects would otherwise be silently lost.
func TestRefuseRetiredWALLog(t *testing.T) {
	for _, withChain := range []bool{false, true} {
		mfs := faultfs.NewMem()
		if withChain {
			l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
			if err != nil {
				t.Fatal(err)
			}
			appendCommitted(t, l, 1, 3)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
		overwrite(t, mfs, "/db/wal.log", frames(realisticRecords()))
		_, openErr := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
		_, recErr := RecoverDirFS(mfs, "/db", RecoverOptions{})
		scanErr := ScanChainFS(mfs, "/db", func(*Record) error { return nil })
		for _, err := range []error{openErr, recErr, scanErr} {
			if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "/db/wal.log") {
				t.Fatalf("chain=%v: err = %v, want ErrRetiredFormat naming /db/wal.log", withChain, err)
			}
		}
	}
}

// TestRefuseRetiredManifestFlag: an intact manifest whose legacy byte
// is 1 names a wal.log base the chain no longer reads; it is refused
// with the manifest named, while any other nonzero byte is corruption.
func TestRefuseRetiredManifestFlag(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	appendCommitted(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(readBack(t, mfs, "/db/wal.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	overwrite(t, mfs, "/db/wal.manifest", legacyManifest(man.Segments...))
	_, openErr := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	_, recErr := RecoverDirFS(mfs, "/db", RecoverOptions{})
	for _, err := range []error{openErr, recErr} {
		if !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), "wal.manifest") {
			t.Fatalf("err = %v, want ErrRetiredFormat naming wal.manifest", err)
		}
	}
	bad := legacyManifest(man.Segments...)
	bad[16] = 2
	binary.LittleEndian.PutUint32(bad[12:16], crc32.Update(0, crcTable, bad[16:]))
	if _, err := decodeManifest(bad); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("legacy byte 2: err = %v, want ErrManifestCorrupt", err)
	}
}

// TestGroupCommitSharesForce: committers that have all enqueued before
// any force starts share one physical force — the commits-per-fsync > 1
// property the WALGC experiment measures, in its deterministic core.
func TestGroupCommitSharesForce(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 8
	var appended sync.WaitGroup
	var done sync.WaitGroup
	errs := make([]error, n)
	appended.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			_, err := l.Append(&Record{Type: TCommit, TIDs: []xid.TID{xid.TID(i + 1)}})
			appended.Done()
			if err != nil {
				errs[i] = err
				return
			}
			appended.Wait() // everyone enqueues before anyone forces
			errs[i] = l.Flush()
		}(i)
	}
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if f := l.Forces(); f < 1 || f >= n {
		t.Fatalf("forces = %d, want batching (1 <= forces < %d)", f, n)
	}
	if r := l.BatchedRecords(); r != n {
		t.Fatalf("batched records = %d, want %d", r, n)
	}
}

// slowSyncFS is a disk whose fsyncs are slow: every file Sync sleeps d
// before it runs.
type slowSyncFS struct {
	faultfs.FS
	d time.Duration
}

func (s slowSyncFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := s.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.d}, nil
}

type slowSyncFile struct {
	faultfs.File
	d time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.d)
	return f.File.Sync()
}

// TestGroupCommitFollowerPoisoned: when the leader's fsync fails, a
// follower parked on the cohort must get ErrPoisoned — its records sit
// after an indeterminate hole, so acking its commit would be a lie. The
// leader itself reports the raw cause.
func TestGroupCommitFollowerPoisoned(t *testing.T) {
	mfs := faultfs.NewMem()
	// Fsyncs slow enough that the second append lands while the leader's
	// force is still on the disk.
	l, err := OpenSegmentedFS(slowSyncFS{mfs, 30 * time.Millisecond}, "/db", SegmentedOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fail the next segment fsync (the header syncs are done by now).
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Action: faultfs.ActError}))

	if _, err := l.Append(&Record{Type: TBegin, TID: 1}); err != nil {
		t.Fatal(err)
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- l.Flush() }()
	time.Sleep(10 * time.Millisecond) // let the leader take the latch and reach its fsync
	if _, err := l.Append(&Record{Type: TBegin, TID: 2}); err != nil {
		t.Fatal(err)
	}
	followerErr := l.Flush()
	lerr := <-leaderErr

	// Exactly one of the two was the leader and saw the raw injected
	// fault; the other was poisoned. Which is which can race (the
	// follower may have taken leadership), but no commit may be acked.
	if lerr == nil || followerErr == nil {
		t.Fatalf("a commit was acked over a failed fsync: leader=%v follower=%v", lerr, followerErr)
	}
	poisonCount := 0
	for _, err := range []error{lerr, followerErr} {
		if !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, ErrPoisoned) {
			t.Fatalf("unexpected error: %v", err)
		}
		if errors.Is(err, ErrPoisoned) {
			poisonCount++
		}
	}
	if poisonCount < 1 {
		t.Fatalf("no ErrPoisoned seen: leader=%v follower=%v", lerr, followerErr)
	}
	// The log stays poisoned for everything that follows.
	if _, err := l.Append(&Record{Type: TBegin, TID: 3}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed force = %v, want ErrPoisoned", err)
	}
	if err := l.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("flush after failed force = %v, want ErrPoisoned", err)
	}
	if err := l.Truncate(nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("truncate after failed force = %v, want ErrPoisoned", err)
	}
}

// TestGroupCommitEarlierBatchStaysAcked: records forced by a successful
// earlier batch remain acked even after a later batch poisons the log —
// durableLSN never retreats.
func TestGroupCommitEarlierBatchStaysAcked(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(&Record{Type: TBegin, TID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Action: faultfs.ActError}))
	if _, err := l.Append(&Record{Type: TBegin, TID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("second force succeeded despite injected fsync failure")
	}
	// The first batch's records must still be on disk after the crash;
	// the second batch's must not have been acked (and are not there).
	st, err := RecoverDirFS(mfs.CrashImage(faultfs.DropUnsynced), "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxTID != 1 {
		t.Fatalf("recovered MaxTID = %d, want 1 (first batch durable, second not)", st.MaxTID)
	}
}

// TestBatchWatermarkExcludesPostDrainAppends pins the lost-durability
// race fix: the batch's high LSN is captured inside takeBatch while the
// append latch is held, so a record that lands in the fresh slab after
// the swap — reachable, because the force leader runs off the append
// latch — is NOT covered by the batch's durability watermark. Reading
// lastLSN after the swap instead would cover it, and that committer's
// Flush would return success without its record ever being written.
func TestBatchWatermarkExcludesPostDrainAppends(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(&Record{Type: TBegin, TID: xid.TID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	batch, first, recs, high := l.takeBatch()
	// A racing committer appends while the leader is off the latch.
	lsn, err := l.Append(&Record{Type: TBegin, TID: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || recs != 3 || high != 3 {
		t.Fatalf("takeBatch = first %d recs %d high %d, want 1/3/3", first, recs, high)
	}
	if high >= lsn {
		t.Fatalf("batch watermark %d covers the post-drain append at LSN %d", high, lsn)
	}
	// Write the drained records so Close's drain keeps the chain
	// LSN-contiguous for any later scan, then recycle the buffer.
	if err := l.writeBatch(batch, first); err != nil {
		t.Fatal(err)
	}
	l.recycleBatch(batch)
}

// TestObserverDoesNotSettlePending: CurrentSegment (and any exclusive
// writer-side operation that drains nothing) must not advance the
// durability watermark — before the fix it marked the pending slab
// settled, so the following Flush no-opped and the acked record was
// missing from the crash image.
func TestObserverDoesNotSettlePending(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: TBegin, TID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: TUpdate, TID: 1, OID: 7, Kind: KindCreate, After: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: TCommit, TIDs: []xid.TID{1}}); err != nil {
		t.Fatal(err)
	}
	_ = l.CurrentSegment() // must not mark the three pending records durable
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash right after the acked Flush: the commit must be on disk.
	st, err := RecoverDirFS(mfs.CrashImage(faultfs.DropUnsynced), "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Objects[7]) != "x" {
		t.Fatalf("acked commit missing after CurrentSegment+Flush: objects %v", st.Objects)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterReleaseSettlesOnlyDrainedRecords: Truncate settles exactly
// the records it drained. A record appended while the operation held
// leadership (appends stay enabled — only forces are serialized) must
// still be written by the next Flush, not silently marked durable at
// release.
func TestWriterReleaseSettlesOnlyDrainedRecords(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: TBegin, TID: 1}); err != nil {
		t.Fatal(err)
	}
	// White-box Truncate with an append landing mid-operation.
	l.acquireWriter()
	high, ferr := l.truncateChain(nil) // drains TID 1
	if _, err := l.Append(&Record{Type: TBegin, TID: 2}); err != nil {
		t.Fatal(err)
	}
	l.releaseWriter(ferr, high)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverDirFS(mfs.CrashImage(faultfs.DropUnsynced), "/db", RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxTID != 2 {
		t.Fatalf("recovered MaxTID = %d, want 2 (mid-operation append must survive the next Flush)", st.MaxTID)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedAppendAllocFree: the enqueue fast path must not allocate
// once the batch slab has warmed up — committers on the fast path pay a
// latch and a memcpy, nothing else. It counts every allocation across the
// measured appends rather than a per-append mean, which truncates to an
// integer: one regrown slab among 400 appends fails it.
func TestSegmentedAppendAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Type: TUpdate, TID: 1, OID: 2, Kind: KindModify, Before: make([]byte, 64), After: make([]byte, 64)}
	warm := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Two warm cycles fill both sides of the double-buffered slab.
	warm(500)
	warm(500)
	// One P, as testing.AllocsPerRun measures, so no other goroutine
	// allocates between the two readings.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const appends = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d appends on the warmed fast path allocated %d objects (%d B), want 0",
			appends, n, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestSegmentedKeepsNoLargeBatch: a buffer grown past maxKeptBatch by a
// large batch (a bulk load's) is kept for the next large batch, and let
// go, as the slab and as the spare, once smaller batches follow; smaller
// batches, TestSegmentedAppendAllocFree's 500-record warm-up among them,
// and a truncation's chunks are kept for reuse.
func TestSegmentedKeepsNoLargeBatch(t *testing.T) {
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Type: TUpdate, TID: 1, OID: 2, Kind: KindModify, Before: make([]byte, 64), After: make([]byte, 64)}
	batch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	kept := func(when string) (slab, spare int) {
		t.Helper()
		l.appendMu.Lock()
		slab, spare = cap(l.slab), cap(l.spare)
		l.appendMu.Unlock()
		if slab > maxKeptBatch || spare > maxKeptBatch {
			t.Errorf("%s: the log keeps a %d-B slab and a %d-B spare, want neither over %d", when, slab, spare, maxKeptBatch)
		}
		return slab, spare
	}
	batch(500)
	batch(500)
	if slab, spare := kept("after small batches"); slab == 0 || spare == 0 {
		t.Errorf("after small batches: slab %d B, spare %d B, want both kept", slab, spare)
	}
	batch(8 * maxKeptBatch / 100) // records are over 100 B framed
	l.appendMu.Lock()
	spare := cap(l.spare)
	l.appendMu.Unlock()
	if spare <= maxKeptBatch {
		t.Errorf("after a large batch: spare %d B, want its buffer kept for the next large batch", spare)
	}
	batch(8 * maxKeptBatch / 100)
	batch(500)
	batch(500)
	kept("after two large batches and two small ones")

	err = l.Truncate(func(emit func(*Record) error) error {
		for i := 0; i < 8*maxKeptBatch/100; i++ {
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if slab, spare := kept("after a long truncation"); slab == 0 || spare == 0 {
		t.Errorf("after a long truncation: slab %d B, spare %d B, want both kept", slab, spare)
	}
}

// BenchmarkSegmentedAppend measures the enqueue fast path (run with
// -benchmem; the steady-state figure is 0 allocs/op — the CI wal-stress
// job asserts that via TestSegmentedAppendAllocFree, which is the same
// path without benchmark noise).
func BenchmarkSegmentedAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := OpenSegmented(dir, SegmentedOptions{Sync: false})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Type: TUpdate, TID: 1, OID: 2, Kind: KindModify, Before: make([]byte, 64), After: make([]byte, 64)}
	// Warm both slab buffers so the measurement sees the steady state.
	for i := 0; i < 2; i++ {
		for j := 0; j < 4096; j++ {
			l.Append(rec)
		}
		l.Flush()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			b.StopTimer()
			l.Flush() // drain off the clock so the slab doesn't grow unboundedly
			b.StartTimer()
		}
	}
}

// TestSegmentChainDamage: every damage shape a segment chain can take
// yields either a clean prefix recovery (torn tails, unlisted trailing
// segments) or a typed error (manifest-listed damage, holes with
// records after them) — never a silent partial replay.
func TestSegmentChainDamage(t *testing.T) {
	// build writes a 3+-segment chain and returns the MemFS.
	build := func(t *testing.T) *faultfs.MemFS {
		mfs := faultfs.NewMem()
		l, err := OpenSegmentedFS(mfs, "/db", testSegOpts(true))
		if err != nil {
			t.Fatal(err)
		}
		appendCommitted(t, l, 1, 20)
		if l.CurrentSegment() < 3 {
			t.Fatal("test chain too short")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return mfs
	}
	damage := func(t *testing.T, mfs *faultfs.MemFS, path string, f func(data []byte) []byte) {
		t.Helper()
		fh, err := mfs.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		st, err := fh.Stat()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, st.Size())
		if _, err := fh.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		out := f(data)
		if err := fh.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteAt(out, 0); err != nil {
			t.Fatal(err)
		}
		if err := fh.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		mutate  func(t *testing.T, mfs *faultfs.MemFS)
		wantErr error // nil = must recover cleanly
		clean   bool  // expect full 20-object recovery
	}{
		{
			name:   "pristine",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {},
			clean:  true,
		},
		{
			name: "torn final segment tail",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				// Chop bytes off the last segment: prefix recovery.
				seq := lastSegment(t, mfs)
				damage(t, mfs, segmentPath("/db", seq), func(d []byte) []byte {
					return d[:len(d)-7]
				})
			},
		},
		{
			name: "missing listed segment",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				if err := mfs.Remove(segmentPath("/db", 2)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrSegmentMissing,
		},
		{
			name: "corrupt listed header",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				damage(t, mfs, segmentPath("/db", 1), func(d []byte) []byte {
					d[3] ^= 0xff // break the magic
					return d
				})
			},
			wantErr: ErrSegmentCorrupt,
		},
		{
			name: "duplicated segment content",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				// Copy segment 1's bytes over segment 2: the header's
				// self-identification catches the duplication.
				var seg1 []byte
				damage(t, mfs, segmentPath("/db", 1), func(d []byte) []byte {
					seg1 = append([]byte(nil), d...)
					return d
				})
				damage(t, mfs, segmentPath("/db", 2), func(d []byte) []byte {
					return seg1
				})
			},
			wantErr: ErrSegmentCorrupt,
		},
		{
			name: "mid-chain records lost",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				// Empty segment 2 down to its header: segment 3's records
				// now follow a hole.
				damage(t, mfs, segmentPath("/db", 2), func(d []byte) []byte {
					return d[:segHeaderSize]
				})
			},
			wantErr: ErrSegmentGap,
		},
		{
			name: "manifest corrupt",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				damage(t, mfs, "/db/wal.manifest", func(d []byte) []byte {
					d[len(d)-1] ^= 0xff
					return d
				})
			},
			wantErr: ErrManifestCorrupt,
		},
		{
			name: "manifest truncated",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				damage(t, mfs, "/db/wal.manifest", func(d []byte) []byte {
					return d[:10]
				})
			},
			wantErr: ErrManifestCorrupt,
		},
		{
			name: "unlisted trailing segment with torn header",
			mutate: func(t *testing.T, mfs *faultfs.MemFS) {
				// Simulate a crash mid-creation: a probe segment whose
				// header never finished. Clean chain end, full recovery.
				seq := lastSegment(t, mfs) + 1
				fh, err := mfs.OpenFile(segmentPath("/db", seq), os.O_RDWR|os.O_CREATE, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				fh.Write([]byte("ASETW")) // half a magic
				fh.Sync()
				fh.Close()
			},
			clean: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mfs := build(t)
			tc.mutate(t, mfs)
			st, err := RecoverDirFS(mfs, "/db", RecoverOptions{})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.clean {
				checkRecoveredRange(t, st, 1, 20)
			}
		})
	}
}

// lastSegment returns the highest segment seq present in /db.
func lastSegment(t *testing.T, fsys faultfs.FS) uint64 {
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

// recordsOf streams recs as a Truncate keep list.
func recordsOf(recs ...*Record) Records {
	return func(emit func(*Record) error) error {
		for _, r := range recs {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
}
