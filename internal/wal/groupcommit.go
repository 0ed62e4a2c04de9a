package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// SegmentedLog is the pipelined group-commit write-ahead log: a chain of
// fixed-size(ish) segment files (see segment.go) fed by a leader/cohort
// force protocol.
//
// Append is the enqueue fast path: it assigns the LSN and frames the
// record into an in-memory slab under a short latch — no file I/O — so
// appends never wait behind an fsync. Flush is the force: the first
// caller that finds no force in flight becomes the leader, swaps the
// slab for an empty spare, writes the whole batch with one file write,
// issues one fsync, and wakes the cohort; callers that arrive while a
// force is in flight park on the cohort condvar and are covered by a
// later batch. Appends keep landing in the fresh slab while the leader
// is on the disk, which is what pipelines commit throughput: batch N+1
// forms while batch N syncs, and commits-per-fsync grows with offered
// load instead of every committer paying a private force.
//
// A failed write or fsync poisons the log: the
// batch's records are in an indeterminate state on disk, so the leader
// returns the cause, every parked follower gets ErrPoisoned (no commit
// is ever acked over a hole), and all later appends and forces refuse.
type SegmentedLog struct {
	fsys     faultfs.FS
	dir      string
	segBytes int64
	syncOn   bool

	// Cohort state: force leadership, the durability watermark the
	// cohort parks on, and the force counters. Ordered before the
	// append latch; the two are never held together — the leader
	// releases stateMu before draining the slab.
	//asset:latch order=70
	stateMu    sync.Mutex
	cond       *sync.Cond
	inFlight   bool   // a leader is off the latch forcing a batch
	durableLSN uint64 // every record at or below this LSN is forced
	forces     uint64 // physical forces (non-empty batches written)
	batchRecs  uint64 // records covered by those forces

	// Enqueue fast path: the slab the next batch drains. Held only for
	// the in-memory frame append and the swap; never across I/O.
	//asset:latch order=80
	appendMu  sync.Mutex
	slab      []byte
	spare     []byte // recycled batch buffer, swapped in at drain
	slabFirst uint64 // LSN of the slab's first record (0 = empty slab)
	slabRecs  uint64
	nextLSN   uint64
	lastLSN   atomic.Uint64

	closed   atomic.Bool
	poisoned atomic.Bool
	perr     error // set once, before poisoned; wraps ErrPoisoned

	// Writer-side state, owned by whoever holds force leadership
	// (inFlight) — the leader, Truncate, or Close. Not latched: the
	// leadership protocol serializes access.
	cur     faultfs.File
	curSeq  uint64
	curSize int64
	man     *manifest
}

// SegmentedOptions configures OpenSegmented.
type SegmentedOptions struct {
	// SegmentBytes is the rotation threshold: a batch that lands on a
	// segment already at or past it goes to a fresh segment. 0 picks
	// the default (16 MiB). Segments may overshoot by up to one batch.
	SegmentBytes int64
	// Sync makes every force an fsync (durable commits); false drains
	// to the OS cache only, the fast mode.
	Sync bool
}

// DefaultSegmentBytes is the rotation threshold when
// SegmentedOptions.SegmentBytes is zero.
const DefaultSegmentBytes = 16 << 20

// OpenSegmented opens (creating if needed) the segmented log in dir and
// positions appends after the last intact record of the chain.
func OpenSegmented(dir string, opts SegmentedOptions) (*SegmentedLog, error) {
	return OpenSegmentedFS(faultfs.OS{}, dir, opts)
}

// OpenSegmentedFS is OpenSegmented over an injected filesystem.
func OpenSegmentedFS(fsys faultfs.FS, dir string, opts SegmentedOptions) (*SegmentedLog, error) {
	return OpenScanFS(fsys, dir, opts, nil)
}

// OpenScanFS is OpenSegmentedFS that also hands every intact record of
// the chain to fn (when non-nil), in LSN order, during the one scan that
// finds where appends resume. fn may see records of a chain the scan
// goes on to refuse: a caller discards what it built when OpenScanFS
// returns an error.
func OpenScanFS(fsys faultfs.FS, dir string, opts SegmentedOptions, fn func(*Record) error) (*SegmentedLog, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	info, err := scanChain(fsys, dir, fn)
	if err != nil {
		return nil, err
	}
	l := &SegmentedLog{
		fsys:     fsys,
		dir:      dir,
		segBytes: opts.SegmentBytes,
		syncOn:   opts.Sync,
		nextLSN:  info.nextLSN,
		man:      &manifest{},
	}
	l.cond = sync.NewCond(&l.stateMu)
	l.lastLSN.Store(info.nextLSN - 1)
	l.durableLSN = info.nextLSN - 1

	for _, e := range info.entries {
		l.man.Segments = append(l.man.Segments, manifestSegment{Seq: e.seq, FirstLSN: e.firstLSN})
	}
	manifestDirty := info.man == nil || len(info.man.Segments) != len(l.man.Segments)

	if info.lastPath != "" {
		// Adopt the final segment as the write target, dropping its torn
		// tail.
		f, err := fsys.OpenFile(info.lastPath, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open %s: %w", info.lastPath, err)
		}
		if err := f.Truncate(info.lastEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if _, err := f.Seek(info.lastEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.cur, l.curSeq, l.curSize = f, info.lastSeq, info.lastEnd
	} else {
		// Fresh directory, or a torn trailing segment whose header never
		// became durable: start the chain at segment 1 (a torn probed
		// wal-000001.seg is recreated in place by O_TRUNC).
		seq := uint64(1)
		f, err := createSegment(fsys, dir, seq, info.nextLSN)
		if err != nil {
			return nil, err
		}
		l.cur, l.curSeq, l.curSize = f, seq, segHeaderSize
		l.man.Segments = append(l.man.Segments, manifestSegment{Seq: seq, FirstLSN: info.nextLSN})
		manifestDirty = true
	}
	if manifestDirty {
		if err := writeManifest(fsys, dir, l.man); err != nil {
			l.cur.Close()
			return nil, err
		}
	}
	return l, nil
}

// createSegment creates a fresh segment file with a durable header.
func createSegment(fsys faultfs.FS, dir string, seq, firstLSN uint64) (faultfs.File, error) {
	f, err := fsys.OpenFile(segmentPath(dir, seq), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := encodeSegmentHeader(seq, firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	// The header is fsynced before the segment is linked into the
	// manifest, so a manifest-listed segment always has a durable
	// header; a crash in between leaves an unlisted trailing segment
	// recovery discovers by probing.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	// The directory entry must be as durable as the header: a segment
	// whose entry is lost in a crash takes every record forced into it
	// along — acked-durable commits silently gone behind a clean chain
	// end. Forcing it here, before the first batch can land (and so
	// before any force into this segment is acked), closes that window.
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append encodes r, assigns it the next LSN (stored into r.LSN), and
// frames it into the pending batch slab. No file I/O happens here; the
// record becomes durable when a force covering its LSN completes. It
// keeps neither r nor the slices r points to, so the caller may reuse
// them as soon as the call is over. Allocation-free once the slab has
// warmed to the batch working set (TestSegmentedAppendAllocFree).
func (l *SegmentedLog) Append(r *Record) (uint64, error) {
	l.appendMu.Lock()
	lsn, err := l.appendHeld(r)
	l.appendMu.Unlock()
	return lsn, err
}

// appendHeld is Append's body, for a caller that holds appendMu.
func (l *SegmentedLog) appendHeld(r *Record) (uint64, error) {
	if l.closed.Load() {
		return 0, errAppendClosed
	}
	if l.poisoned.Load() {
		return 0, l.perr
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	if l.slabFirst == 0 {
		l.slabFirst = r.LSN
	}
	l.slab = appendFrame(l.slab, r)
	l.slabRecs++
	l.lastLSN.Store(r.LSN)
	return r.LSN, nil
}

// takeBatch swaps the slab for the recycled spare and returns the
// pending batch. Called by whoever holds force leadership. first is the
// LSN of the batch's first record, or for an empty batch the LSN the
// next append will take. high is the LSN of the batch's last record (0
// for an empty batch). Both are computed while
// the append latch is held: appends race the leader here — the core
// appends under its mutex while a leader forces with it released — and
// a record that slips into the fresh slab after the swap belongs
// to the NEXT batch. Reading lastLSN after the swap would cover it with
// this batch's watermark and ack its commit without its bytes ever
// reaching disk.
func (l *SegmentedLog) takeBatch() (batch []byte, first, recs, high uint64) {
	l.appendMu.Lock()
	batch, first, recs = l.slab, l.slabFirst, l.slabRecs
	if recs > 0 {
		// LSNs are assigned contiguously under appendMu, so the slab
		// covers exactly [first, first+recs-1].
		high = first + recs - 1
	} else {
		first = l.nextLSN
	}
	l.slab = l.spare[:0]
	l.spare = nil
	l.slabFirst, l.slabRecs = 0, 0
	l.appendMu.Unlock()
	return batch, first, recs, high
}

// maxKeptBatch is the largest batch buffer the log keeps once its batches
// are small again: room for a truncation chunk and the record that
// crosses it, so Truncate's slab is reused from chunk to chunk.
const maxKeptBatch = 2 * truncateChunk

// recycleBatch returns a drained batch buffer for reuse as the next
// spare slab. A buffer grown past maxKeptBatch is kept only while the
// batch it carried needed it: a run of bulk-load batches reuses one
// buffer rather than regrowing it for every batch, and the first batch
// within maxKeptBatch drained from it lets it go, so a load's buffer,
// and through the slab swap a second one, is not held for the life of
// the log.
func (l *SegmentedLog) recycleBatch(batch []byte) {
	if cap(batch) > maxKeptBatch && len(batch) <= maxKeptBatch {
		return
	}
	l.appendMu.Lock()
	if l.spare == nil {
		l.spare = batch[:0]
	}
	l.appendMu.Unlock()
}

// Flush forces every record appended so far, sharing the physical force
// with concurrent callers: one caller leads, the rest park and are woken
// when a force covering their records completes. A follower of a failed
// batch gets an error wrapping ErrPoisoned — its records may sit after a
// hole, so acking them would claim durability the disk cannot back.
func (l *SegmentedLog) Flush() error {
	need := l.lastLSN.Load()
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	for {
		// Records the cohort already forced stay good even if the log
		// was poisoned afterwards: durableLSN only ever advances over
		// batches whose fsync succeeded.
		if l.durableLSN >= need {
			return nil
		}
		if l.poisoned.Load() {
			return l.perr
		}
		if l.inFlight {
			l.cond.Wait()
			continue
		}
		// Become the force leader for everything pending, this caller's
		// records included.
		l.inFlight = true
		l.stateMu.Unlock()
		batch, first, recs, high := l.takeBatch()
		err := l.writeBatch(batch, first)
		l.recycleBatch(batch)
		l.stateMu.Lock()
		l.inFlight = false
		if err != nil {
			l.poisonLocked(err)
			l.cond.Broadcast() // wake the cohort to see the poison
			return err         // the leader reports the cause itself
		}
		if recs > 0 {
			l.forces++
			l.batchRecs += recs
			// Advance the watermark to exactly the batch's high LSN — an
			// empty batch leaves it alone, and it never retreats.
			if high > l.durableLSN {
				l.durableLSN = high
			}
		}
		l.cond.Broadcast()
	}
}

// Sync is Flush for a record that must be on disk whatever the Sync policy
// (core's tid floor): it drains the pending batch and fsyncs the current
// segment even in buffered mode. Every earlier segment was sealed with an
// fsync when the chain rotated past it.
func (l *SegmentedLog) Sync() error {
	l.acquireWriter()
	if l.closed.Load() {
		l.releaseWriter(nil, 0)
		return errAppendClosed
	}
	var err error
	var high uint64
	if l.poisoned.Load() {
		err = l.perr
	} else {
		var batch []byte
		var first uint64
		batch, first, _, high = l.takeBatch()
		err = l.writeBatch(batch, first)
		l.recycleBatch(batch)
		if err == nil && !l.syncOn {
			err = l.cur.Sync()
		}
	}
	l.releaseWriter(err, high)
	return err
}

// poisonLocked records the first failure; later calls keep the original
// cause. Caller holds stateMu.
func (l *SegmentedLog) poisonLocked(cause error) {
	if !l.poisoned.Load() {
		l.perr = fmt.Errorf("%w: %w", ErrPoisoned, cause)
		l.poisoned.Store(true)
	}
}

// writeBatch writes one drained batch to the chain, rotating to a fresh
// segment first when the current one is full. Leader-owned; no latches
// held — appends keep flowing into the new slab meanwhile.
func (l *SegmentedLog) writeBatch(batch []byte, firstLSN uint64) error {
	if len(batch) == 0 {
		return nil
	}
	if l.curSize >= l.segBytes {
		if err := l.rotate(firstLSN); err != nil {
			return err
		}
	}
	if _, err := l.cur.Write(batch); err != nil {
		return err
	}
	l.curSize += int64(len(batch))
	if l.syncOn {
		if err := l.cur.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// rotate seals the current segment and switches writing to a fresh one
// whose first record will carry firstLSN. The seal fsync runs even in
// buffered mode: only the final segment of the chain may ever have a
// torn tail, which is what lets recovery treat any mid-chain hole as
// corruption instead of silently replaying around it.
//
//asset:durable before=createSegment
func (l *SegmentedLog) rotate(firstLSN uint64) error {
	if err := l.cur.Sync(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return err
	}
	seq := l.curSeq + 1
	f, err := createSegment(l.fsys, l.dir, seq, firstLSN)
	if err != nil {
		return err
	}
	l.man.Segments = append(l.man.Segments, manifestSegment{Seq: seq, FirstLSN: firstLSN})
	if err := writeManifest(l.fsys, l.dir, l.man); err != nil {
		f.Close()
		return err
	}
	l.cur, l.curSeq, l.curSize = f, seq, segHeaderSize
	return nil
}

// acquireWriter takes force leadership for an exclusive writer-side
// operation (Truncate, Close), waiting out any in-flight force.
func (l *SegmentedLog) acquireWriter() {
	l.stateMu.Lock()
	for l.inFlight {
		l.cond.Wait()
	}
	l.inFlight = true
	l.stateMu.Unlock()
}

// releaseWriter drops leadership. A non-nil err is recorded as poison;
// otherwise high — the highest LSN the operation actually drained and
// settled, 0 for none — advances the durability watermark. The caller
// reports what it drained rather than this function reading lastLSN,
// because appends concurrent with the operation land in the fresh slab:
// marking them settled here would let a later Flush no-op over records
// that were never written.
func (l *SegmentedLog) releaseWriter(err error, high uint64) {
	l.stateMu.Lock()
	l.inFlight = false
	if err != nil {
		l.poisonLocked(err)
	} else if high > l.durableLSN {
		l.durableLSN = high
	}
	l.cond.Broadcast()
	l.stateMu.Unlock()
}

// Records is a stream of log records: it calls emit with each record in
// turn and returns the first error emit returns. emit is done with a
// record when it returns, so a stream may reuse one Record, and the
// slices it points to, for every call.
type Records func(emit func(*Record) error) error

// truncateChunk bounds the batch Truncate frames kept records into
// before writing them out, so a stream of any length passes through a
// slab of about this size.
const truncateChunk = 64 << 10

// Truncate replaces the chain with a fresh segment, continuing the LSN
// sequence, that holds the records keep streams (nil keeps none)
// followed by anything appended meanwhile. The old chain is drained and
// sealed first; the new segment is filled, through a bounded batch, and
// fsynced, whatever the Sync policy, before the manifest is cut over to
// it atomically; only then are the old segment files deleted. A crash
// anywhere in between recovers the old chain (possibly followed by a
// prefix of the new segment, a probed continuation) or the new chain
// alone; files below the manifest's first segment are ignored by
// recovery. The new segment is never rotated while it fills, so a long
// stream makes one oversized segment. Each kept record is appended as
// by Append, its LSN stored into it.
func (l *SegmentedLog) Truncate(keep Records) error {
	l.acquireWriter()
	high, err := l.truncateChain(keep)
	l.releaseWriter(err, high)
	return err
}

// truncateChain performs the cutover, returning the high LSN of the
// new segment's records (one below its first LSN when it has none) so
// the release settles exactly the records it wrote; every lower LSN
// was in the sealed old chain.
//
// Seal-before-publish: the old chain's fsync must dominate the new
// segment's creation, or a crash between them loses appended records
// (the PR 6 truncation-without-seal bug, §11).
//
//asset:durable before=startSegment
func (l *SegmentedLog) truncateChain(keep Records) (uint64, error) {
	if l.poisoned.Load() {
		return 0, l.perr
	}
	// Drain whatever is still pending into the old chain first, so the
	// cutover never discards an appended record.
	batch, first, recs, _ := l.takeBatch()
	err := l.writeBatch(batch, first)
	l.recycleBatch(batch)
	if err != nil {
		return 0, err
	}
	// Seal the old chain before the new segment's header can become
	// durable: if a crash lands between the two, recovery must find the
	// old chain complete up to exactly the new segment's first LSN, not a
	// gap where buffered records evaporated (the crash matrix sweeps this
	// boundary).
	if err := l.cur.Sync(); err != nil {
		return 0, err
	}
	seq, next := l.curSeq+1, first+recs
	f, size, high, err := l.startSegment(seq, next, keep)
	if err != nil {
		return 0, err
	}
	old := l.man
	l.man = &manifest{Segments: []manifestSegment{{Seq: seq, FirstLSN: next}}}
	if err := writeManifest(l.fsys, l.dir, l.man); err != nil {
		f.Close()
		l.man = old
		return 0, err
	}
	// The manifest now starts at the new segment: the old chain is dead
	// regardless of whether these deletes all land before a crash.
	prev := l.cur
	l.cur, l.curSeq, l.curSize = f, seq, size
	firstErr := prev.Close()
	for _, s := range old.Segments {
		if err := l.fsys.Remove(segmentPath(l.dir, s.Seq)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return high, firstErr
}

// startSegment creates segment seq, whose first record carries firstLSN,
// appends keep's records, writing the batch out whenever it reaches
// truncateChunk, and fsyncs the segment: once the manifest names it, it
// holds the only copy of its records. It returns the segment, its size
// and the LSN of its last record (firstLSN-1 for none). A segment that
// fails to become durable is unlinked again, so that a reopen after the
// failure cannot adopt a file whose lost writes a later append would
// sit behind.
func (l *SegmentedLog) startSegment(seq, firstLSN uint64, keep Records) (f faultfs.File, size int64, high uint64, err error) {
	f, err = createSegment(l.fsys, l.dir, seq, firstLSN)
	if err != nil {
		l.unlinkSegment(seq)
		return nil, 0, 0, err
	}
	size, high = segHeaderSize, firstLSN-1
	drain := func() error {
		batch, _, recs, last := l.takeBatch()
		defer l.recycleBatch(batch)
		if recs == 0 {
			return nil
		}
		if _, err := f.Write(batch); err != nil {
			return err
		}
		size += int64(len(batch))
		high = last
		return nil
	}
	if keep != nil {
		err = keep(func(r *Record) error {
			// One latch hold appends the record and reads the batch's size.
			l.appendMu.Lock()
			_, err := l.appendHeld(r)
			pending := len(l.slab)
			l.appendMu.Unlock()
			if err != nil || pending < truncateChunk {
				return err
			}
			return drain()
		})
	}
	if err == nil {
		err = drain()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		l.unlinkSegment(seq)
		return nil, 0, 0, err
	}
	return f, size, high, nil
}

// unlinkSegment removes an unpublished segment after a failed start.
func (l *SegmentedLog) unlinkSegment(seq uint64) {
	if l.fsys.Remove(segmentPath(l.dir, seq)) == nil {
		_ = l.fsys.SyncDir(l.dir) // best effort: the cause is what the caller reports
	}
}

// Close drains the pending batch and closes the chain.
func (l *SegmentedLog) Close() error {
	l.acquireWriter()
	l.closed.Store(true)
	var err error
	var high uint64
	if !l.poisoned.Load() {
		var batch []byte
		var first uint64
		batch, first, _, high = l.takeBatch()
		err = l.writeBatch(batch, first)
		l.recycleBatch(batch)
	}
	if l.cur != nil {
		if cerr := l.cur.Close(); err == nil {
			err = cerr
		}
		l.cur = nil
	}
	l.releaseWriter(err, high)
	return err
}

// LastLSN reports the LSN of the last record appended (0 for none yet).
func (l *SegmentedLog) LastLSN() uint64 { return l.lastLSN.Load() }

// Forces reports the number of physical forces (non-empty batches
// written); Commits / Forces is the commits-per-fsync batching factor
// the WALGC experiment measures.
func (l *SegmentedLog) Forces() uint64 {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.forces
}

// BatchedRecords reports the total records covered by physical forces —
// BatchedRecords / Forces is the mean batch size.
func (l *SegmentedLog) BatchedRecords() uint64 {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.batchRecs
}

// CurrentSegment reports the active segment's sequence number, for
// tests asserting rotation behaviour. It drains nothing, so it releases
// with high 0 — the durability watermark must not move (an observer
// marking pending slab records settled would let a later Flush no-op
// over them).
func (l *SegmentedLog) CurrentSegment() uint64 {
	l.acquireWriter()
	seq := l.curSeq
	l.releaseWriter(nil, 0)
	return seq
}
