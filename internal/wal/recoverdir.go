package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/faultfs"
)

// retiredLogName is the single-file log of a database older than the
// segment chain. No writer produces it any more; a directory holding one
// is refused rather than opened around.
const retiredLogName = "wal.log"

// chainEntry is one element of the discovered log chain, in replay order.
type chainEntry struct {
	listed   bool // named by the manifest (vs discovered by probing)
	path     string
	seq      uint64
	firstLSN uint64 // filled from the segment header during the scan
}

// chainInfo is what a chain walk learns beyond the records themselves:
// everything an opener needs to resume appending.
type chainInfo struct {
	man     *manifest    // manifest as read from disk; nil if absent
	entries []chainEntry // the validated chain, in order
	nextLSN uint64

	// The chain's last valid segment, to adopt for writing; lastPath is
	// empty when the chain has none.
	lastPath string
	lastSeq  uint64
	lastEnd  int64 // offset just past its last intact record
}

// discoverChain lists the chain: the manifest's entries plus any
// trailing segments found by probing consecutive sequence numbers past
// the last listed one — a crash between segment creation and the
// manifest update leaves exactly such a segment. Files below the
// manifest's first segment are dead (truncation leftovers) and
// deliberately not probed. A retired wal.log in dir is refused.
func discoverChain(fsys faultfs.FS, dir string) ([]chainEntry, *manifest, error) {
	if p := filepath.Join(dir, retiredLogName); fileExists(fsys, p) {
		return nil, nil, fmt.Errorf("%w: %s is a single-file log", ErrRetiredFormat, p)
	}
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	var entries []chainEntry
	probeFrom := uint64(1)
	if man != nil {
		for _, s := range man.Segments {
			entries = append(entries, chainEntry{
				listed: true, path: segmentPath(dir, s.Seq), seq: s.Seq, firstLSN: s.FirstLSN,
			})
		}
		probeFrom = man.Segments[len(man.Segments)-1].Seq + 1
	}
	for seq := probeFrom; ; seq++ {
		p := segmentPath(dir, seq)
		if !fileExists(fsys, p) {
			break
		}
		entries = append(entries, chainEntry{path: p, seq: seq})
	}
	return entries, man, nil
}

func fileExists(fsys faultfs.FS, path string) bool {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// entryScan is the outcome of scanning one chain element.
type entryScan struct {
	sc      *segmentScan
	fatal   error // corruption recovery must refuse (manifest-listed damage)
	invalid bool  // a probed segment with a damaged header: clean chain end
}

// scanEntry reads one chain element. Damage to a manifest-listed element
// is fatal — the manifest promised it — while damage to a probed one
// just ends the chain: its header never became durable before the crash.
func scanEntry(fsys faultfs.FS, e chainEntry) entryScan {
	sc, err := scanSegment(fsys, e.path, e.seq)
	if err != nil {
		if !e.listed {
			return entryScan{invalid: true}
		}
		if os.IsNotExist(err) {
			err = fmt.Errorf("%w: %s", ErrSegmentMissing, filepath.Base(e.path))
		}
		return entryScan{fatal: err}
	}
	if e.listed && sc.firstLSN != e.firstLSN {
		return entryScan{fatal: fmt.Errorf("%w: %s header first LSN %d, manifest says %d",
			ErrSegmentCorrupt, filepath.Base(e.path), sc.firstLSN, e.firstLSN)}
	}
	return entryScan{sc: sc}
}

// scanChain discovers, scans, and validates the chain, delivering every
// usable record to fn in strict LSN order. Segment scans run on up to
// parallel goroutines (the chain's order constraint applies to delivery,
// not to reading); the validation merge is sequential.
//
// The chain invariant checked here is the crash-consistency argument in
// miniature: LSNs must be contiguous across the whole chain, only the
// final element may have a torn tail, and any records found after a
// torn or missing region mean corruption (ErrSegmentGap) — replaying
// around a hole would silently drop committed effects.
func scanChain(fsys faultfs.FS, dir string, parallel int, fn func(*Record) error) (*chainInfo, error) {
	entries, man, err := discoverChain(fsys, dir)
	if err != nil {
		return nil, err
	}
	results := make([]entryScan, len(entries))
	if parallel <= 1 || len(entries) <= 1 {
		for i, e := range entries {
			results[i] = scanEntry(fsys, e)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int)
		workers := parallel
		if workers > len(entries) {
			workers = len(entries)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//asset:goroutine joined-by=waitgroup
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = scanEntry(fsys, entries[i])
				}
			}()
		}
		for i := range entries {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, res := range results {
		if res.fatal != nil {
			return nil, res.fatal
		}
	}

	info := &chainInfo{man: man, nextLSN: 1}
	var expected uint64 // next LSN the chain must produce; 0 = not yet known
	broken := false     // a torn/invalid region was passed; nothing may follow
	lastValid := -1
	for i := range entries {
		res := results[i]
		if broken {
			if res.sc != nil && len(res.sc.recs) > 0 {
				return nil, fmt.Errorf("%w: %s holds records after the break",
					ErrSegmentGap, filepath.Base(entries[i].path))
			}
			continue
		}
		if res.invalid {
			broken = true
			continue
		}
		sc := res.sc
		if expected != 0 && sc.firstLSN != expected {
			if sc.firstLSN < expected {
				return nil, fmt.Errorf("%w: %s first LSN %d overlaps the chain (expected %d)",
					ErrSegmentCorrupt, filepath.Base(entries[i].path), sc.firstLSN, expected)
			}
			return nil, fmt.Errorf("%w: chain jumps from LSN %d to %d at %s",
				ErrSegmentGap, expected, sc.firstLSN, filepath.Base(entries[i].path))
		}
		if expected == 0 {
			expected = sc.firstLSN
		}
		entries[i].firstLSN = sc.firstLSN
		for _, r := range sc.recs {
			if r.LSN != expected {
				if r.LSN < expected {
					return nil, fmt.Errorf("%w: %s repeats LSN %d (expected %d)",
						ErrSegmentCorrupt, filepath.Base(entries[i].path), r.LSN, expected)
				}
				return nil, fmt.Errorf("%w: %s jumps from LSN %d to %d",
					ErrSegmentGap, filepath.Base(entries[i].path), expected, r.LSN)
			}
			if fn != nil {
				if err := fn(r); err != nil {
					return nil, err
				}
			}
			expected++
		}
		if sc.torn {
			broken = true // acceptable only if nothing with records follows
		}
		lastValid = i
	}

	if expected != 0 {
		info.nextLSN = expected
	}
	info.entries = entries[:lastValid+1]
	if lastValid >= 0 {
		e := entries[lastValid]
		info.lastPath, info.lastSeq, info.lastEnd = e.path, e.seq, results[lastValid].sc.end
	}
	return info, nil
}

// RecoverOptions configures RecoverDir.
type RecoverOptions struct {
	// Parallel caps the segment-scan workers; 0 means GOMAXPROCS, 1
	// forces a sequential scan.
	Parallel int
}

// RecoverDir replays the segmented log chain in dir from empty state and
// returns the committed state. Segments are scanned and CRC-checked in
// parallel across cores; the redo merge itself is sequential in LSN
// order, so the result is bit-identical to a sequential replay (the
// differential suite holds it to that against RecoverDirSequential).
func RecoverDir(dir string, opts RecoverOptions) (*State, error) {
	return RecoverDirFS(faultfs.OS{}, dir, opts)
}

// RecoverDirFS is RecoverDir over an injected filesystem.
func RecoverDirFS(fsys faultfs.FS, dir string, opts RecoverOptions) (*State, error) {
	par := opts.Parallel
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return replayChain(fsys, dir, par)
}

// RecoverDirSequential is the reference replayer the differential suite
// compares RecoverDir against: one strictly sequential streaming pass, no
// worker machinery at all. It is deliberately the dumbest correct
// implementation.
func RecoverDirSequential(dir string) (*State, error) {
	return RecoverDirSequentialFS(faultfs.OS{}, dir)
}

// RecoverDirSequentialFS is RecoverDirSequential over an injected
// filesystem.
func RecoverDirSequentialFS(fsys faultfs.FS, dir string) (*State, error) {
	return replayChain(fsys, dir, 1)
}

// replayChain replays every record of the chain in dir, in LSN order, as
// the scan delivers it.
func replayChain(fsys faultfs.FS, dir string, parallel int) (*State, error) {
	rp := newReplayer()
	info, err := scanChain(fsys, dir, parallel, func(r *Record) error {
		rp.apply(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := rp.finish()
	if info.nextLSN > st.NextLSN {
		// An empty tail segment still pins the LSN sequence forward.
		st.NextLSN = info.nextLSN
	}
	return st, nil
}

// ScanChain reads every intact record of the chain in dir in LSN order,
// invoking fn for each (walinspect uses it).
func ScanChain(dir string, fn func(*Record) error) error {
	return ScanChainFS(faultfs.OS{}, dir, fn)
}

// ScanChainFS is ScanChain over an injected filesystem.
func ScanChainFS(fsys faultfs.FS, dir string, fn func(*Record) error) error {
	_, err := scanChain(fsys, dir, 1, fn)
	return err
}
