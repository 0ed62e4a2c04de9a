package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// retiredLogName is the single-file log of a database older than the
// segment chain. No writer produces it any more; a directory holding one
// is refused rather than opened around.
const retiredLogName = "wal.log"

// chainEntry is one element of the discovered log chain, in replay order.
type chainEntry struct {
	listed   bool // named by the manifest (vs discovered by probing)
	dead     bool // probed, and its header never became durable: the chain ends
	path     string
	seq      uint64
	firstLSN uint64 // the manifest's, then the segment header's
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

// readHeaders is the header pass of a chain scan: it reads every
// segment's header, fills in its first LSN, and marks a probed segment
// whose header never became durable as dead. Damage to a
// manifest-listed segment is fatal — the manifest promised it — and is
// reported here, ahead of anything the record pass would find, wherever
// in the chain it sits.
func readHeaders(fsys faultfs.FS, entries []chainEntry) error {
	for i := range entries {
		e := &entries[i]
		firstLSN, err := readSegmentHeader(fsys, e.path, e.seq)
		switch {
		case err != nil && !e.listed:
			e.dead = true
		case os.IsNotExist(err):
			return fmt.Errorf("%w: %s", ErrSegmentMissing, filepath.Base(e.path))
		case err != nil:
			return err
		case e.listed && firstLSN != e.firstLSN:
			return fmt.Errorf("%w: %s header first LSN %d, manifest says %d",
				ErrSegmentCorrupt, filepath.Base(e.path), firstLSN, e.firstLSN)
		}
		e.firstLSN = firstLSN
	}
	return nil
}

// scanChain discovers and validates the chain in one sequential pass,
// handing every usable record to fn (when non-nil) in strict LSN order
// as soon as it is decoded; no segment's records are held. fn may see
// records of a chain the scan goes on to refuse, so a caller discards
// what it built when scanChain returns an error.
//
// The chain invariant checked here is the crash-consistency argument in
// miniature: LSNs must be contiguous across the whole chain, only the
// final element may have a torn tail, and any records found after a
// torn or missing region mean corruption (ErrSegmentGap) — replaying
// around a hole would silently drop committed effects.
func scanChain(fsys faultfs.FS, dir string, fn func(*Record) error) (*chainInfo, error) {
	entries, man, err := discoverChain(fsys, dir)
	if err != nil {
		return nil, err
	}
	if err := readHeaders(fsys, entries); err != nil {
		return nil, err
	}
	if fn == nil {
		fn = func(*Record) error { return nil }
	}
	info := &chainInfo{man: man, nextLSN: 1}
	var expected uint64 // next LSN the chain must produce; 0 = not yet known
	broken := false     // a torn/dead region was passed; no record may follow
	lastValid := -1
	for i, e := range entries {
		name := filepath.Base(e.path)
		if e.dead {
			broken = true
			continue
		}
		if broken {
			if _, _, err := scanSegment(fsys, e.path, func(*Record) error {
				return fmt.Errorf("%w: %s holds records after the break", ErrSegmentGap, name)
			}); err != nil {
				return nil, err
			}
			continue
		}
		if expected != 0 && e.firstLSN != expected {
			if e.firstLSN < expected {
				return nil, fmt.Errorf("%w: %s first LSN %d overlaps the chain (expected %d)",
					ErrSegmentCorrupt, name, e.firstLSN, expected)
			}
			return nil, fmt.Errorf("%w: chain jumps from LSN %d to %d at %s",
				ErrSegmentGap, expected, e.firstLSN, name)
		}
		if expected == 0 {
			expected = e.firstLSN
		}
		end, torn, err := scanSegment(fsys, e.path, func(r *Record) error {
			if r.LSN < expected {
				return fmt.Errorf("%w: %s repeats LSN %d (expected %d)", ErrSegmentCorrupt, name, r.LSN, expected)
			}
			if r.LSN > expected {
				return fmt.Errorf("%w: %s jumps from LSN %d to %d", ErrSegmentGap, name, expected, r.LSN)
			}
			expected++
			return fn(r)
		})
		if err != nil {
			return nil, err
		}
		broken = torn // acceptable only if nothing with records follows
		lastValid = i
		info.lastPath, info.lastSeq, info.lastEnd = e.path, e.seq, end
	}
	if expected != 0 {
		info.nextLSN = expected
	}
	info.entries = entries[:lastValid+1]
	return info, nil
}

// RecoverOptions configures RecoverDir. It has no fields left: recovery
// is one sequential pass over the chain.
type RecoverOptions struct{}

// RecoverDir replays the segmented log chain in dir from empty state and
// returns the committed state, in one streaming pass over the chain.
func RecoverDir(dir string, opts RecoverOptions) (*State, error) {
	return RecoverDirFS(faultfs.OS{}, dir, opts)
}

// RecoverDirFS is RecoverDir over an injected filesystem.
func RecoverDirFS(fsys faultfs.FS, dir string, _ RecoverOptions) (*State, error) {
	rp := NewReplayer()
	info, err := scanChain(fsys, dir, rp.Apply)
	if err != nil {
		return nil, err
	}
	st := rp.Finish()
	// An empty tail segment still pins the LSN sequence forward.
	st.NextLSN = max(st.NextLSN, info.nextLSN)
	return st, nil
}

// ScanChain reads every intact record of the chain in dir in LSN order,
// invoking fn for each (walinspect uses it).
func ScanChain(dir string, fn func(*Record) error) error {
	return ScanChainFS(faultfs.OS{}, dir, fn)
}

// ScanChainFS is ScanChain over an injected filesystem.
func ScanChainFS(fsys faultfs.FS, dir string, fn func(*Record) error) error {
	_, err := scanChain(fsys, dir, fn)
	return err
}
