// Command walinspect dumps an ASSET write-ahead log in human-readable
// form, one record per line, and summarizes the recovery outcome. It
// takes a directory and walks the segmented chain there (manifest, then
// segments) in LSN order: a database directory dumps the engine's log,
// and a coordinator's <coord>/decisions directory dumps its TDecide
// records. A directory holding a retired single-file log is refused.
//
// Usage:
//
//	walinspect [-v] <dir>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/wal"
)

func main() {
	verbose := flag.Bool("v", false, "print image bytes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: walinspect [-v] <db-dir | coord-dir/decisions>")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	if info, err := os.Stat(dir); err == nil && !info.IsDir() {
		fmt.Fprintf(os.Stderr, "walinspect: %s is not a directory\n", dir)
		os.Exit(2)
	}
	if err := run(os.Stdout, dir, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "walinspect: %v\n", err)
		os.Exit(1)
	}
}

// run writes one line per record of the chain in dir to w, then the state
// the chain recovers to. With verbose, images are printed rather than
// their sizes.
func run(w io.Writer, dir string, verbose bool) error {
	var count, committed int
	rp := wal.NewReplayer()
	err := wal.ScanChain(dir, func(r *wal.Record) error {
		count++
		switch r.Type {
		case wal.TBegin, wal.TAbort:
			fmt.Fprintf(w, "%6d  %-10s %v\n", r.LSN, r.Type, r.TID)
		case wal.TUpdate, wal.TUndo:
			if verbose {
				fmt.Fprintf(w, "%6d  %-10s %v %v %v %q\n", r.LSN, r.Type, r.TID, r.OID, r.Kind, r.After)
			} else {
				fmt.Fprintf(w, "%6d  %-10s %v %v %v (%dB)\n", r.LSN, r.Type, r.TID, r.OID, r.Kind, len(r.After))
			}
		case wal.TDelegate:
			scope := "all objects"
			if r.OIDs != nil {
				scope = fmt.Sprintf("%d object(s)", len(r.OIDs))
			}
			fmt.Fprintf(w, "%6d  %-10s %v -> %v (%s)\n", r.LSN, r.Type, r.TID, r.TID2, scope)
		case wal.TCommit:
			committed += len(r.TIDs)
			fmt.Fprintf(w, "%6d  %-10s group=%v\n", r.LSN, r.Type, r.TIDs)
		case wal.TPrepare:
			fmt.Fprintf(w, "%6d  %-10s gid=%d group=%v\n", r.LSN, r.Type, r.GID, r.TIDs)
		case wal.TDecide:
			verdict := "abort"
			if r.Commit {
				verdict = "commit"
			}
			fmt.Fprintf(w, "%6d  %-10s gid=%d verdict=%s\n", r.LSN, r.Type, r.GID, verdict)
		case wal.TImage:
			if verbose {
				fmt.Fprintf(w, "%6d  %-10s %v %q\n", r.LSN, r.Type, r.OID, r.After)
			} else {
				fmt.Fprintf(w, "%6d  %-10s %v (%dB)\n", r.LSN, r.Type, r.OID, len(r.After))
			}
		case wal.TCheckpoint:
			fmt.Fprintf(w, "%6d  %-10s\n", r.LSN, r.Type)
		}
		return rp.Apply(r)
	})
	if err != nil {
		return err
	}
	st := rp.Finish()
	fmt.Fprintf(w, "\n%d records; recovery: %d committed txn(s), %d in-doubt group(s), %d object(s), next LSN %d\n",
		count, committed, len(st.InDoubt), len(st.Objects), st.NextLSN)
	for gid, tids := range st.InDoubt {
		fmt.Fprintf(w, "in doubt: gid=%d group=%v (awaiting coordinator verdict)\n", gid, tids)
	}
	return nil
}
