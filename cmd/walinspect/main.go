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
	var count int
	rp := wal.NewReplayer()
	err := wal.ScanChain(dir, func(r *wal.Record) error {
		count++
		switch r.Type {
		case wal.TBegin, wal.TAbort:
			fmt.Printf("%6d  %-10s %v\n", r.LSN, r.Type, r.TID)
		case wal.TUpdate:
			if *verbose {
				fmt.Printf("%6d  %-10s %v %v %v before=%q after=%q\n",
					r.LSN, r.Type, r.TID, r.OID, r.Kind, r.Before, r.After)
			} else {
				fmt.Printf("%6d  %-10s %v %v %v (%dB -> %dB)\n",
					r.LSN, r.Type, r.TID, r.OID, r.Kind, len(r.Before), len(r.After))
			}
		case wal.TUndo:
			fmt.Printf("%6d  %-10s %v %v %v (%dB)\n", r.LSN, r.Type, r.TID, r.OID, r.Kind, len(r.After))
		case wal.TDelegate:
			scope := "all objects"
			if r.OIDs != nil {
				scope = fmt.Sprintf("%d object(s)", len(r.OIDs))
			}
			fmt.Printf("%6d  %-10s %v -> %v (%s)\n", r.LSN, r.Type, r.TID, r.TID2, scope)
		case wal.TCommit:
			fmt.Printf("%6d  %-10s group=%v\n", r.LSN, r.Type, r.TIDs)
		case wal.TPrepare:
			fmt.Printf("%6d  %-10s gid=%d group=%v\n", r.LSN, r.Type, r.GID, r.TIDs)
		case wal.TDecide:
			verdict := "abort"
			if r.Commit {
				verdict = "commit"
			}
			fmt.Printf("%6d  %-10s gid=%d verdict=%s\n", r.LSN, r.Type, r.GID, verdict)
		case wal.TImage:
			if *verbose {
				fmt.Printf("%6d  %-10s %v %q\n", r.LSN, r.Type, r.OID, r.After)
			} else {
				fmt.Printf("%6d  %-10s %v (%dB)\n", r.LSN, r.Type, r.OID, len(r.After))
			}
		case wal.TCheckpoint:
			fmt.Printf("%6d  %-10s\n", r.LSN, r.Type)
		}
		return rp.Apply(r)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "walinspect: %v\n", err)
		os.Exit(1)
	}
	st := rp.Finish()
	fmt.Printf("\n%d records; recovery: %d committed txn(s), %d loser(s), %d in-doubt group(s), %d object(s), next LSN %d\n",
		count, len(st.Committed), len(st.Losers), len(st.InDoubt), len(st.Objects), st.NextLSN)
	for gid, tids := range st.InDoubt {
		fmt.Printf("in doubt: gid=%d group=%v (awaiting coordinator verdict)\n", gid, tids)
	}
}
