// Command assetd serves an ASSET database over the wire protocol:
// clients (package repro/client) connect over TCP, open leased sessions,
// and run extended transactions remotely with exactly-once commit
// decisions.
//
// Usage:
//
//	assetd -addr :7468                   # in-memory database
//	assetd -addr :7468 -dir mydb -sync   # durable database (recovered at start)
//	assetd -addr :7468 -dir mydb -sync -coord mydb/coord
//	                                     # + distributed-commit coordinator role
//
// With -coord the node also hosts a transaction coordinator: its durable
// decision log lives in the given directory, and the server answers
// verdict queries (OpVerdictQuery) from participants recovering in-doubt
// prepared groups — querying an undecided group forces a durable abort
// (presumed abort), so the answer is always final.
//
// The manager drops a terminated transaction's descriptor at once and
// keeps its outcome in a fixed ring of 4096 slots, indexed by tid, so a
// reconnecting client can learn the verdict of a commit whose response
// was lost while the ring still remembers it; once a tid 4096 (or a
// multiple) newer has terminated, the client reports the verdict
// unknown rather than guess.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	asset "repro"
	"repro/internal/server"
	"repro/internal/txcoord"
)

func main() {
	addr := flag.String("addr", "localhost:7468", "listen address")
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	sync := flag.Bool("sync", false, "fsync on every commit")
	lease := flag.Duration("lease", 2*time.Second, "session lease TTL (heartbeat deadline)")
	maxLive := flag.Int("max-live", 0, "admission limit on concurrently running transactions (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "per-transaction deadline enforced by the watchdog (0 = none)")
	coordDir := flag.String("coord", "", "host a distributed-commit coordinator with its decision log in this directory")
	flag.Parse()

	var coord *txcoord.Coordinator
	if *coordDir != "" {
		var err error
		if coord, err = txcoord.Open(nil, *coordDir); err != nil {
			fmt.Fprintln(os.Stderr, "assetd:", err)
			os.Exit(1)
		}
	}

	m, err := asset.Open(asset.Config{
		Dir:         *dir,
		SyncCommits: *sync,
		MaxLive:     *maxLive,
		TxnDeadline: *deadline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "assetd:", err)
		os.Exit(1)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		m.Close()
		fmt.Fprintln(os.Stderr, "assetd:", err)
		os.Exit(1)
	}
	scfg := server.Config{LeaseTTL: *lease}
	if coord != nil {
		scfg.Verdicts = coord
	}
	srv := server.Serve(m, lis, scfg)
	role := ""
	if coord != nil {
		role = fmt.Sprintf(", coordinator log in %s", *coordDir)
	}
	fmt.Printf("assetd: serving on %s (lease %v, epoch %#x%s)\n", lis.Addr(), *lease, srv.Epoch(), role)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("assetd: shutting down")
	srv.Close()
	if coord != nil {
		if err := coord.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "assetd:", err)
		}
	}
	if err := m.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "assetd:", err)
		os.Exit(1)
	}
}
