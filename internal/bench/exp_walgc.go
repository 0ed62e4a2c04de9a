package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	asset "repro"
	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/xid"
	"repro/models"
)

func init() {
	register(Experiment{
		ID:     "WALGC",
		Title:  "Group-commit WAL pipeline: commits per fsync, and chain recovery",
		Anchor: "§4 log / commit protocol",
		Run:    runWALGC,
	})
}

// WALGCPoint is one measured cell of the commit-pipeline sweep; the
// points are what assetbench -walgc-baseline serializes into
// BENCH_walgc_baseline.json.
type WALGCPoint struct {
	Workers         int     `json:"workers"`           // concurrent closed-loop committers
	CommitsPerSec   float64 `json:"commits_per_sec"`   // acknowledged commit throughput
	CommitsPerFsync float64 `json:"commits_per_fsync"` // batching factor (1.0 = serial)
	P50Micros       float64 `json:"p50_us"`            // median commit latency
	P99Micros       float64 `json:"p99_us"`            // tail commit latency
}

// WALGCRecoveryPoint is the timed replay of one multi-segment chain.
type WALGCRecoveryPoint struct {
	Records int     `json:"records"` // chain length replayed
	Millis  float64 `json:"ms"`      // wall time for RecoverDir
}

// WALGCBaseline bundles both sweeps for the JSON baseline.
type WALGCBaseline struct {
	Sweep    []WALGCPoint         `json:"sweep"`
	Recovery []WALGCRecoveryPoint `json:"recovery"`
}

// WALGC measures the group-commit pipeline on a durable store. Every
// transaction updates one of a few objects and commits synchronously: it
// enqueues into the pipelined writer and shares the leader's fsync with
// whoever arrived in the same window. No commit window is configured:
// batching is purely the natural overlap of concurrent committers, so a
// single worker pays no added latency. The recovery row times the one
// sequential scan that replays a multi-segment chain.
func WALGC(quick bool) WALGCBaseline {
	dur := pick(quick, 60*time.Millisecond, 400*time.Millisecond)
	workerCounts := pick(quick, []int{1, 4}, []int{1, 2, 4, 8, 16})

	var out WALGCBaseline
	for _, workers := range workerCounts {
		out.Sweep = append(out.Sweep, walgcCell(workers, dur))
	}
	out.Recovery = walgcRecovery(quick)
	return out
}

func walgcCell(workers int, dur time.Duration) WALGCPoint {
	dir, err := os.MkdirTemp("", "asset-walgc-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	m, err := asset.Open(asset.Config{
		Dir:            dir,
		SyncCommits:    true,
		ReapTerminated: true,
	})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	oids, err := seedObjects(m, 64, 64)
	if err != nil {
		panic(err)
	}
	res := workload.RunClosed(workers, dur, func(w, i int) error {
		oid := oids[(w*31+i)%len(oids)]
		return models.Atomic(m, func(tx *asset.Tx) error {
			return tx.Write(oid, []byte("y"))
		})
	})
	commits := m.Stats().Commits
	forces := m.PhysicalForces()
	perFsync := 0.0
	if forces > 0 {
		perFsync = float64(commits) / float64(forces)
	}
	return WALGCPoint{
		Workers:         workers,
		CommitsPerSec:   float64(commits) / res.Wall.Seconds(),
		CommitsPerFsync: perFsync,
		P50Micros:       float64(res.Lat.Percentile(0.50)) / float64(time.Microsecond),
		P99Micros:       float64(res.Lat.Percentile(0.99)) / float64(time.Microsecond),
	}
}

// walgcRecovery builds one multi-segment chain of committed updates and
// times the directory recovery's one streaming scan over it.
func walgcRecovery(quick bool) []WALGCRecoveryPoint {
	txns := pick(quick, 2_000, 20_000)
	dir, err := os.MkdirTemp("", "asset-walgc-rec-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	fsys := faultfs.OS{}
	l, err := wal.OpenSegmentedFS(fsys, dir, wal.SegmentedOptions{
		SegmentBytes: 64 << 10,
		Sync:         false, // buffered build; Close seals the tail
	})
	if err != nil {
		panic(err)
	}
	for i := 1; i <= txns; i++ {
		tid := xid.TID(i)
		l.Append(&wal.Record{Type: wal.TBegin, TID: tid})
		l.Append(&wal.Record{Type: wal.TUpdate, TID: tid, OID: xid.OID(i % 512),
			Kind: wal.KindModify, After: []byte(fmt.Sprintf("r%d", i))})
		l.Append(&wal.Record{Type: wal.TCommit, TIDs: []xid.TID{tid}})
	}
	if err := l.Flush(); err != nil {
		panic(err)
	}
	if err := l.Close(); err != nil {
		panic(err)
	}
	start := time.Now()
	st, err := wal.RecoverDirFS(fsys, dir, wal.RecoverOptions{})
	elapsed := time.Since(start)
	if err != nil {
		panic(err)
	}
	if st.NextLSN != uint64(3*txns+1) {
		panic(fmt.Sprintf("walgc recovery replayed to LSN %d, want %d", st.NextLSN, 3*txns+1))
	}
	return []WALGCRecoveryPoint{{
		Records: 3 * txns,
		Millis:  float64(elapsed) / float64(time.Millisecond),
	}}
}

func runWALGC(w io.Writer, quick bool) error {
	b := WALGC(quick)
	var t Table
	t.Headers = []string{"workers", "commits/s", "commits/fsync", "p50", "p99"}
	for _, p := range b.Sweep {
		t.Add(p.Workers, fmt.Sprintf("%.0f", p.CommitsPerSec),
			fmt.Sprintf("%.2f", p.CommitsPerFsync),
			time.Duration(p.P50Micros*float64(time.Microsecond)).Round(time.Microsecond),
			time.Duration(p.P99Micros*float64(time.Microsecond)).Round(time.Microsecond))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  (group commit shares one fsync across overlapping committers; no window, so batching is pure overlap)")
	var rt Table
	rt.Headers = []string{"records", "recovery"}
	for _, p := range b.Recovery {
		rt.Add(p.Records, time.Duration(p.Millis*float64(time.Millisecond)).Round(time.Millisecond))
	}
	rt.Fprint(w)
	fmt.Fprintln(w, "  (one chain, replayed in one sequential pass as its segments are read)")
	return nil
}
