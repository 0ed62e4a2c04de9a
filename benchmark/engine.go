package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	asset "repro"
	"repro/benchmark/hist"
	"repro/client"
	"repro/internal/faultfs"
	"repro/internal/server"
	"repro/internal/txcoord"
	"repro/internal/wal"
)

// The four engine arrangements the one script runs against.
const (
	wlMem     = "mem"     // in-process manager, no log
	wlDurable = "durable" // in-process manager, group-commit WAL with an fsync per cohort
	wlRemote  = "remote"  // in-memory manager behind a server on loopback TCP
	wlTwoNode = "twonode" // two durable servers and a coordinator; xfer is 2PC
)

var workloadNames = []string{wlMem, wlDurable, wlRemote, wlTwoNode}

// openRate is each workload's fixed open-phase arrival rate in business
// transactions per second: about half the seed's median closed goodput on
// the 2-core box the bounds were taken on, rounded to two significant
// figures. It is written once here and in BENCHMARK.json and never derived
// at run time, so a faster engine shows as lower latency at the same rate.
var openRate = map[string]float64{
	wlMem:     8000,
	wlDurable: 400,
	wlRemote:  1500,
	wlTwoNode: 300,
}

func wlDurableLog(wl string) bool { return wl == wlDurable || wl == wlTwoNode }
func wlOverWire(wl string) bool   { return wl == wlRemote || wl == wlTwoNode }

// managerConfig is the one place the benchmark chooses core.Config knobs:
// every manager reaps terminated descriptors, and a durable one forces
// every commit through the group-commit log (a force per cohort, window 0)
// onto fsys.
func managerConfig(dir string, fsys faultfs.FS) asset.Config {
	cfg := asset.Config{ReapTerminated: true}
	if dir != "" {
		cfg.Dir = dir
		cfg.SyncCommits = true
		cfg.GroupCommit = true
		cfg.FS = fsys
	}
	return cfg
}

// device is what the durable arrangements write to: the real filesystem,
// whose every force (the fsync of a file or of a directory) is carried out
// and then held until forceFloor has passed since it was asked for. The
// files, the bytes, the fsyncs and the recovery are real. The floor is
// there because this sandbox's virtual disk is not steady: its median fsync
// drifts between 170 and 420 us within a minute and its tail reaches
// milliseconds whenever a neighbour writes, so the timed metrics of two
// runs of identical code differ by half and nothing could be gated on them.
// With the floor nine forces in ten take the same time; one that the disk
// makes slower than the floor still takes what the disk took. What the
// filesystem itself needed is recorded beside it (device.fsync_*), so a log
// change that makes forces dearer shows there even while it hides under the
// floor end to end.
type device struct {
	faultfs.OS
	st *deviceStats
}

// forceFloor is the 90th percentile of this sandbox's fsync when the disk
// is calm, rounded up.
const forceFloor = 500 * time.Microsecond

// deviceStats is what the device measured of itself. Forces come from the
// logs' flushers and the checkpointer, a handful of goroutines.
type deviceStats struct {
	mu    sync.Mutex
	fsync hist.Hist // the filesystem's part of each force
	force hist.Hist // the whole force as the engine saw it
	over  uint64    // forces the filesystem alone kept longer than the floor
}

func newDevice() device { return device{st: &deviceStats{}} }

func (d device) force(fsync func() error) error {
	t0 := time.Now()
	err := fsync()
	took := time.Since(t0)
	if left := forceFloor - took; left > 0 {
		ts := syscall.NsecToTimespec(int64(left))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted wait is only shorter
	}
	whole := time.Since(t0)
	d.st.mu.Lock()
	d.st.fsync.Record(int64(took))
	d.st.force.Record(int64(whole))
	if took > forceFloor {
		d.st.over++
	}
	d.st.mu.Unlock()
	return err
}

func (st *deviceStats) reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.fsync.Reset()
	st.force.Reset()
	st.over = 0
	st.mu.Unlock()
}

// report fills the device's metrics; an arrangement without a device has
// none.
func (st *deviceStats) report(m values) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m["device.fsync_p50_us"] = us(st.fsync.Quantile(0.50))
	m["device.fsync_p99_us"] = us(st.fsync.Quantile(0.99))
	m["device.force_p50_us"] = us(st.force.Quantile(0.50))
	if n := st.force.Count(); n > 0 {
		m["device.over_floor_ratio"] = float64(st.over) / float64(n)
	}
}

func (d device) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return deviceFile{f, d}, nil
}

func (d device) SyncDir(path string) error {
	return d.force(func() error { return d.OS.SyncDir(path) })
}

type deviceFile struct {
	*os.File
	d device
}

func (f deviceFile) Sync() error { return f.d.force(f.File.Sync) }

// Object ids are fixed by index so the script, both executors and the
// checker agree on them; created records get ids from the engines'
// allocators, which start above the highest id loaded.
func accountOID(i uint32) asset.OID { return asset.OID(1 + uint64(i)) }
func counterOID(i uint16) asset.OID { return asset.OID(1<<20 + uint64(i)) }
func cartOID(i uint16) asset.OID    { return asset.OID(2<<20 + uint64(i)) }

// node is one manager and, over the wire, its server and client sessions.
type node struct {
	dir     string
	m       *asset.Manager
	lis     net.Listener
	srv     *server.Server
	clients []*client.Client
}

// engine is one arrangement, opened and loaded.
type engine struct {
	workload string
	dir      string // scratch directory of this arrangement, "" for mem and remote
	dev      device // what the durable arrangements force onto
	nodes    []*node
	coord    *txcoord.Coordinator
	// nullRTT is the median unloaded round trip of a status query, in
	// nanoseconds: the wire's share of every client call in the budget.
	nullRTT int64
}

// owns reports whether node n holds index i: everything on a single
// manager, index parity across two.
func (e *engine) owns(n int, i uint32) bool {
	return len(e.nodes) == 1 || int(i&1) == n
}

// openEngine opens the arrangement under scratch, loads the objects and,
// over the wire, dials conns sessions per node. A durable arrangement is
// checkpointed after the load so the log the phases see starts empty.
func openEngine(wl, scratch string, conns int) (*engine, error) {
	e := &engine{workload: wl}
	nodes := 1
	if wl == wlTwoNode {
		nodes = 2
	}
	if wlDurableLog(wl) {
		e.dir = filepath.Join(scratch, wl)
		e.dev = newDevice()
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
	}
	for n := 0; n < nodes; n++ {
		e.nodes = append(e.nodes, &node{})
	}
	for n, nd := range e.nodes {
		if e.dir != "" {
			nd.dir = filepath.Join(e.dir, fmt.Sprintf("node%d", n))
			if err := os.MkdirAll(nd.dir, 0o755); err != nil {
				return nil, err
			}
		}
		m, err := asset.Open(managerConfig(nd.dir, e.dev))
		if err != nil {
			e.close()
			return nil, err
		}
		nd.m = m
		if err := e.load(n); err != nil {
			e.close()
			return nil, fmt.Errorf("load node %d: %w", n, err)
		}
		if nd.dir != "" {
			if err := m.Checkpoint(); err != nil {
				e.close()
				return nil, fmt.Errorf("checkpoint after load: %w", err)
			}
		}
	}
	if wl == wlTwoNode {
		coord, err := txcoord.Open(e.dev, filepath.Join(e.dir, "coord"))
		if err != nil {
			e.close()
			return nil, err
		}
		// Every participant of every round is a listed member, so a fully
		// acknowledged decision can be forgotten and the log compacted.
		coord.RetireAcked = true
		e.coord = coord
	}
	if wlOverWire(wl) {
		for _, nd := range e.nodes {
			if err := nd.serve(conns); err != nil {
				e.close()
				return nil, err
			}
		}
		rtt, err := e.nodes[0].probeNullRTT()
		if err != nil {
			e.close()
			return nil, err
		}
		e.nullRTT = rtt
	}
	return e, nil
}

// serve puts the node's manager behind a server on real loopback TCP and
// dials the client sessions.
func (nd *node) serve(conns int) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	nd.lis = lis
	// The lease is long so that a busy two-core box never expires a session
	// between heartbeats; an expiry would show as failed transactions.
	nd.srv = server.Serve(nd.m, lis, server.Config{LeaseTTL: 10 * time.Second})
	addr := lis.Addr().String()
	for i := 0; i < conns; i++ {
		cl, err := client.Dial(context.Background(), client.Options{
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			},
		})
		if err != nil {
			return err
		}
		nd.clients = append(nd.clients, cl)
	}
	return nil
}

func (nd *node) probeNullRTT() (int64, error) {
	ctx := context.Background()
	const n = 400
	samples := make([]int64, n)
	for i := range samples {
		t0 := time.Now()
		if _, err := nd.clients[0].Status(ctx, 1); err != nil {
			return 0, err
		}
		samples[i] = int64(time.Since(t0))
	}
	return medianInt64(samples), nil
}

// load creates node n's share of the objects in large transactions.
func (e *engine) load(n int) error {
	m := e.nodes[n].m
	ctx := context.Background()
	const batch = 8192
	account := make([]byte, accountBytes)
	binary.LittleEndian.PutUint64(account, accountInitial)
	for base := uint32(0); base < numAccounts; base += batch {
		if err := m.Run(ctx, asset.RunOptions{}, func(tx *asset.Tx) error {
			for i := base; i < base+batch; i++ {
				if !e.owns(n, i) {
					continue
				}
				if err := tx.CreateAt(accountOID(i), account); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := m.Run(ctx, asset.RunOptions{}, func(tx *asset.Tx) error {
		for i := uint32(0); i < numCounters; i++ {
			if !e.owns(n, i) {
				continue
			}
			oid := counterOID(uint16(i))
			if err := tx.CreateAt(oid, wal.EncodeCounter(counterInitial)); err != nil {
				return err
			}
			if err := tx.DeclareEscrow(oid, 0, counterHigh); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	cart := make([]byte, cartBytes)
	for base := uint32(0); base < numCarts; base += batch {
		if err := m.Run(ctx, asset.RunOptions{}, func(tx *asset.Tx) error {
			for i := base; i < base+batch; i++ {
				if !e.owns(n, i) {
					continue
				}
				if err := tx.CreateAt(cartOID(uint16(i)), cart); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint checkpoints every durable node; the caller has quiesced them.
func (e *engine) checkpoint() error {
	for _, nd := range e.nodes {
		if nd.dir == "" {
			continue
		}
		if err := nd.m.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// logBytes is the size of every WAL segment and decision log under the
// arrangement's directory.
func (e *engine) logBytes() int64 {
	var total int64
	for _, nd := range e.nodes {
		if nd.dir == "" {
			continue
		}
		segs, _ := filepath.Glob(filepath.Join(nd.dir, "wal-*.seg"))
		for _, p := range segs {
			if fi, err := os.Stat(p); err == nil {
				total += fi.Size()
			}
		}
	}
	if e.coord != nil {
		if fi, err := os.Stat(filepath.Join(e.dir, "coord", "coord.log")); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// hangUp closes the client sessions and servers, leaving the managers
// open for the checker.
func (e *engine) hangUp() {
	for _, nd := range e.nodes {
		for _, cl := range nd.clients {
			cl.Close() //nolint:errcheck // best-effort Bye on teardown
		}
		nd.clients = nil
		if nd.srv != nil {
			nd.srv.Close()
			nd.srv = nil
		}
		if nd.lis != nil {
			nd.lis.Close() //nolint:errcheck // already closed by the server
			nd.lis = nil
		}
	}
}

// close stops everything the arrangement started and removes its files.
func (e *engine) close() error {
	e.hangUp()
	var first error
	for _, nd := range e.nodes {
		if nd.m != nil {
			if err := nd.m.Close(); err != nil && first == nil {
				first = err
			}
			nd.m = nil
		}
	}
	if e.coord != nil {
		if err := e.coord.Close(); err != nil && first == nil {
			first = err
		}
		e.coord = nil
	}
	if e.dir != "" {
		if err := os.RemoveAll(e.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
