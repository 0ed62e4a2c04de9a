package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dep"
	"repro/internal/faultfs"
	"repro/internal/htab"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/waitgraph"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Standalone probes time one layer's public functions with nothing else
// running: what a layer costs on its own, next to what it cost inside the
// mix. Each runs its loop for probeTime and reports the mean per call.

const probeTime = 40 * time.Millisecond

// perCall runs f in batches until probeTime has passed and returns the
// mean nanoseconds per call.
func perCall(f func(i int)) float64 {
	const batch = 256
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for j := 0; j < batch; j++ {
			f(n)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func runProbes(scratch string, writers int, out map[string]float64) error {
	probeLock(out)
	probeDep(out)
	probeSubstrate(out)
	probeRPC(out)
	probeCache(out)
	return probeWAL(filepath.Join(scratch, "probe-wal"), writers, out)
}

func probeLock(out map[string]float64) {
	lm := lock.New(nil, lock.Options{EagerClosure: true})
	out["lock.probe.acquire_release_ns"] = perCall(func(i int) {
		t := xid.TID(i + 1)
		lm.Lock(t, xid.OID(i%4096+1), xid.OpWrite) //nolint:errcheck // uncontended
		lm.ReleaseAll(t)
	})
	lm.Lock(1<<40, 7, xid.OpWrite) //nolint:errcheck // uncontended
	out["lock.probe.relock_ns"] = perCall(func(int) {
		lm.Lock(1<<40, 7, xid.OpWrite) //nolint:errcheck // own covering lock
	})
	lm.ReleaseAll(1 << 40)
	lm.DeclareEscrow(9, counterInitial, 0, counterHigh) //nolint:errcheck // fresh object
	out["lock.probe.escrow_reserve_ns"] = perCall(func(i int) {
		t := xid.TID(i + 1)
		lm.EscrowReserve(t, 9, 1) //nolint:errcheck // far from the bounds
		lm.EscrowCommit(t)
		lm.ReleaseAll(t)
	})
	oids := []xid.OID{11}
	out["lock.probe.permit_ns"] = perCall(func(i int) {
		t := xid.TID(2*i + 1)
		lm.Lock(t, 11, xid.OpWrite) //nolint:errcheck // uncontended
		lm.Permit(t, t+1, oids, xid.OpAll)
		lm.ReleaseAll(t)
		lm.ReleaseAll(t + 1)
	})
	out["lock.probe.delegate_ns"] = perCall(func(i int) {
		t := xid.TID(2*i + 1)
		lm.Lock(t, 13, xid.OpWrite) //nolint:errcheck // uncontended
		lm.Delegate(t, t+1, nil)
		lm.ReleaseAll(t)
		lm.ReleaseAll(t + 1)
	})
}

func probeDep(out map[string]float64) {
	g := dep.New()
	out["dep.probe.form_ns"] = perCall(func(i int) {
		a, b := xid.TID(2*i+1), xid.TID(2*i+2)
		g.Form(xid.DepGC, a, b) //nolint:errcheck // two fresh nodes cannot cycle
		g.RemoveNode(a)
		g.RemoveNode(b)
	})
	g.Form(xid.DepGC, 1, 2) //nolint:errcheck // two fresh nodes cannot cycle
	g.Form(xid.DepGC, 2, 3) //nolint:errcheck // a chain cannot cycle
	out["dep.probe.gc_closure_ns"] = perCall(func(int) { g.GCComponent(1) })
	wg := waitgraph.New()
	out["waitgraph.probe.add_remove_ns"] = perCall(func(i int) {
		a, b := xid.TID(2*i+1), xid.TID(2*i+2)
		wg.Add(a, b)
		wg.Remove(a, b)
	})
}

func probeSubstrate(out map[string]float64) {
	m := htab.New[int](0)
	for k := uint64(0); k < 4096; k++ {
		m.Put(k, int(k))
	}
	out["htab.probe.get_ns"] = perCall(func(i int) { m.Get(uint64(i) & 4095) })
	out["htab.probe.put_ns"] = perCall(func(i int) { m.Put(uint64(i)&4095, i) })
	var l latch.Latch
	out["latch.probe.xlock_ns"] = perCall(func(int) { l.Lock(); l.Unlock() })
	out["latch.probe.rlock_ns"] = perCall(func(int) { l.RLock(); l.RUnlock() })
}

func probeCache(out map[string]float64) {
	c := storage.NewCache()
	obj := make([]byte, accountBytes)
	for k := 1; k <= 4096; k++ {
		c.Create(xid.OID(k), obj)
	}
	out["storage.probe.cache_read_ns"] = perCall(func(i int) { c.Read(xid.OID(i&4095 + 1)) })
	out["storage.probe.cache_install_ns"] = perCall(func(i int) { c.Install(xid.OID(i&4095+1), obj) })
}

func probeRPC(out map[string]float64) {
	req := &rpc.Request{ReqID: 1 << 20, Ack: 1<<20 - 1, Op: rpc.OpWrite, TID: 1 << 30, OID: 1 << 18, Data: make([]byte, accountBytes)}
	resp := &rpc.Response{ReqID: 1 << 20, Data: make([]byte, accountBytes)}
	reqBytes, respBytes := rpc.EncodeRequest(req), rpc.EncodeResponse(resp)
	out["rpc.probe.encode_request_ns"] = perCall(func(int) { rpc.EncodeRequest(req) })
	out["rpc.probe.decode_request_ns"] = perCall(func(int) { rpc.DecodeRequest(reqBytes) }) //nolint:errcheck // bytes just encoded
	out["rpc.probe.encode_response_ns"] = perCall(func(int) { rpc.EncodeResponse(resp) })
	out["rpc.probe.decode_response_ns"] = perCall(func(int) { rpc.DecodeResponse(respBytes) }) //nolint:errcheck // bytes just encoded
	// One message through the codec and the framing, both directions, over
	// an in-memory pipe: everything the wire costs short of the socket.
	var pipe bytes.Buffer
	roundTrip := func(int) {
		pipe.Reset()
		rpc.WriteFrame(&pipe, rpc.EncodeRequest(req)) //nolint:errcheck // a buffer write cannot fail
		p, _ := rpc.ReadFrame(&pipe)
		rpc.DecodeRequest(p) //nolint:errcheck // bytes just encoded
		pipe.Reset()
		rpc.WriteFrame(&pipe, rpc.EncodeResponse(resp)) //nolint:errcheck // a buffer write cannot fail
		p, _ = rpc.ReadFrame(&pipe)
		rpc.DecodeResponse(p) //nolint:errcheck // bytes just encoded
	}
	out["rpc.probe.frame_roundtrip_ns"] = perCall(roundTrip)
	var before, after runtime.MemStats
	const msgs = 2000
	runtime.ReadMemStats(&before)
	for i := 0; i < msgs; i++ {
		roundTrip(i)
	}
	runtime.ReadMemStats(&after)
	out["rpc.probe.allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / (2 * msgs)
}

// probeWAL times the segmented log alone, on the filesystem as it is, with
// no floor under its forces: an append
// into the batch slab, an append plus a forced flush, the batch size a
// cohort of writers reaches, and the replay rate of a log of updates.
func probeWAL(dir string, writers int, out map[string]float64) error {
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	open := func(sub string, sync bool) (*wal.SegmentedLog, error) {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return wal.OpenSegmentedFS(faultfs.OS{}, d, wal.SegmentedOptions{Sync: sync})
	}
	image := make([]byte, accountBytes)
	update := func(i int) *wal.Record {
		return &wal.Record{Type: wal.TUpdate, TID: xid.TID(i + 1), OID: xid.OID(i%4096 + 1), Kind: wal.KindModify, Before: image, After: image}
	}

	// Appends and the replay of what they wrote.
	l, err := open("append", false)
	if err != nil {
		return err
	}
	// Two updates and a commit per transaction, as a restock or a charge
	// would log them, forced every few thousand records.
	rec := update(0)
	out["wal.probe.append_ns"] = perCall(func(i int) {
		rec.TID = xid.TID(i/2 + 1)
		l.Append(rec) //nolint:errcheck // checked by the flush below
		if i%2 == 1 {
			l.Append(&wal.Record{Type: wal.TCommit, TIDs: []xid.TID{rec.TID}}) //nolint:errcheck // checked by the flush below
		}
		if i%4096 == 4095 {
			l.Flush() //nolint:errcheck // checked by the flush below
		}
	})
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	var logBytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "append", "wal-*.seg"))
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			logBytes += fi.Size()
		}
	}
	t0 := time.Now()
	if _, err := wal.RecoverDir(filepath.Join(dir, "append"), wal.RecoverOptions{}); err != nil {
		return err
	}
	out["wal.probe.recover_mb_s"] = float64(logBytes) / (1 << 20) / time.Since(t0).Seconds()

	// One writer, one fsync per record.
	l, err = open("force", true)
	if err != nil {
		return err
	}
	const forces = 100
	t0 = time.Now()
	for i := 0; i < forces; i++ {
		if _, err := l.Append(update(i)); err != nil {
			return err
		}
		if err := l.Flush(); err != nil {
			return err
		}
	}
	out["wal.probe.force_us"] = float64(time.Since(t0).Microseconds()) / forces
	if err := l.Close(); err != nil {
		return err
	}

	// A cohort of writers sharing forces.
	l, err = open("batch", true)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < forces; i++ {
				if _, err := l.Append(update(w*forces + i)); err != nil {
					errs[w] = err
					return
				}
				if err := l.Flush(); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if f := l.Forces(); f > 0 {
		out["wal.probe.batch_recs"] = float64(l.BatchedRecords()) / float64(f)
	}
	return l.Close()
}
