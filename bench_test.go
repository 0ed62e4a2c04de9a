// bench_test.go holds the testing.B entry points, one per experiment in
// DESIGN.md §4 and EXPERIMENTS.md: E1–E14, the ablations A1–A4 and the
// sweeps LOCK, RESIL, WALGC, HOTKEY, RPC and DIST. Run them with
//
//	go test -run '^$' -bench . -benchmem
//
// Closed-loop experiments run their workers from b.RunParallel. Those
// whose workers block (think time, fsyncs, the wire) name par=N: N
// workers per GOMAXPROCS, so -cpu 1 gives the worker counts the tables
// list. CPU-bound ones run one worker per GOMAXPROCS and take their worker
// count from -cpu. Beside ns/op a closed loop reports the tables' columns:
// ok/s (operations that succeeded, per second), p50-us and p99-us
// (operation latency) and failed/op.
package asset_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	asset "repro"
	"repro/client"
	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/htab"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/server"
	"repro/internal/txcoord"
	"repro/internal/waitgraph"
	"repro/internal/wal"
	"repro/internal/xid"
	"repro/models"
	"repro/workflow"
)

func benchManager(b *testing.B) *asset.Manager {
	b.Helper()
	return benchOpen(b, asset.Config{})
}

func benchOpen(b *testing.B, cfg asset.Config) *asset.Manager {
	b.Helper()
	m, err := asset.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m
}

func benchSeed(b *testing.B, m *asset.Manager, n, size int) []asset.OID {
	b.Helper()
	return benchCreate(b, m, n, make([]byte, size), func(*asset.Tx, asset.OID) error { return nil })
}

// benchCounters creates n counters holding init; with escrow each gets
// the bounds [0, 2*init].
func benchCounters(b *testing.B, m *asset.Manager, n int, init uint64, escrow bool) []asset.OID {
	b.Helper()
	return benchCreate(b, m, n, wal.EncodeCounter(init), func(tx *asset.Tx, oid asset.OID) error {
		if !escrow {
			return nil
		}
		return tx.DeclareEscrow(oid, 0, 2*init)
	})
}

// benchCreate creates n objects holding data in one transaction, calling
// then on each.
func benchCreate(b *testing.B, m *asset.Manager, n int, data []byte, then func(*asset.Tx, asset.OID) error) []asset.OID {
	b.Helper()
	oids := make([]asset.OID, 0, n)
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.Create(data)
			if err != nil {
				return err
			}
			if err := then(tx, oid); err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return oids
}

// workers is how many goroutines b.RunParallel starts at parallelism par.
func workers(par int) int { return par * runtime.GOMAXPROCS(0) }

// closedLoop runs op on b.RunParallel's workers, par per GOMAXPROCS, until
// b.N operations have run. Each worker passes its index in
// [0, workers(par)) and how many operations it has run so far. It reports
// ok/s, p50-us, p99-us and failed/op.
func closedLoop(b *testing.B, par int, op func(w, i int) error) {
	b.SetParallelism(par)
	var (
		next, failed atomic.Int64
		mu           sync.Mutex
		lat          []time.Duration
	)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1) - 1)
		var s latencySample
		for i := 0; pb.Next(); i++ {
			t0 := time.Now()
			if op(w, i) != nil {
				failed.Add(1)
			}
			s.add(time.Since(t0))
		}
		mu.Lock()
		lat = append(lat, s.d...)
		mu.Unlock()
	})
	wall := time.Since(start)
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(int64(b.N)-failed.Load())/wall.Seconds(), "ok/s")
	b.ReportMetric(percentileUS(lat, 0.50), "p50-us")
	b.ReportMetric(percentileUS(lat, 0.99), "p99-us")
	b.ReportMetric(float64(failed.Load())/float64(b.N), "failed/op")
}

// sampleCap bounds the latencies one closed-loop worker keeps.
const sampleCap = 1 << 14

// latencySample is a uniform reservoir sample of one worker's operation
// latencies.
type latencySample struct {
	d    []time.Duration
	seen uint64
	rng  uint64
}

func (s *latencySample) add(d time.Duration) {
	s.seen++
	if len(s.d) < sampleCap {
		s.d = append(s.d, d)
		return
	}
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	if j := (s.rng >> 33) % s.seen; j < sampleCap {
		s.d[j] = d
	}
}

// percentileUS is the p-th percentile of sorted, in microseconds.
func percentileUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := max(int(math.Ceil(p*float64(len(sorted))))-1, 0)
	return float64(sorted[i]) / float64(time.Microsecond)
}

// perOp reports n, a count over the whole run, per operation.
func perOp(b *testing.B, n uint64, unit string) {
	b.ReportMetric(float64(n)/float64(b.N), unit)
}

// background runs fn in a loop on its own goroutine until the returned
// stop is called; stop fails b if fn did.
func background(b *testing.B, fn func() error) (stop func()) {
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-quit:
				done <- nil
				return
			default:
			}
			if err := fn(); err != nil {
				done <- err
				return
			}
		}
	}()
	return func() {
		close(quit)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimitives — E1: empty-transaction lifecycle cost.
func BenchmarkPrimitives(b *testing.B) {
	noop := func(tx *asset.Tx) error { return nil }
	for _, arm := range []struct {
		name string
		run  func(m *asset.Manager, t asset.TID) error
	}{
		{"initiate-begin-commit", func(m *asset.Manager, t asset.TID) error {
			if err := m.Begin(t); err != nil {
				return err
			}
			return m.Commit(t)
		}},
		{"initiate-execute-commit", func(m *asset.Manager, t asset.TID) error {
			if err := m.Execute(t); err != nil {
				return err
			}
			return m.Commit(t)
		}},
		{"initiate-begin-wait-commit", func(m *asset.Manager, t asset.TID) error {
			if err := m.Begin(t); err != nil {
				return err
			}
			if err := m.Wait(t); err != nil {
				return err
			}
			return m.Commit(t)
		}},
		{"initiate-begin-wait-abort", func(m *asset.Manager, t asset.TID) error {
			if err := m.Begin(t); err != nil {
				return err
			}
			if err := m.Wait(t); err != nil {
				return err
			}
			return m.Abort(t)
		}},
		{"initiate-abort", func(m *asset.Manager, t asset.TID) error { return m.Abort(t) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			m := benchManager(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := m.Initiate(noop)
				if err != nil {
					b.Fatal(err)
				}
				if err := arm.run(m, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// lockKeys returns, for worker w, the object and mode of the worker's
// i-th grant.
type lockKeys func(w int) func(i int) (xid.OID, xid.OpSet)

// lockMix draws keys uniformly, or Zipf(1.2), from objects keys and writes
// writePct percent of the time.
func lockMix(objects uint64, zipf bool, writePct int) lockKeys {
	return func(w int) func(i int) (xid.OID, xid.OpSet) {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		next := func() uint64 { return rng.Uint64() % objects }
		if zipf {
			next = rand.NewZipf(rng, 1.2, 1, objects-1).Uint64
		}
		return func(i int) (xid.OID, xid.OpSet) {
			mode := xid.OpRead
			if i%100 < writePct {
				mode = xid.OpWrite
			}
			return xid.OID(next() + 1), mode
		}
	}
}

// BenchmarkLockThroughput — E2 and LOCK: lock-manager throughput over
// lock-table shards × key distribution; txn=N is the grants a transaction
// holds before it releases them all. E2's loads take one grant per
// transaction over 1k or 100k objects, uniform or Zipf, 10% or 50%
// writes. LOCK's take 16: disjoint write-locks keys private to each
// worker, so only the lock table's latches are shared; hotspot
// read-locks 8 keys every worker shares. Its bulk arms take 256 and 8192
// (disjoint-fresh): write locks on keys private to the worker that no
// transaction has locked before, the shape of a bulk load, so a lock's
// cost shows against the size of its transaction.
func BenchmarkLockThroughput(b *testing.B) {
	type load struct {
		name   string
		perTxn int
		keys   lockKeys
	}
	var loads []load
	for _, dist := range []string{"uniform", "zipf"} {
		for _, objects := range []uint64{1_000, 100_000} {
			for _, writePct := range []int{10, 50} {
				loads = append(loads, load{
					name:   fmt.Sprintf("%s-%dk-w%d", dist, objects/1000, writePct),
					perTxn: 1,
					keys:   lockMix(objects, dist == "zipf", writePct),
				})
			}
		}
	}
	loads = append(loads,
		load{"disjoint", 16, func(w int) func(i int) (xid.OID, xid.OpSet) {
			return func(i int) (xid.OID, xid.OpSet) {
				return xid.OID(uint64(w)<<32 | uint64(i%512) + 1), xid.OpWrite
			}
		}},
		load{"hotspot", 16, func(w int) func(i int) (xid.OID, xid.OpSet) {
			return func(i int) (xid.OID, xid.OpSet) { return xid.OID(uint64(i+w)%8 + 1), xid.OpRead }
		}})
	for _, perTxn := range []int{256, 8192} {
		loads = append(loads, load{"disjoint-fresh", perTxn, func(w int) func(i int) (xid.OID, xid.OpSet) {
			return func(i int) (xid.OID, xid.OpSet) { return xid.OID(uint64(w)<<40 | uint64(i) + 1), xid.OpWrite }
		}})
	}
	for _, shards := range []int{1, 4, 16, 64} {
		for _, l := range loads {
			b.Run(fmt.Sprintf("shards=%d/txn=%d/%s", shards, l.perTxn, l.name), func(b *testing.B) {
				lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: true, Shards: shards})
				keys := make([]func(int) (xid.OID, xid.OpSet), workers(1))
				for w := range keys {
					keys[w] = l.keys(w)
				}
				closedLoop(b, 1, func(w, i int) error {
					tid := xid.TID(uint64(w)<<40 | uint64(i/l.perTxn) + 1)
					oid, mode := keys[w](i)
					err := lm.Lock(tid, oid, mode)
					if i%l.perTxn == l.perTxn-1 {
						lm.ReleaseAll(tid)
					}
					return err
				})
			})
		}
	}
}

// BenchmarkCooperatePermitVsBlock — E3: one update per op on a shared
// object, handed between two transactions that stay active under mutual
// permits, or committed once per handoff.
func BenchmarkCooperatePermitVsBlock(b *testing.B) {
	incr := func(tx *asset.Tx, oid asset.OID) error {
		return tx.Update(oid, func(bb []byte) []byte { bb[0]++; return bb })
	}
	b.Run("permit-ping-pong", func(b *testing.B) {
		m := benchManager(b)
		oid := benchSeed(b, m, 1, 8)[0]
		turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		side := func(me int) asset.TxnFunc {
			return func(tx *asset.Tx) error {
				for r := me; r < b.N; r += 2 {
					<-turn[me]
					if err := incr(tx, oid); err != nil {
						return err
					}
					turn[1-me] <- struct{}{}
				}
				return nil
			}
		}
		b.ResetTimer()
		ti, err := m.Initiate(side(0))
		if err != nil {
			b.Fatal(err)
		}
		tj, err := m.Initiate(side(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.FormDependency(asset.CD, ti, tj); err != nil {
			b.Fatal(err)
		}
		if err := m.Permit(ti, tj, []asset.OID{oid}, asset.OpAll); err != nil {
			b.Fatal(err)
		}
		if err := m.Permit(tj, ti, []asset.OID{oid}, asset.OpAll); err != nil {
			b.Fatal(err)
		}
		if err := m.Begin(ti, tj); err != nil {
			b.Fatal(err)
		}
		turn[0] <- struct{}{}
		if err := m.Commit(ti); err != nil {
			b.Fatal(err)
		}
		if err := m.Commit(tj); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("commit-per-handoff", func(b *testing.B) {
		m := benchManager(b)
		oid := benchSeed(b, m, 1, 8)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := models.Atomic(m, func(tx *asset.Tx) error { return incr(tx, oid) }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNestedVsFlat — E4: depth writes in one flat transaction, or
// one write per level of a nesting depth deep.
func BenchmarkNestedVsFlat(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("flat-depth%d", depth), func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, depth, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := models.Atomic(m, func(tx *asset.Tx) error {
					for _, oid := range oids {
						if err := tx.Write(oid, []byte("flat")); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nested-depth%d", depth), func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, depth, 16)
			var nest func(tx *asset.Tx, level int) error
			nest = func(tx *asset.Tx, level int) error {
				if err := tx.Write(oids[level], []byte("nest")); err != nil {
					return err
				}
				if level+1 == depth {
					return nil
				}
				return models.Sub(tx, func(c *asset.Tx) error { return nest(c, level+1) })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := models.Atomic(m, func(tx *asset.Tx) error { return nest(tx, 0) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// activity runs E5's long-lived activity once: one write per object,
// each followed by think, as one transaction ("long-txn") or as a saga of
// one step per object.
func activity(m *asset.Manager, mode string, oids []asset.OID, think time.Duration) error {
	step := func(oid asset.OID) asset.TxnFunc {
		return func(tx *asset.Tx) error {
			if err := tx.Write(oid, []byte("activity")); err != nil {
				return err
			}
			time.Sleep(think)
			return nil
		}
	}
	if mode == "long-txn" {
		return models.Atomic(m, func(tx *asset.Tx) error {
			for _, oid := range oids {
				if err := step(oid)(tx); err != nil {
					return err
				}
			}
			return nil
		})
	}
	s := models.NewSaga(m)
	for _, oid := range oids {
		s.Step("s", step(oid), nil)
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	return res.Err()
}

// BenchmarkSagaVsLongTxn — E5. long-txn and saga time the k=8 activity
// itself; background/k=K/mode runs it in a loop, with 1ms of think time
// per step, while background writers update the same objects, and
// reports the writers' ok/s and p99 and the deadlock victims per write.
func BenchmarkSagaVsLongTxn(b *testing.B) {
	modes := []string{"long-txn", "saga"}
	for _, mode := range modes {
		b.Run(mode, func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, 8, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := activity(m, mode, oids, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, k := range []int{2, 8, 32} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("background/k=%d/%s", k, mode), func(b *testing.B) {
				m := benchManager(b)
				hot := benchSeed(b, m, k, 16)
				stop := background(b, func() error { return activity(m, mode, hot, time.Millisecond) })
				closedLoop(b, 4, func(w, i int) error {
					oid := hot[(w+i)%len(hot)]
					return models.Atomic(m, func(tx *asset.Tx) error { return tx.Write(oid, []byte("bg")) })
				})
				stop()
				perOp(b, m.Stats().Deadlocks, "victims/op")
			})
		}
	}
}

// BenchmarkGroupCommit — E6 and WALGC. group=N commits N empty
// transactions under one GC group: forces/txn is log forces per commit.
// cohort/par=P is WALGC (and E6's second table): closed-loop workers
// each commit a write to one of 64 objects on a durable database that
// fsyncs every commit, and independent committers share the log's
// physical forces.
func BenchmarkGroupCommit(b *testing.B) {
	for _, size := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("group=%d", size), func(b *testing.B) {
			m := benchManager(b)
			fns := make([]asset.TxnFunc, size)
			for i := range fns {
				fns[i] = func(tx *asset.Tx) error { return nil }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := models.Distributed(m, fns...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.Stats().LogForces)/float64(m.Stats().Commits), "forces/txn")
		})
	}
	for _, par := range []int{1, 2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("cohort/par=%d", par), func(b *testing.B) {
			m := benchOpen(b, asset.Config{Dir: b.TempDir(), SyncCommits: true})
			oids := benchSeed(b, m, 64, 64)
			commits, forces := m.Stats().Commits, m.PhysicalForces()
			closedLoop(b, par, func(w, i int) error {
				oid := oids[(w*31+i)%len(oids)]
				return models.Atomic(m, func(tx *asset.Tx) error { return tx.Write(oid, []byte("y")) })
			})
			commits, forces = m.Stats().Commits-commits, m.PhysicalForces()-forces
			b.ReportMetric(float64(forces)/float64(commits), "forces/txn")
			b.ReportMetric(float64(commits)/float64(forces), "commits/fsync")
		})
	}
}

// delegatePair initiates a worker that writes every object in oids and a
// holder with an empty body, begins both, and waits for the worker.
func delegatePair(b *testing.B, m *asset.Manager, oids []asset.OID) (worker, holder asset.TID) {
	worker, err := m.Initiate(func(tx *asset.Tx) error {
		for _, oid := range oids {
			if err := tx.Write(oid, []byte("w")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if holder, err = m.Initiate(func(tx *asset.Tx) error { return nil }); err != nil {
		b.Fatal(err)
	}
	if err := m.Begin(worker, holder); err != nil {
		b.Fatal(err)
	}
	if err := m.Wait(worker); err != nil {
		b.Fatal(err)
	}
	return worker, holder
}

// BenchmarkDelegate — E7: one delegate of a worker's writes on N objects
// to a holder, naming the objects (explicit) or not (all); set-up and
// commit are not timed.
func BenchmarkDelegate(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		for _, arm := range []string{"all", "explicit"} {
			b.Run(fmt.Sprintf("objects=%d/%s", n, arm), func(b *testing.B) {
				m := benchManager(b)
				oids := benchSeed(b, m, n, 32)
				var set []asset.OID
				if arm == "explicit" {
					set = oids
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					worker, holder := delegatePair(b, m, oids)
					b.StartTimer()
					if err := m.Delegate(worker, holder, set...); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := m.Commit(holder); err != nil {
						b.Fatal(err)
					}
					if err := m.Commit(worker); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/object")
			})
		}
	}
}

// BenchmarkSagaAbort — E8: a saga whose step k+1 fails, so ct_k..ct_1
// run.
func BenchmarkSagaAbort(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("steps=%d", k), func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, k, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := models.NewSaga(m)
				for _, oid := range oids {
					s.Step("s",
						func(tx *asset.Tx) error { return tx.Write(oid, []byte("done")) },
						func(tx *asset.Tx) error { return tx.Write(oid, []byte("undone")) })
				}
				s.Step("fail", func(tx *asset.Tx) error { return errors.New("boom") }, nil)
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Committed) != k || len(res.Compensated) != k {
					b.Fatalf("committed %d, compensated %d, want %d each", len(res.Committed), len(res.Compensated), k)
				}
			}
		})
	}
}

// BenchmarkCursorStability — E9. The mode alone times one scan of 64
// records; writers/mode runs a scanner over 128 records with 500µs of
// think time per record in a loop while writers update random records.
func BenchmarkCursorStability(b *testing.B) {
	modes := []struct {
		name string
		mode models.CursorMode
	}{{"repeatable-read", models.RepeatableRead}, {"cursor-stability", models.CursorStability}}
	scan := func(m *asset.Manager, mode models.CursorMode, oids []asset.OID, think time.Duration) error {
		return models.Atomic(m, func(tx *asset.Tx) error {
			return models.Scan(tx, mode, oids, func(asset.OID, []byte) error {
				time.Sleep(think)
				return nil
			})
		})
	}
	for _, md := range modes {
		b.Run(md.name, func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, 64, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := scan(m, md.mode, oids, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, md := range modes {
		b.Run("writers/"+md.name, func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, 128, 32)
			rngs := make([]*rand.Rand, workers(4))
			for w := range rngs {
				rngs[w] = rand.New(rand.NewSource(int64(w + 1)))
			}
			stop := background(b, func() error { return scan(m, md.mode, oids, 500*time.Microsecond) })
			closedLoop(b, 4, func(w, i int) error {
				oid := oids[rngs[w].Intn(len(oids))]
				return models.Atomic(m, func(tx *asset.Tx) error { return tx.Write(oid, []byte("written")) })
			})
			stop()
		})
	}
}

// BenchmarkRecovery — E10 and WALGC's recovery row. replay applies 12k
// in-memory records; open/updates=N reopens a database holding N
// committed updates and a loser that was in flight when it closed,
// checks every committed value and reports the objects recovered; chain
// replays a 60k-record log of 64 KB segments from disk.
func BenchmarkRecovery(b *testing.B) {
	b.Run("replay", func(b *testing.B) {
		recs := make([]*wal.Record, 0, 10_000)
		lsn := uint64(1)
		for t := xid.TID(1); t <= 2000; t++ {
			recs = append(recs, &wal.Record{LSN: lsn, Type: wal.TBegin, TID: t})
			lsn++
			for j := 0; j < 4; j++ {
				recs = append(recs, &wal.Record{
					LSN: lsn, Type: wal.TUpdate, TID: t,
					OID: xid.OID(uint64(t)%256 + 1), Kind: wal.KindModify,
					Before: []byte("before"), After: []byte("after"),
				})
				lsn++
			}
			recs = append(recs, &wal.Record{LSN: lsn, Type: wal.TCommit, TIDs: []xid.TID{t}})
			lsn++
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := wal.RecoverRecords(recs)
			if len(st.Objects) == 0 {
				b.Fatal("recovery produced nothing")
			}
		}
		b.ReportMetric(float64(len(recs)), "records/op")
	})
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("open/updates=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			want := crashedDatabase(b, dir, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := asset.Open(asset.Config{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for oid, v := range want {
					if got, ok := m.Cache().Read(oid); !ok || got[0] != v {
						b.Fatalf("object %d = %v, want committed %d", oid, got, v)
					}
				}
				b.ReportMetric(float64(m.Cache().Len()), "objects")
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
	b.Run("chain", func(b *testing.B) {
		const txns = 20_000
		dir := b.TempDir()
		fsys := faultfs.OS{}
		l, err := wal.OpenSegmentedFS(fsys, dir, wal.SegmentedOptions{SegmentBytes: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= txns; i++ {
			tid := xid.TID(i)
			for _, r := range []*wal.Record{
				{Type: wal.TBegin, TID: tid},
				{Type: wal.TUpdate, TID: tid, OID: xid.OID(i % 512), Kind: wal.KindModify, After: []byte(fmt.Sprintf("r%d", i))},
				{Type: wal.TCommit, TIDs: []xid.TID{tid}},
			} {
				if _, err := l.Append(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := wal.RecoverDirFS(fsys, dir, wal.RecoverOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if st.NextLSN != 3*txns+1 {
				b.Fatalf("replayed to LSN %d, want %d", st.NextLSN, 3*txns+1)
			}
		}
		b.ReportMetric(3*txns, "records/op")
	})
}

// crashedDatabase commits n updates over 256 objects in dir, in
// transactions of 50, then closes the manager under a loser that has
// written an object, and returns each object's committed first byte.
func crashedDatabase(b *testing.B, dir string, n int) map[asset.OID]byte {
	m, err := asset.Open(asset.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	oids := benchSeed(b, m, 256, 64)
	const batch = 50
	want := make(map[asset.OID]byte, len(oids))
	for i := 0; i < n/batch; i++ {
		if err := models.Atomic(m, func(tx *asset.Tx) error {
			for j := 0; j < batch; j++ {
				oid := oids[(i*batch+j)%len(oids)]
				if err := tx.Write(oid, []byte{byte(i + j)}); err != nil {
					return err
				}
				want[oid] = byte(i + j)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	hold, wrote := make(chan struct{}), make(chan error, 1)
	loser, err := m.Initiate(func(tx *asset.Tx) error {
		wrote <- tx.Write(oids[0], []byte{0xFF})
		<-hold
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Begin(loser); err != nil {
		b.Fatal(err)
	}
	if err := <-wrote; err != nil {
		b.Fatal(err)
	}
	m.Close() // the crash: the loser is still running
	close(hold)
	return want
}

// BenchmarkLockPathFig1 — E11: grant latency vs permit-list length.
func BenchmarkLockPathFig1(b *testing.B) {
	for _, pds := range []int{0, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("pds=%d", pds), func(b *testing.B) {
			lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: true})
			const obj = xid.OID(1)
			if err := lm.Lock(1, obj, xid.OpWrite); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < pds; i++ {
				lm.Permit(xid.TID(1000+i), xid.TID(2000+i), []xid.OID{obj}, xid.OpRead)
			}
			lm.Permit(1, xid.NilTID, []xid.OID{obj}, xid.OpAll)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tid := xid.TID(10_000 + i)
				if err := lm.Lock(tid, obj, xid.OpWrite); err != nil {
					b.Fatal(err)
				}
				lm.ReleaseAll(tid)
			}
		})
	}
}

// errAlternative is the failure of a contingent alternative.
var errAlternative = errors.New("alternative failed")

// BenchmarkContingent — E12. alternatives=N/last: every alternative but
// the last fails; alternatives=N/fail=P: each fails with probability P%,
// and tried/op is the alternatives run per activity.
func BenchmarkContingent(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("alternatives=%d/last", n), func(b *testing.B) {
			m := benchManager(b)
			fns := make([]asset.TxnFunc, n)
			for i := range fns {
				last := i == n-1
				fns[i] = func(tx *asset.Tx) error {
					if last {
						return nil
					}
					return errAlternative
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := models.Contingent(m, fns...); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, failPct := range []int{25, 75} {
			b.Run(fmt.Sprintf("alternatives=%d/fail=%d", n, failPct), func(b *testing.B) {
				m := benchManager(b)
				rng := rand.New(rand.NewSource(int64(n*100 + failPct)))
				var tried uint64
				fns := make([]asset.TxnFunc, n)
				for i := range fns {
					fns[i] = func(tx *asset.Tx) error {
						tried++
						if rng.Intn(100) < failPct {
							return errAlternative
						}
						return nil
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := models.Contingent(m, fns...); err != nil && !errors.Is(err, errAlternative) {
						b.Fatal(err)
					}
				}
				perOp(b, tried, "tried/op")
			})
		}
	}
}

// BenchmarkWorkflow — E13: the conference-trip activity, booked, with the
// hotel full (the flight is compensated), or with no flight (it fails
// fast).
func BenchmarkWorkflow(b *testing.B) {
	for _, sc := range []struct {
		name                  string
		hotelFull, flightFull bool
	}{{"booked", false, false}, {"hotel-full", true, false}, {"no-flight", false, true}} {
		b.Run(sc.name, func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, 3, 32)
			flight, hotel, car := oids[0], oids[1], oids[2]
			book := func(name string, full bool, oid asset.OID) workflow.Task {
				return workflow.Task{
					Name: name,
					Action: func(tx *asset.Tx) error {
						if full {
							return errors.New("sold out")
						}
						return tx.Write(oid, []byte(name))
					},
					Compensate: func(tx *asset.Tx) error { return tx.Write(oid, []byte("-")) },
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := workflow.New("X_conference").
					Alternatives("flight",
						book("Delta", sc.flightFull, flight),
						book("United", sc.flightFull, flight),
						book("American", sc.flightFull, flight)).
					Step(book("Equator", sc.hotelFull, hotel)).
					Race("car", book("National", false, car), book("Avis", false, car)).Optional().
					Run(m)
				if err != nil {
					b.Fatal(err)
				}
				if booked := res.Err() == nil; booked != (sc.name == "booked") {
					b.Fatalf("%s: outcome %v", sc.name, res.Err())
				}
			}
		})
	}
}

// hotkeyInit is the value every counter of BenchmarkCommutativity starts
// at; the escrow arm's bounds [0, 2*hotkeyInit] are wide enough that the
// ±1 deltas never reach them.
const hotkeyInit = uint64(1) << 20

// BenchmarkCommutativity — E14 and HOTKEY: counter deltas as escrow
// increments, whose grants commute, or as read-modify-writes under an
// exclusive lock. hot is E14: one counter, one delta per transaction.
// zipf is HOTKEY: two distinct counters per transaction drawn Zipf(1.5)
// from 64, visited in order, then 200µs of think time before the commit.
// An exclusive transaction that loses a deadlock is retried up to ten
// times, and failed/op counts the ones that ran out.
func BenchmarkCommutativity(b *testing.B) {
	for _, ld := range []struct {
		name             string
		counters, perTxn int
		think            time.Duration
	}{{"hot", 1, 1, 0}, {"zipf", 64, 2, 200 * time.Microsecond}} {
		for _, mode := range []string{"escrow", "exclusive"} {
			for _, par := range []int{1, 4, 8, 16, 32} {
				b.Run(fmt.Sprintf("%s/%s/par=%d", ld.name, mode, par), func(b *testing.B) {
					m := benchManager(b)
					oids := benchCounters(b, m, ld.counters, hotkeyInit, mode == "escrow")
					zipfs := make([]*rand.Zipf, workers(par))
					for w := range zipfs {
						zipfs[w] = rand.NewZipf(rand.New(rand.NewSource(int64(w+1))), 1.5, 1, uint64(ld.counters-1))
					}
					closedLoop(b, par, func(w, i int) error {
						keys := distinctKeys(zipfs[w], ld.perTxn)
						delta := int64(1)
						if (w+i)%2 == 1 {
							delta = -1
						}
						if mode == "escrow" {
							return models.Atomic(m, func(tx *asset.Tx) error {
								for _, k := range keys {
									if err := tx.Add(oids[k], delta); err != nil {
										return err
									}
								}
								time.Sleep(ld.think)
								return nil
							})
						}
						return asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 10}, func(tx *asset.Tx) error {
							for _, k := range keys {
								if err := tx.Update(oids[k], func(v []byte) []byte {
									return wal.EncodeCounter(wal.DecodeCounter(v) + uint64(delta))
								}); err != nil {
									return err
								}
							}
							time.Sleep(ld.think)
							return nil
						})
					})
					perOp(b, m.Stats().Deadlocks, "victims/op")
				})
			}
		}
	}
}

// distinctKeys draws k distinct keys from z, sorted: the deadlock-free
// visit order.
func distinctKeys(z *rand.Zipf, k int) []uint64 {
	keys := make([]uint64, 0, k)
	for len(keys) < k {
		if c := z.Uint64(); !slices.Contains(keys, c) {
			keys = append(keys, c)
		}
	}
	slices.Sort(keys)
	return keys
}

// BenchmarkLatch — A1: the test-and-set latch against sync.Mutex and
// sync.RWMutex, exclusive and shared.
func BenchmarkLatch(b *testing.B) {
	b.Run("latch-X", func(b *testing.B) {
		var l latch.Latch
		n := 0
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.Lock()
				n++
				l.Unlock()
			}
		})
	})
	b.Run("mutex", func(b *testing.B) {
		var mu sync.Mutex
		n := 0
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				n++
				mu.Unlock()
			}
		})
	})
	b.Run("latch-S", func(b *testing.B) {
		var l latch.Latch
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				l.RLock()
				l.RUnlock()
			}
		})
	})
	b.Run("rwmutex-S", func(b *testing.B) {
		var mu sync.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.RLock()
				mu.RUnlock()
			}
		})
	})
}

// BenchmarkPermitClosure — A2: eager (materialize-on-insert) vs lazy
// (walk-on-lookup) permit transitivity over a chain of N transactions.
// insert builds the chain; grant checks that its tail may use the root's
// lock.
func BenchmarkPermitClosure(b *testing.B) {
	const obj = xid.OID(1)
	chain := func(b *testing.B, eager bool, n int) *lock.Manager {
		lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: eager})
		if err := lm.Lock(1, obj, xid.OpWrite); err != nil {
			b.Fatal(err)
		}
		for i := 1; i < n; i++ {
			lm.Permit(xid.TID(i), xid.TID(i+1), []xid.OID{obj}, xid.OpAll)
		}
		return lm
	}
	for _, eager := range []bool{true, false} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		for _, n := range []int{2, 8, 16, 32, 64} {
			b.Run(fmt.Sprintf("%s/chain=%d/insert", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					chain(b, eager, n)
				}
			})
			b.Run(fmt.Sprintf("%s/chain=%d/grant", name, n), func(b *testing.B) {
				lm := chain(b, eager, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !lm.Permitted(1, xid.TID(n), obj, xid.OpWrite) {
						b.Fatal("chain permit missing")
					}
				}
			})
		}
	}
}

// BenchmarkHtab — A3: the sharded chained table against a mutex-guarded
// map; each worker puts, deletes and gets (1:1:2) 4096 keys of its own.
func BenchmarkHtab(b *testing.B) {
	b.Run("htab", func(b *testing.B) {
		h := htab.New[int](0)
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			w := next.Add(1) << 32
			for i := 0; pb.Next(); i++ {
				k := w | uint64(i%4096)
				switch i % 4 {
				case 0:
					h.Put(k, i)
				case 3:
					h.Delete(k)
				default:
					h.Get(k)
				}
			}
		})
	})
	b.Run("mutex-map", func(b *testing.B) {
		var mu sync.Mutex
		mm := map[uint64]int{}
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			w := next.Add(1) << 32
			for i := 0; pb.Next(); i++ {
				k := w | uint64(i%4096)
				mu.Lock()
				switch i % 4 {
				case 0:
					mm[k] = i
				case 3:
					delete(mm, k)
				default:
					_ = mm[k]
				}
				mu.Unlock()
			}
		})
	})
}

// BenchmarkDeadlock — A4. transfer: asset.Run transactions (5 attempts,
// with backoff) that write two of 16 objects in no fixed order, so some
// lose a deadlock;
// failed/op counts the ones that ran out of retries, victims/op the
// victims. two-object and one-object: raw lock-manager transactions that
// lock two objects in order (contention, no deadlock) or one; the gap
// bounds the waits-for bookkeeping of the second lock.
func BenchmarkDeadlock(b *testing.B) {
	b.Run("transfer", func(b *testing.B) {
		m := benchManager(b)
		oids := benchSeed(b, m, 16, 8)
		closedLoop(b, 1, func(w, i int) error {
			a, c := oids[(w+i)%len(oids)], oids[((w+i)*7+3)%len(oids)]
			return asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 5}, func(tx *asset.Tx) error {
				if err := tx.Write(a, []byte("x")); err != nil {
					return err
				}
				return tx.Write(c, []byte("y"))
			})
		})
		perOp(b, m.Stats().Deadlocks, "victims/op")
	})
	for _, objects := range []int{2, 1} {
		name := "two-object"
		if objects == 1 {
			name = "one-object"
		}
		b.Run(name, func(b *testing.B) {
			lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: true})
			closedLoop(b, 1, func(w, i int) error {
				tid := xid.TID(uint64(w)<<40 | uint64(i) + 1)
				defer lm.ReleaseAll(tid)
				oid := xid.OID(uint64(i)%64 + 1)
				if err := lm.Lock(tid, oid, xid.OpWrite); err != nil || objects == 1 {
					return err
				}
				return lm.Lock(tid, oid+64, xid.OpWrite)
			})
		})
	}
}

// spin busy-works for about d: the computation a transaction does while
// it holds locks, which sleeping would understate.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkAdmission — RESIL: clients run asset.Run engagements that
// write-lock two of eight hot objects in arrival order, with 20µs of
// work after the first, so deadlock victims and retries grow with the
// number of clients. gate=off admits every client; gate=4 is
// Config.MaxLive 4, and the clients past it queue at begin. ok/s is
// goodput; victims/op, retries/op and sheds/op are the manager's counts.
func BenchmarkAdmission(b *testing.B) {
	for _, gate := range []int{0, 4} {
		for _, par := range []int{4, 8, 16, 32} {
			name := "off"
			if gate > 0 {
				name = fmt.Sprint(gate)
			}
			b.Run(fmt.Sprintf("gate=%s/par=%d", name, par), func(b *testing.B) {
				m := benchOpen(b, asset.Config{MaxLive: gate, AdmitTimeout: 50 * time.Millisecond})
				hot := benchSeed(b, m, 8, 64)
				opts := asset.RunOptions{MaxAttempts: 8, BaseBackoff: 100 * time.Microsecond}
				closedLoop(b, par, func(w, i int) error {
					x := hot[(i*7+w)%len(hot)]
					y := hot[(i*3+w*5+1)%len(hot)]
					if x == y {
						y = hot[(i*3+w*5+2)%len(hot)]
					}
					return asset.Run(context.Background(), m, opts, func(tx *asset.Tx) error {
						if err := tx.Write(x, []byte("x")); err != nil {
							return err
						}
						spin(20 * time.Microsecond)
						return tx.Write(y, []byte("y"))
					})
				})
				st := m.Stats()
				perOp(b, st.Deadlocks, "victims/op")
				perOp(b, st.Retries, "retries/op")
				perOp(b, st.Overloads, "sheds/op")
			})
		}
	}
}

// served is a manager behind a server on its own in-process fabric, and
// a client session dialed to it.
type served struct {
	fabric *faultnet.Network
	cli    *client.Client
}

// serve puts m behind a server on a fresh fabric and dials a session with
// the given options, closing all of it when b ends.
func serve(b *testing.B, m *asset.Manager, opts client.Options) served {
	b.Helper()
	fabric := faultnet.New()
	b.Cleanup(func() { fabric.Close() })
	lis, err := fabric.Listen("assetd")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.Serve(m, lis, server.Config{LeaseTTL: 2 * time.Second})
	b.Cleanup(srv.Close)
	opts.Dial = func(ctx context.Context) (net.Conn, error) { return fabric.DialContext(ctx, "assetd") }
	cli, err := client.Dial(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })
	return served{fabric, cli}
}

// BenchmarkRemote — RPC: one single-write transaction per op, each worker
// on its own object, so the path and not the lock table is measured.
// local runs it on the embedded manager; remote through a leased client
// session over an in-process fabric; remote+chaos with a seeded script
// of about one fault per 2000 wire messages, faults/op counting those
// that fired.
func BenchmarkRemote(b *testing.B) {
	// A generous attempt budget with short backoff: under chaos an
	// engagement should fail only when the script is relentless.
	opts := asset.RunOptions{MaxAttempts: 12, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
	payload := []byte("rpc-bench-payload")
	for _, arm := range []string{"local", "remote", "remote+chaos"} {
		for _, par := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/par=%d", arm, par), func(b *testing.B) {
				m := benchManager(b)
				objs := benchSeed(b, m, workers(par), 64)
				if arm == "local" {
					closedLoop(b, par, func(w, i int) error {
						return asset.Run(context.Background(), m, opts, func(tx *asset.Tx) error {
							return tx.Write(objs[w], payload)
						})
					})
					return
				}
				s := serve(b, m, client.Options{
					RetransmitEvery: 3 * time.Millisecond,
					// Probing fast enough that a lost handshake or probe
					// costs milliseconds, not the lease-derived second.
					HeartbeatEvery:   20 * time.Millisecond,
					ProbeTimeout:     25 * time.Millisecond,
					HandshakeTimeout: 30 * time.Millisecond,
				})
				var script *faultnet.Script
				if arm == "remote+chaos" {
					script = faultnet.RandomScript(1, 2000)
					s.fabric.SetScript(script)
				}
				closedLoop(b, par, func(w, i int) error {
					return s.cli.Run(context.Background(), opts, func(ctx context.Context, tx *client.Tx) error {
						return tx.Write(ctx, objs[w], payload)
					})
				})
				s.fabric.SetScript(nil) // heal before teardown
				if script != nil {
					perOp(b, uint64(script.Fired()), "faults/op")
				}
			})
		}
	}
}

// BenchmarkDistributedCommit — DIST: a transfer of one unit between two
// counters, built over leased sessions. 1node-rpc keeps both counters on
// one served manager and commits once; 2node-2pc puts them on two, and a
// coordinator commits the pair as a group: two prepares, a forced
// decision, two deliveries.
func BenchmarkDistributedCommit(b *testing.B) {
	ctx := context.Background()
	node := func(b *testing.B, counters int, init uint64) (served, []asset.OID) {
		m := benchManager(b)
		oids := benchCounters(b, m, counters, init, false)
		return serve(b, m, client.Options{RetransmitEvery: 3 * time.Millisecond}), oids
	}
	// half begins a remote transaction that adds delta to oid and leaves
	// it open for the commit path.
	half := func(cli *client.Client, oid asset.OID, delta int64) (xid.TID, error) {
		tid, err := cli.Initiate(ctx)
		if err != nil {
			return tid, err
		}
		if err := cli.Begin(ctx, tid); err != nil {
			return tid, err
		}
		return tid, cli.Tx(tid).Add(ctx, oid, delta)
	}
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("1node-rpc/par=%d", par), func(b *testing.B) {
			a, oids := node(b, 2*workers(par), 1<<40)
			closedLoop(b, par, func(w, i int) error {
				tid, err := half(a.cli, oids[2*w], -1)
				if err != nil {
					return err
				}
				if err := a.cli.Tx(tid).Add(ctx, oids[2*w+1], 1); err != nil {
					return err
				}
				return a.cli.Commit(ctx, tid)
			})
		})
		b.Run(fmt.Sprintf("2node-2pc/par=%d", par), func(b *testing.B) {
			a, aOIDs := node(b, workers(par), 1<<40)
			c, cOIDs := node(b, workers(par), 0)
			coord, err := txcoord.Open(faultfs.NewMem(), "coord")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { coord.Close() })
			closedLoop(b, par, func(w, i int) error {
				tidA, err := half(a.cli, aOIDs[w], -1)
				if err != nil {
					return err
				}
				tidC, err := half(c.cli, cOIDs[w], 1)
				if err != nil {
					return err
				}
				ok, err := coord.CommitGroup(ctx, coord.NewGID(), []txcoord.Member{
					txcoord.Remote("a", a.cli, tidA),
					txcoord.Remote("c", c.cli, tidC),
				})
				if err == nil && !ok {
					err = errors.New("group aborted")
				}
				return err
			})
		})
	}
}
