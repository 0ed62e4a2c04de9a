// bench_test.go holds the testing.B entry points, one per experiment table
// in DESIGN.md / EXPERIMENTS.md. They exercise the same code paths as
// cmd/assetbench but integrate with `go test -bench`. Run:
//
//	go test -bench=. -benchmem
package asset_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	asset "repro"
	"repro/internal/htab"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/waitgraph"
	"repro/internal/wal"
	"repro/internal/xid"
	"repro/models"
	"repro/workflow"
)

func benchManager(b *testing.B) *asset.Manager {
	b.Helper()
	m, err := asset.Open(asset.Config{ReapTerminated: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	return m
}

func benchSeed(b *testing.B, m *asset.Manager, n, size int) []asset.OID {
	b.Helper()
	oids := make([]asset.OID, 0, n)
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.Create(make([]byte, size))
			if err != nil {
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

// BenchmarkPrimitives — E1: empty-transaction lifecycle cost.
func BenchmarkPrimitives(b *testing.B) {
	noop := func(tx *asset.Tx) error { return nil }
	b.Run("initiate-begin-commit", func(b *testing.B) {
		m := benchManager(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := m.Initiate(noop)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Begin(t); err != nil {
				b.Fatal(err)
			}
			if err := m.Commit(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("initiate-execute-commit", func(b *testing.B) {
		m := benchManager(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := m.Initiate(noop)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Execute(t); err != nil {
				b.Fatal(err)
			}
			if err := m.Commit(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("initiate-begin-wait-abort", func(b *testing.B) {
		m := benchManager(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, _ := m.Initiate(noop)
			m.Begin(t)
			m.Wait(t)
			m.Abort(t)
		}
	})
}

// BenchmarkLockThroughput — E2: lock manager under contention.
func BenchmarkLockThroughput(b *testing.B) {
	for _, writePct := range []int{10, 50} {
		b.Run(fmt.Sprintf("write%d", writePct), func(b *testing.B) {
			lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: true})
			b.RunParallel(func(pb *testing.PB) {
				seed := uint64(0)
				i := 0
				for pb.Next() {
					i++
					seed = seed*6364136223846793005 + 1442695040888963407
					tid := xid.TID(seed | 1)
					oid := xid.OID(seed%1000 + 1)
					mode := xid.OpRead
					if i%100 < writePct {
						mode = xid.OpWrite
					}
					if err := lm.Lock(tid, oid, mode); err == nil {
						lm.ReleaseAll(tid)
					}
				}
			})
		})
	}
}

// BenchmarkCooperatePermitVsBlock — E3: handoff cost with commits.
func BenchmarkCooperatePermitVsBlock(b *testing.B) {
	b.Run("commit-per-handoff", func(b *testing.B) {
		m := benchManager(b)
		oid := benchSeed(b, m, 1, 8)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := models.Atomic(m, func(tx *asset.Tx) error {
				return tx.Update(oid, func(bb []byte) []byte { bb[0]++; return bb })
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNestedVsFlat — E4.
func BenchmarkNestedVsFlat(b *testing.B) {
	for _, depth := range []int{1, 4, 8} {
		m := benchManager(b)
		oids := benchSeed(b, m, depth, 16)
		b.Run(fmt.Sprintf("flat-depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				models.Atomic(m, func(tx *asset.Tx) error {
					for _, oid := range oids {
						if err := tx.Write(oid, []byte("flat")); err != nil {
							return err
						}
					}
					return nil
				})
			}
		})
		b.Run(fmt.Sprintf("nested-depth%d", depth), func(b *testing.B) {
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
			for i := 0; i < b.N; i++ {
				models.Atomic(m, func(tx *asset.Tx) error { return nest(tx, 0) })
			}
		})
	}
}

// BenchmarkSagaVsLongTxn — E5: k-step activity cost (the concurrency story
// is in assetbench E5; this measures the activity itself).
func BenchmarkSagaVsLongTxn(b *testing.B) {
	const k = 8
	for _, mode := range []string{"long-txn", "saga"} {
		b.Run(mode, func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, k, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "long-txn" {
					models.Atomic(m, func(tx *asset.Tx) error {
						for _, oid := range oids {
							if err := tx.Write(oid, []byte("x")); err != nil {
								return err
							}
						}
						return nil
					})
				} else {
					s := models.NewSaga(m)
					for _, oid := range oids {
						oid := oid
						s.Step("s", func(tx *asset.Tx) error { return tx.Write(oid, []byte("x")) }, nil)
					}
					s.Run()
				}
			}
		})
	}
}

// BenchmarkGroupCommit — E6.
func BenchmarkGroupCommit(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("group%d", size), func(b *testing.B) {
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
}

// BenchmarkDelegate — E7.
func BenchmarkDelegate(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("objects%d", n), func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, n, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				worker, _ := m.Initiate(func(tx *asset.Tx) error {
					for _, oid := range oids {
						if err := tx.Write(oid, []byte("w")); err != nil {
							return err
						}
					}
					return nil
				})
				holder, _ := m.Initiate(func(tx *asset.Tx) error { return nil })
				m.Begin(worker, holder)
				m.Wait(worker)
				if err := m.Delegate(worker, holder); err != nil {
					b.Fatal(err)
				}
				m.Commit(holder)
				m.Commit(worker)
			}
		})
	}
}

// BenchmarkSagaAbort — E8: compensation cost.
func BenchmarkSagaAbort(b *testing.B) {
	const k = 8
	m := benchManager(b)
	oids := benchSeed(b, m, k, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := models.NewSaga(m)
		for _, oid := range oids {
			oid := oid
			s.Step("s",
				func(tx *asset.Tx) error { return tx.Write(oid, []byte("done")) },
				func(tx *asset.Tx) error { return tx.Write(oid, []byte("undone")) })
		}
		s.Step("fail", func(tx *asset.Tx) error { return errors.New("boom") }, nil)
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCursorStability — E9: scan cost per mode.
func BenchmarkCursorStability(b *testing.B) {
	for _, mode := range []models.CursorMode{models.RepeatableRead, models.CursorStability} {
		name := "repeatable-read"
		if mode == models.CursorStability {
			name = "cursor-stability"
		}
		b.Run(name, func(b *testing.B) {
			m := benchManager(b)
			oids := benchSeed(b, m, 64, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				models.Atomic(m, func(tx *asset.Tx) error {
					return models.Scan(tx, mode, oids, func(asset.OID, []byte) error { return nil })
				})
			}
		})
	}
}

// BenchmarkRecovery — E10: log replay throughput.
func BenchmarkRecovery(b *testing.B) {
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
}

// BenchmarkLockPathFig1 — E11: grant latency vs permit-list length.
func BenchmarkLockPathFig1(b *testing.B) {
	for _, pds := range []int{0, 16, 256} {
		b.Run(fmt.Sprintf("pds%d", pds), func(b *testing.B) {
			lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: true})
			const obj = xid.OID(1)
			lm.Lock(1, obj, xid.OpWrite)
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

// BenchmarkContingent — E12.
func BenchmarkContingent(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("alternatives%d", n), func(b *testing.B) {
			m := benchManager(b)
			fns := make([]asset.TxnFunc, n)
			for i := range fns {
				last := i == n-1
				fns[i] = func(tx *asset.Tx) error {
					if last {
						return nil
					}
					return errors.New("alternative failed")
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := models.Contingent(m, fns...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkflow — E13: the conference-trip activity.
func BenchmarkWorkflow(b *testing.B) {
	m := benchManager(b)
	oids := benchSeed(b, m, 3, 32)
	task := func(name string, oid asset.OID) workflow.Task {
		return workflow.Task{
			Name:       name,
			Action:     func(tx *asset.Tx) error { return tx.Write(oid, []byte(name)) },
			Compensate: func(tx *asset.Tx) error { return tx.Write(oid, []byte("-")) },
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workflow.New("trip").
			Alternatives("flight", task("Delta", oids[0])).
			Step(task("Equator", oids[1])).
			Race("car", task("National", oids[2]), task("Avis", oids[2])).Optional().
			Run(m)
		if err != nil || res.Err() != nil {
			b.Fatalf("%v %v", err, res.Err())
		}
	}
}

// BenchmarkCommutativity — E14: OpIncr vs RMW on a hot counter.
func BenchmarkCommutativity(b *testing.B) {
	b.Run("opincr", func(b *testing.B) {
		m := benchManager(b)
		var hot asset.OID
		models.Atomic(m, func(tx *asset.Tx) error {
			var err error
			hot, err = tx.Create(make([]byte, 8))
			return err
		})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				models.Atomic(m, func(tx *asset.Tx) error { return tx.Add(hot, 1) })
			}
		})
	})
	b.Run("rmw", func(b *testing.B) {
		m := benchManager(b)
		var hot asset.OID
		models.Atomic(m, func(tx *asset.Tx) error {
			var err error
			hot, err = tx.Create(make([]byte, 8))
			return err
		})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				models.AtomicRetry(m, 10, func(tx *asset.Tx) error {
					return tx.Update(hot, func(bb []byte) []byte { bb[0]++; return bb })
				})
			}
		})
	})
}

// BenchmarkLatch — A1.
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
}

// BenchmarkPermitClosure — A2: eager vs lazy transitivity.
func BenchmarkPermitClosure(b *testing.B) {
	for _, eager := range []bool{true, false} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name+"-grant-chain16", func(b *testing.B) {
			lm := lock.New(waitgraph.New(), lock.Options{EagerClosure: eager})
			const obj = xid.OID(1)
			lm.Lock(1, obj, xid.OpWrite)
			for i := 0; i < 15; i++ {
				lm.Permit(xid.TID(i+1), xid.TID(i+2), []xid.OID{obj}, xid.OpAll)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !lm.Permitted(1, 16, obj, xid.OpWrite) {
					b.Fatal("chain permit missing")
				}
			}
		})
	}
}

// BenchmarkHtab — A3.
func BenchmarkHtab(b *testing.B) {
	b.Run("htab", func(b *testing.B) {
		m := htab.New[int](0)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				k := uint64(i % 4096)
				if i%4 == 0 {
					m.Put(k, i)
				} else {
					m.Get(k)
				}
			}
		})
	})
	b.Run("mutex-map", func(b *testing.B) {
		mm := map[uint64]int{}
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				k := uint64(i % 4096)
				mu.Lock()
				if i%4 == 0 {
					mm[k] = i
				} else {
					_ = mm[k]
				}
				mu.Unlock()
			}
		})
	})
}

// BenchmarkDeadlock — A4: transfer workload with real deadlock victims.
func BenchmarkDeadlock(b *testing.B) {
	m := benchManager(b)
	oids := benchSeed(b, m, 16, 8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			a := oids[i%len(oids)]
			c := oids[(i*7+3)%len(oids)]
			if a == c {
				continue
			}
			models.AtomicRetry(m, 5, func(tx *asset.Tx) error {
				if err := tx.Write(a, []byte("x")); err != nil {
					return err
				}
				return tx.Write(c, []byte("y"))
			})
		}
	})
	b.ReportMetric(float64(m.Stats().Deadlocks), "victims")
}
