package locktest

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/waitgraph"
	"repro/internal/xid"
)

// EscrowConfig parameterizes an escrow model-checker run.
type EscrowConfig struct {
	Shards       int           // lock-table shard count (0 = manager default)
	Workers      int           // concurrent workers
	Batches      int           // quiescent points = Batches (checked after each)
	TxnsPerBatch int           // transactions per worker per batch
	OpsPerTxn    int           // reservation attempts per transaction
	Objects      int           // escrow counters under test
	Seed         int64         // root seed; worker w uses Seed + w
	Init         uint64        // every counter's starting value
	Lo, Hi       uint64        // escrow bounds (tight: force blocking + never)
	MaxDelta     int64         // deltas drawn from [-MaxDelta, MaxDelta]\{0}
	WaitBound    time.Duration // each request's context deadline; 0 picks a stress default
}

func (c *EscrowConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Batches <= 0 {
		c.Batches = 4
	}
	if c.TxnsPerBatch <= 0 {
		c.TxnsPerBatch = 40
	}
	if c.OpsPerTxn <= 0 {
		c.OpsPerTxn = 6
	}
	if c.Objects <= 0 {
		c.Objects = 4
	}
	if c.Hi == 0 {
		c.Init, c.Lo, c.Hi = 50, 0, 100
	}
	if c.MaxDelta <= 0 {
		c.MaxDelta = 8
	}
	if c.WaitBound <= 0 {
		c.WaitBound = 50 * time.Millisecond
	}
}

// RunEscrow model-checks the escrow lock modes: randomized concurrent
// transactions reserve positive and negative deltas against counters with
// tight declared bounds, then commit or abort, while a mutex-serialized
// sequential reference model tracks what the committed value must be.
//
// Checked properties:
//
//   - Bounds are never violated: each committed transaction's deltas,
//     applied in commit order, keep every counter within [Lo, Hi] — the
//     admission test's guarantee that ANY subset of in-flight
//     reservations can fold safely.
//   - Exact settlement: at every quiescent point (all transactions
//     terminated) each counter's lock-side value equals the reference
//     model's — aborted reservations left no residue, committed ones
//     folded exactly once — and both in-flight sums are zero.
//   - Structural sanity: (*lock.Manager).CheckInvariants, including the
//     escrow accounting family, reports nothing at every quiescent point.
//
// The op mix includes plain read/write locks on the counters (which
// conflict with increment/decrement grants), immediate unreserves
// (simulating a failed downstream operation), never-admittable deltas
// (ErrEscrow), and bounds-blocked waits ended by their context's
// deadline, so the pending-queue interplay is exercised, not just the
// commuting fast path. Run under -race.
func RunEscrow(t *testing.T, cfg EscrowConfig) {
	t.Helper()
	cfg.fill()

	wg := waitgraph.New()
	lm := lock.New(wg, lock.Options{
		Shards:       cfg.Shards,
		EagerClosure: true,
	})

	oids := make([]xid.OID, cfg.Objects)
	for i := range oids {
		oids[i] = xid.OID(i + 1)
		if err := lm.DeclareEscrow(oids[i], cfg.Init, cfg.Lo, cfg.Hi); err != nil {
			t.Fatalf("DeclareEscrow(%d): %v", oids[i], err)
		}
	}

	// Sequential reference model: committed value per counter, applied
	// under refMu in the same order the lock manager folds (EscrowCommit
	// runs under refMu too, so commit order and reference order agree).
	ref := make([]uint64, cfg.Objects)
	for i := range ref {
		ref[i] = cfg.Init
	}
	var refMu sync.Mutex
	var nextTID atomic.Uint64
	var committed, abortedCnt, neverCnt, timeoutCnt atomic.Uint64

	// Every request is bounded by a context deadline, so a wait no
	// resolution will end withdraws instead of stalling its batch.
	bounded := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), cfg.WaitBound)
	}
	expired := func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

	type pendingDelta struct {
		obj   int
		delta int64
	}

	runTxn := func(rng *rand.Rand) {
		tid := xid.TID(nextTID.Add(1))
		var local []pendingDelta
		doomed := false
	ops:
		for op := 0; op < cfg.OpsPerTxn; op++ {
			o := rng.Intn(cfg.Objects)
			switch r := rng.Float64(); {
			case r < 0.08: // conflicting read/write lock on the counter
				mode := xid.OpRead
				if rng.Intn(2) == 0 {
					mode = xid.OpWrite
				}
				ctx, cancel := bounded()
				err := lm.LockCtx(ctx, tid, oids[o], mode)
				cancel()
				switch {
				case err == nil, expired(err):
				case errors.Is(err, lock.ErrDeadlock), errors.Is(err, lock.ErrCancelled):
					doomed = true
					break ops
				default:
					t.Errorf("Lock(%v): unexpected error %v", tid, err)
					doomed = true
					break ops
				}
			default:
				d := rng.Int63n(2*cfg.MaxDelta+1) - cfg.MaxDelta
				if d == 0 {
					d = 1
				}
				ctx, cancel := bounded()
				err := lm.EscrowReserveCtx(ctx, tid, oids[o], d)
				cancel()
				switch {
				case err == nil:
					if rng.Float64() < 0.10 {
						// Downstream failure: give the reservation back.
						lm.EscrowUnreserve(tid, oids[o], d)
					} else {
						local = append(local, pendingDelta{o, d})
					}
				case errors.Is(err, lock.ErrEscrow):
					neverCnt.Add(1) // never admittable; txn continues
				case expired(err):
					timeoutCnt.Add(1) // bounds-blocked, withdrew; txn continues
				case errors.Is(err, lock.ErrDeadlock), errors.Is(err, lock.ErrCancelled):
					doomed = true
					break ops
				default:
					t.Errorf("EscrowReserve(%v, %+d): unexpected error %v", tid, d, err)
					doomed = true
					break ops
				}
			}
		}
		if !doomed && rng.Intn(100) < 60 {
			refMu.Lock()
			lm.EscrowCommit(tid)
			for _, p := range local {
				ref[p.obj] += uint64(p.delta)
				if ref[p.obj] < cfg.Lo || ref[p.obj] > cfg.Hi {
					t.Errorf("bounds violated: counter %d = %d outside [%d, %d] after tid %v committed %+d",
						p.obj, ref[p.obj], cfg.Lo, cfg.Hi, tid, p.delta)
				}
			}
			refMu.Unlock()
			committed.Add(1)
		} else {
			abortedCnt.Add(1)
		}
		lm.ReleaseAll(tid)
	}

	checkQuiescent := func(batch int) {
		t.Helper()
		for i, oid := range oids {
			val, lo, hi, infPos, infNeg, ok := lm.EscrowInfo(oid)
			if !ok {
				t.Errorf("batch %d: counter %d lost its escrow declaration", batch, i)
				continue
			}
			if infPos != 0 || infNeg != 0 {
				t.Errorf("batch %d: counter %d quiescent but in-flight sums +%d/-%d", batch, i, infPos, infNeg)
			}
			if val != ref[i] {
				t.Errorf("batch %d: counter %d lock-side value %d, reference model %d", batch, i, val, ref[i])
			}
			if val < lo || val > hi {
				t.Errorf("batch %d: counter %d value %d outside [%d, %d]", batch, i, val, lo, hi)
			}
		}
		for _, e := range lm.CheckInvariants() {
			t.Errorf("batch %d: invariant: %s", batch, e)
		}
	}

	for batch := 0; batch < cfg.Batches; batch++ {
		var wgrp sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wgrp.Add(1)
			//asset:goroutine joined-by=waitgroup
			go func(w int) {
				defer wgrp.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(batch*cfg.Workers+w)))
				for i := 0; i < cfg.TxnsPerBatch; i++ {
					runTxn(rng)
				}
			}(w)
		}
		wgrp.Wait()
		checkQuiescent(batch)
	}

	// Final drain: a fresh transaction must be able to write-lock every
	// counter immediately (no grant survived its transaction).
	drain := xid.TID(nextTID.Add(1))
	for _, oid := range oids {
		ctx, cancel := bounded()
		err := lm.LockCtx(ctx, drain, oid, xid.OpWrite)
		cancel()
		if err != nil {
			t.Errorf("drain: write lock on %d: %v", oid, err)
		}
	}
	lm.ReleaseAll(drain)

	t.Logf("escrow checker: %d committed, %d aborted, %d never-admittable, %d bounds-blocked timeouts",
		committed.Load(), abortedCnt.Load(), neverCnt.Load(), timeoutCnt.Load())
	if committed.Load() == 0 {
		t.Error("escrow checker: no transaction committed — workload degenerate")
	}
	if neverCnt.Load() == 0 {
		t.Error("escrow checker: never-admittable path untested — loosen bounds or raise MaxDelta")
	}
}
