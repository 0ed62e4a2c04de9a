// Package locktest drives randomized concurrent workloads against a
// lock.Manager and verifies the manager's cross-shard invariants at
// quiescent points. It exists so the lock package's own stress tests, the
// core-level torture tests, and ad-hoc debugging sessions share one
// harness instead of each growing a weaker copy.
//
// The harness model: a fixed set of workers, each owning one live
// transaction id at a time, performs batches of randomized operations
// (lock, permit, delegate, release-and-renew). Between batches every
// worker goroutine has terminated, so the manager is quiescent — no
// request is in flight, though locks and permits persist — and
// (*lock.Manager).CheckInvariants runs against a frozen table. A final
// drain releases every transaction and asserts the table emptied: no
// grant survives its transaction, no waiter lingers in the waits-for
// graph, and every object is immediately lockable by a fresh transaction.
//
// Transaction retirement is guarded by a reader/writer lock so that no
// worker delegates to — or permits — a transaction id whose ReleaseAll
// already ran. The core manager provides the same guarantee with its own
// mutex; without it the lock manager would resurrect a terminated id's
// state, which is outside its contract.
package locktest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/waitgraph"
	"repro/internal/xid"
)

// Config parameterizes a harness run.
type Config struct {
	Shards       int           // lock-table shard count (0 = manager default)
	Workers      int           // concurrent workers, one live txn each
	Batches      int           // quiescent points = Batches + 1
	OpsPerBatch  int           // operations per worker per batch
	Objects      int           // size of the shared hot object set
	Seed         int64         // root seed; worker w uses Seed + w
	EagerClosure bool          // permit transitivity mode
	WaitBound    time.Duration // each lock request's context deadline; 0 picks a default suited to stress runs
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Batches <= 0 {
		c.Batches = 4
	}
	if c.OpsPerBatch <= 0 {
		c.OpsPerBatch = 150
	}
	if c.Objects <= 0 {
		c.Objects = 24
	}
	if c.WaitBound <= 0 {
		// Short enough that a worker blocked behind a held lock cannot
		// stall a batch, long enough that grants still happen under -race.
		c.WaitBound = 3 * time.Millisecond
	}
}

// Run executes the harness and fails t on any invariant violation.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	cfg.fill()
	wg := waitgraph.New()
	m := lock.New(wg, lock.Options{
		Shards:       cfg.Shards,
		EagerClosure: cfg.EagerClosure,
	})

	h := &harness{cfg: cfg, m: m, wg: wg, tids: make([]xid.TID, cfg.Workers)}
	for w := range h.tids {
		h.tids[w] = h.nextTID()
	}

	for batch := 0; batch <= cfg.Batches; batch++ {
		var group sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			group.Add(1)
			//asset:goroutine joined-by=waitgroup
			go func(w, batch int) {
				defer group.Done()
				h.workerBatch(w, rand.New(rand.NewSource(cfg.Seed+int64(w)+int64(batch)*7919)))
			}(w, batch)
		}
		group.Wait()
		if errs := m.CheckInvariants(); len(errs) > 0 {
			t.Fatalf("invariants violated at quiescent point after batch %d (shards=%d eager=%v seed=%d):\n%s",
				batch, m.NumShards(), cfg.EagerClosure, cfg.Seed, joinLines(errs))
		}
	}

	// Drain: terminate every transaction, then the table must be empty.
	h.reg.Lock()
	for w := range h.tids {
		m.ReleaseAll(h.tids[w])
	}
	h.reg.Unlock()
	if errs := m.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated after full drain (shards=%d seed=%d):\n%s",
			m.NumShards(), cfg.Seed, joinLines(errs))
	}
	if ws := wg.Waiters(); len(ws) > 0 {
		t.Fatalf("waits-for graph not empty after drain: %v", ws)
	}
	// Every object must be immediately lockable: a leaked grant would make
	// this exclusive request wait out its deadline.
	probe := h.nextTID()
	for i := 0; i < cfg.Objects; i++ {
		if err := h.lock(probe, xid.OID(i+1), xid.OpWrite); err != nil {
			t.Fatalf("object %d not lockable after drain: %v (leaked grant)", i+1, err)
		}
	}
	m.ReleaseAll(probe)
}

type harness struct {
	cfg  Config
	m    *lock.Manager
	wg   *waitgraph.Graph
	tidc xid.TID
	tidm sync.Mutex

	// reg guards transaction retirement: readers hold it across any
	// operation naming another worker's tid (permit, delegate), the writer
	// holds it across ReleaseAll-and-renew, so no operation ever targets a
	// terminated id.
	reg  sync.RWMutex
	tids []xid.TID
}

func (h *harness) nextTID() xid.TID {
	h.tidm.Lock()
	defer h.tidm.Unlock()
	h.tidc++
	return h.tidc
}

var modes = []xid.OpSet{xid.OpRead, xid.OpWrite, xid.OpIncr, xid.OpRead | xid.OpIncr}

func (h *harness) workerBatch(w int, rng *rand.Rand) {
	for op := 0; op < h.cfg.OpsPerBatch; op++ {
		my := h.tids[w]
		oid := xid.OID(rng.Intn(h.cfg.Objects) + 1)
		switch r := rng.Intn(100); {
		case r < 70:
			err := h.lock(my, oid, modes[rng.Intn(len(modes))])
			if err != nil {
				// Deadlock victim, deadline, or cancelled: the transaction
				// gives up and a new one takes its place, exactly like an
				// abort in the full system.
				h.retire(w)
			}
		case r < 82:
			h.reg.RLock()
			grantee := xid.NilTID
			if rng.Intn(3) > 0 {
				grantee = h.tids[rng.Intn(len(h.tids))]
			}
			var oids []xid.OID
			if rng.Intn(3) > 0 {
				oids = []xid.OID{oid}
			}
			h.m.Permit(h.tids[w], grantee, oids, modes[rng.Intn(len(modes))])
			h.reg.RUnlock()
		case r < 92:
			h.reg.RLock()
			to := h.tids[rng.Intn(len(h.tids))]
			var oids []xid.OID
			if rng.Intn(2) == 0 {
				oids = []xid.OID{oid}
			}
			h.m.Delegate(h.tids[w], to, oids)
			h.reg.RUnlock()
		default:
			h.retire(w)
		}
	}
}

// lock requests mode on oid for tid under a context that expires after
// the configured wait bound, so a request blocked behind a held lock gives
// up instead of stalling its batch.
func (h *harness) lock(tid xid.TID, oid xid.OID, mode xid.OpSet) error {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.WaitBound)
	defer cancel()
	return h.m.LockCtx(ctx, tid, oid, mode)
}

// retire terminates worker w's transaction and gives it a fresh one.
func (h *harness) retire(w int) {
	h.reg.Lock()
	h.m.ReleaseAll(h.tids[w])
	h.tids[w] = h.nextTID()
	h.reg.Unlock()
}

func joinLines(errs []string) string {
	out := ""
	for i, e := range errs {
		if i > 0 {
			out += "\n"
		}
		out += fmt.Sprintf("  - %s", e)
	}
	return out
}
