package asset_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	asset "repro"
	"repro/models"
)

// TestTortureMixedModels runs a storm of concurrent activities that mix the
// transaction models — flat transfers, nested transfers (each leg a
// subtransaction), saga transfers (debit and credit as separate compensable
// steps), and random aborts — and checks that the money-conservation
// invariant survives every interleaving. The storm repeats across
// lock-table shard counts: 1 reproduces the pre-sharding serial table, 4
// forces constant cross-shard traffic for multi-object transactions, 64 is
// the default layout.
func TestTortureMixedModels(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			tortureMixedModels(t, asset.Config{LockShards: shards}, int64(shards)*101)
		})
	}
}

func tortureMixedModels(t *testing.T, cfg asset.Config, seedBase int64) {
	m, err := asset.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const nAccounts = 6
	const initial = 1000
	accounts := make([]asset.OID, nAccounts)
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := range accounts {
			var err error
			if accounts[i], err = tx.Create(u64(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	debit := func(tx *asset.Tx, acct asset.OID, amount uint64) error {
		b, err := tx.Read(acct)
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(b)
		if v < amount {
			return errSkip
		}
		return tx.Write(acct, u64(v-amount))
	}
	credit := func(tx *asset.Tx, acct asset.OID, amount uint64) error {
		b, err := tx.Read(acct)
		if err != nil {
			return err
		}
		return tx.Write(acct, u64(binary.LittleEndian.Uint64(b)+amount))
	}

	var wg sync.WaitGroup
	fatal := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			seed += seedBase
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				from := accounts[rng.Intn(nAccounts)]
				to := accounts[rng.Intn(nAccounts)]
				if from == to {
					continue
				}
				amount := uint64(rng.Intn(20) + 1)
				sabotage := rng.Intn(5) == 0
				var err error
				switch rng.Intn(3) {
				case 0: // flat transfer
					err = asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 25}, func(tx *asset.Tx) error {
						if err := debit(tx, from, amount); err != nil {
							return err
						}
						if err := credit(tx, to, amount); err != nil {
							return err
						}
						if sabotage {
							return errSabotage
						}
						return nil
					})
				case 1: // nested: each leg is a subtransaction
					err = asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 25}, func(tx *asset.Tx) error {
						if err := models.Sub(tx, func(c *asset.Tx) error {
							return debit(c, from, amount)
						}); err != nil {
							return err
						}
						if err := models.Sub(tx, func(c *asset.Tx) error {
							if sabotage {
								return errSabotage
							}
							return credit(c, to, amount)
						}); err != nil {
							return err
						}
						return nil
					})
				case 2: // saga: compensable debit, then credit (maybe failing)
					var res *models.SagaResult
					res, err = models.NewSaga(m).
						Step("debit",
							func(tx *asset.Tx) error { return debit(tx, from, amount) },
							func(tx *asset.Tx) error { return credit(tx, from, amount) }).
						Step("credit",
							func(tx *asset.Tx) error {
								if sabotage {
									return errSabotage
								}
								return credit(tx, to, amount)
							}, nil).
						Run()
					if err == nil && res.Err() != nil {
						err = nil // compensated abort is a clean outcome
					}
				}
				if err != nil && !errors.Is(err, asset.ErrAborted) {
					fatal <- fmt.Errorf("worker %d op %d: %w", seed, i, err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	select {
	case err := <-fatal:
		t.Fatal(err)
	default:
	}

	var total uint64
	for _, acct := range accounts {
		b, ok := m.Cache().Read(acct)
		if !ok {
			t.Fatalf("account %v vanished", acct)
		}
		total += binary.LittleEndian.Uint64(b)
	}
	if total != nAccounts*initial {
		t.Fatalf("money not conserved under mixed models: %d, want %d", total, nAccounts*initial)
	}
	st := m.Stats()
	t.Logf("commits=%d aborts=%d deadlock victims=%d", st.Commits, st.Aborts, st.Deadlocks)
}

// TestTortureCancellation storms the resilience layer: concurrent hotspot
// transfers where contexts are cancelled at random moments (sometimes while
// the transaction is blocked on a lock or parked in the commit protocol),
// bodies outlive the manager's TxnDeadline under the watchdog, and the Run
// engine retries the victims. After the storm the manager must be quiescent — no
// leaked transactions, an empty waits-for graph, clean lock-table
// invariants — and money conserved.
func TestTortureCancellation(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			tortureCancellation(t,
				asset.Config{LockShards: shards, TxnDeadline: tortureTxnDeadline},
				int64(shards)*7919)
		})
	}
}

// tortureTxnDeadline is the cancellation storm's Config.TxnDeadline: well
// above an ordinary transfer's life, so the watchdog reaps mostly the
// bodies that sleep past it on purpose and those queued behind them.
const tortureTxnDeadline = 10 * time.Millisecond

func tortureCancellation(t *testing.T, cfg asset.Config, seedBase int64) {
	m, err := asset.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const nAccounts = 6
	const initial = 1000
	accounts := make([]asset.OID, nAccounts)
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := range accounts {
			var err error
			if accounts[i], err = tx.Create(u64(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// pause > 0 dawdles between the two legs while holding the debit lock,
	// so deadlines and cancellations land mid-transaction.
	transfer := func(from, to asset.OID, amount uint64, pause time.Duration) asset.TxnFunc {
		return func(tx *asset.Tx) error {
			b, err := tx.Read(from)
			if err != nil {
				return err
			}
			v := binary.LittleEndian.Uint64(b)
			if v < amount {
				return errSkip
			}
			if err := tx.Write(from, u64(v-amount)); err != nil {
				return err
			}
			if pause > 0 {
				time.Sleep(pause)
			}
			b, err = tx.Read(to)
			if err != nil {
				return err
			}
			return tx.Write(to, u64(binary.LittleEndian.Uint64(b)+amount))
		}
	}
	// Every way a stormed transaction may legitimately end.
	acceptable := func(err error) bool {
		return errors.Is(err, asset.ErrAborted) ||
			errors.Is(err, asset.ErrRetryable) ||
			errors.Is(err, asset.ErrTxnDeadline) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	var wg sync.WaitGroup
	fatal := make(chan error, 16)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			seed += seedBase
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				from := accounts[rng.Intn(nAccounts)]
				to := accounts[rng.Intn(nAccounts)]
				if from == to {
					continue
				}
				amount := uint64(rng.Intn(20) + 1)
				var pause time.Duration
				if rng.Intn(4) == 0 {
					pause = time.Duration(rng.Intn(2000)) * time.Microsecond
				}
				fn := transfer(from, to, amount, pause)
				opts := asset.RunOptions{MaxAttempts: 10, BaseBackoff: 50 * time.Microsecond}
				var err error
				switch rng.Intn(4) {
				case 0: // undisturbed
					err = asset.Run(context.Background(), m, opts, fn)
				case 1: // ctx deadline, possibly already expired on arrival
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(rng.Intn(3))*time.Millisecond)
					err = asset.Run(ctx, m, opts, fn)
					cancel()
				case 2: // asynchronous cancellation at a random moment
					ctx, cancel := context.WithCancel(context.Background())
					go func(d time.Duration) {
						time.Sleep(d)
						cancel()
					}(time.Duration(rng.Intn(2000)) * time.Microsecond)
					err = asset.Run(ctx, m, opts, fn)
				case 3: // the manager's deadline enforced by the watchdog
					o := opts
					o.MaxAttempts = 2
					if rng.Intn(4) == 0 {
						// Outlive the deadline for sure: the watchdog
						// (10ms tick) must reap this one mid-body.
						fn = transfer(from, to, amount, tortureTxnDeadline+15*time.Millisecond)
					}
					err = asset.Run(context.Background(), m, o, fn)
				}
				if err != nil && !acceptable(err) {
					fatal <- fmt.Errorf("worker %d op %d: %w", seed, i, err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	select {
	case err := <-fatal:
		t.Fatal(err)
	default:
	}

	// Quiescence: watcher goroutines and abort cascades may still be
	// draining for a moment after the last Run returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(m.Transactions()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked transactions after storm: %+v", m.Transactions())
		}
		time.Sleep(time.Millisecond)
	}
	if ws := m.WaitGraph().Waiters(); len(ws) != 0 {
		t.Fatalf("waits-for graph not empty after storm: %v", ws)
	}
	// An aborted waiter's pending lock request lingers until its parked
	// goroutine wakes and dequeues itself; allow that beat to settle.
	for {
		errs := m.LockManager().CheckInvariants()
		if len(errs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock invariants violated after storm: %v", errs)
		}
		time.Sleep(time.Millisecond)
	}

	var total uint64
	for _, acct := range accounts {
		b, ok := m.Cache().Read(acct)
		if !ok {
			t.Fatalf("account %v vanished", acct)
		}
		total += binary.LittleEndian.Uint64(b)
	}
	if total != nAccounts*initial {
		t.Fatalf("money not conserved under cancellation storm: %d, want %d",
			total, nAccounts*initial)
	}
	st := m.Stats()
	t.Logf("commits=%d aborts=%d deadlocks=%d reaped=%d expired=%d cancelled=%d retries=%d",
		st.Commits, st.Aborts, st.Deadlocks, st.Reaped, st.Expired, st.Cancelled, st.Retries)
}

var (
	errSkip     = errors.New("insufficient funds")
	errSabotage = errors.New("sabotage")
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestNestedCrossParentDeadlock pins the deadlock the torture test first
// exposed: parent P1 waits (via wait(child)) for a child that needs a lock
// held by parent P2, while P2 symmetrically waits for a child that needs
// P1's lock. The parents' waits are channel waits, invisible to lock-level
// detection alone — Tx.Wait must register them in the waits-for graph so
// a victim is selected instead of hanging forever.
func TestNestedCrossParentDeadlock(t *testing.T) {
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var oa, ob asset.OID
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		if oa, err = tx.Create(u64(0)); err != nil {
			return err
		}
		ob, err = tx.Create(u64(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	bothHold := make(chan struct{}, 2)
	proceed := make(chan struct{})
	parent := func(first, second asset.OID) asset.TxnFunc {
		return func(tx *asset.Tx) error {
			// Child 1 locks `first`; its lock is delegated to the parent.
			if err := models.Sub(tx, func(c *asset.Tx) error {
				return c.Write(first, u64(1))
			}); err != nil {
				return err
			}
			bothHold <- struct{}{}
			<-proceed
			// Child 2 needs `second`, held by the other parent.
			return models.Sub(tx, func(c *asset.Tx) error {
				return c.Write(second, u64(2))
			})
		}
	}
	p1, _ := m.Initiate(parent(oa, ob))
	p2, _ := m.Initiate(parent(ob, oa))
	if err := m.Begin(p1, p2); err != nil {
		t.Fatal(err)
	}
	<-bothHold
	<-bothHold
	close(proceed)

	res := make(chan error, 2)
	go func() { res <- m.Commit(p1) }()
	go func() { res <- m.Commit(p2) }()
	for i := 0; i < 2; i++ {
		select {
		case <-res:
		case <-time.After(15 * time.Second):
			t.Fatal("nested cross-parent deadlock not resolved: commit hung")
		}
	}
	if m.Stats().Deadlocks == 0 {
		t.Fatal("no deadlock victim recorded")
	}
	// At least one parent survives; state stays consistent (each object
	// was written by a committed chain or rolled back).
	st := m.Stats()
	t.Logf("commits=%d aborts=%d victims=%d", st.Commits, st.Aborts, st.Deadlocks)
}
