package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xid"
)

// mustCreate commits a fresh object and returns its oid.
func mustCreate(t *testing.T, m *Manager, data []byte) xid.OID {
	t.Helper()
	var oid xid.OID
	id, err := m.Initiate(func(tx *Tx) error {
		var err error
		oid, err = tx.Create(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	return oid
}

// waitStatus spins until id reaches st or the deadline passes.
func waitStatus(t *testing.T, m *Manager, id xid.TID, st xid.Status) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.StatusOf(id) != st {
		if time.Now().After(deadline) {
			t.Fatalf("txn %v never reached %v (is %v)", id, st, m.StatusOf(id))
		}
		time.Sleep(time.Millisecond)
	}
}

// waitInvariants spins until the lock table's invariants hold. An aborted
// waiter's pending request lingers until its parked goroutine wakes and
// dequeues itself (cancelled entries are skipped by grant scans in the
// meantime), so checks immediately after an abort must allow that beat.
func waitInvariants(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		bad := m.LockManager().CheckInvariants()
		if len(bad) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock invariants violated: %v", bad)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogReapsDeadline: a transaction that outlives Config.TxnDeadline
// is aborted by the reaper with ErrTxnDeadline, and the reap is counted.
func TestWatchdogReapsDeadline(t *testing.T) {
	m, err := Open(Config{TxnDeadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	id, _ := m.Initiate(func(tx *Tx) error {
		<-release
		return nil
	})
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = m.Commit(id)
	if !errors.Is(err, ErrTxnDeadline) || !errors.Is(err, ErrAborted) {
		t.Fatalf("commit returned %v, want ErrTxnDeadline wrapping ErrAborted", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("reap took %v", d)
	}
	if s := m.Stats(); s.Reaped != 1 {
		t.Fatalf("Reaped = %d, want 1", s.Reaped)
	}
}

// TestBeginCtxCancelWhileBlockedOnLock is the core acceptance path:
// cancelling the bound context while the transaction is blocked on a lock
// returns within 100ms with the transaction aborted, its locks released,
// and no wait-graph edges left behind.
func TestBeginCtxCancelWhileBlockedOnLock(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oid := mustCreate(t, m, []byte{1})
	release := make(chan struct{})
	holder, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Lock(oid, xid.OpWrite); err != nil {
			return err
		}
		<-release
		return nil
	})
	if err := m.Begin(holder); err != nil {
		t.Fatal(err)
	}
	for !m.LockManager().Holds(holder, oid, xid.OpWrite) {
		time.Sleep(time.Millisecond)
	}
	blockedAt := make(chan struct{})
	blocked, _ := m.Initiate(func(tx *Tx) error {
		close(blockedAt)
		return tx.Lock(oid, xid.OpWrite)
	})
	ctx, cancel := context.WithCancel(context.Background())
	if err := m.BeginCtx(ctx, blocked); err != nil {
		t.Fatal(err)
	}
	<-blockedAt
	// Give the lock request time to actually park on the shard cond.
	for len(m.WaitGraph().Waiters()) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	start := time.Now()
	err = m.Commit(blocked)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("cancel took %v to unblock, want <100ms", took)
	}
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("commit returned %v, want ErrAborted wrapping context.Canceled", err)
	}
	waitStatus(t, m, blocked, xid.StatusAborted)
	if ws := m.WaitGraph().Waiters(); len(ws) != 0 {
		t.Fatalf("wait-graph edges left: %v", ws)
	}
	waitInvariants(t, m)
	if s := m.Stats(); s.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", s.Cancelled)
	}
	close(release)
	if err := m.Commit(holder); err != nil {
		t.Fatalf("holder commit: %v", err)
	}
}

// TestCommitCtxCancelDuringDependencyWait: a commit driver parked on a CD
// obstacle is woken by its context and converts the wait into a clean
// abort.
func TestCommitCtxCancelDuringDependencyWait(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	sup, _ := m.Initiate(func(tx *Tx) error {
		<-release
		return nil
	})
	dep, _ := m.Initiate(func(tx *Tx) error { return nil })
	if err := m.Begin(sup, dep); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(dep); err != nil {
		t.Fatal(err)
	}
	if err := m.FormDependency(xid.DepCD, sup, dep); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- m.CommitCtx(ctx, dep) }()
	// Let the driver park on the obstacle, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("CommitCtx returned %v, want abort wrapping context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("CommitCtx did not return after cancel")
	}
	waitStatus(t, m, dep, xid.StatusAborted)
	close(release)
	if err := m.Commit(sup); err != nil {
		t.Fatalf("supporter commit: %v", err)
	}
}

// TestAdmissionControlShedsAndRecovers: with MaxLive=1 and no queueing
// budget, a second begin sheds with ErrOverload; once the first
// transaction terminates, its slot is reusable.
func TestAdmissionControlShedsAndRecovers(t *testing.T) {
	m, err := Open(Config{MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	first, _ := m.Initiate(func(tx *Tx) error {
		<-release
		return nil
	})
	if err := m.Begin(first); err != nil {
		t.Fatal(err)
	}
	second, _ := m.Initiate(func(tx *Tx) error { return nil })
	err = m.Begin(second)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("begin under overload returned %v, want ErrOverload", err)
	}
	waitStatus(t, m, second, xid.StatusAborted)
	if s := m.Stats(); s.Overloads != 1 {
		t.Fatalf("Overloads = %d, want 1", s.Overloads)
	}
	close(release)
	if err := m.Commit(first); err != nil {
		t.Fatal(err)
	}
	third, _ := m.Initiate(func(tx *Tx) error { return nil })
	if err := m.Begin(third); err != nil {
		t.Fatalf("slot not released after commit: %v", err)
	}
	if err := m.Commit(third); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueueingAdmitsWhenSlotFrees: with a queueing budget, a
// begin that finds the gate full waits and is admitted once a slot frees.
func TestAdmissionQueueingAdmitsWhenSlotFrees(t *testing.T) {
	m, err := Open(Config{MaxLive: 1, AdmitTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	first, _ := m.Initiate(func(tx *Tx) error {
		<-release
		return nil
	})
	if err := m.Begin(first); err != nil {
		t.Fatal(err)
	}
	second, _ := m.Initiate(func(tx *Tx) error { return nil })
	res := make(chan error, 1)
	go func() { res <- m.Begin(second) }()
	time.Sleep(20 * time.Millisecond) // park in the admission queue
	close(release)
	if err := m.Commit(first); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("queued begin returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued begin never admitted")
	}
	if err := m.Commit(second); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Overloads != 0 {
		t.Fatalf("Overloads = %d, want 0 (the wait was within budget)", s.Overloads)
	}
}

// TestCloseUnderLoad is the graceful-shutdown regression: Close must wake
// transactions parked on lock-shard conds, dependency obstacles, and the
// admission queue, aborting them with reasons wrapping ErrClosed, and must
// drain the watchdog.
func TestCloseUnderLoad(t *testing.T) {
	// MaxLive covers the holder, the 3 lock waiters, and the 2 dependency
	// waiters exactly, so the last 3 transactions queue at the gate.
	m, err := Open(Config{TxnDeadline: time.Hour, MaxLive: 6, AdmitTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	oid := mustCreate(t, m, []byte{1})
	release := make(chan struct{})
	defer close(release)
	// One transaction holds the lock and never finishes.
	holder, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Lock(oid, xid.OpWrite); err != nil {
			return err
		}
		<-release
		return nil
	})
	if err := m.Begin(holder); err != nil {
		t.Fatal(err)
	}
	for !m.LockManager().Holds(holder, oid, xid.OpWrite) {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	// Three transactions block on the held lock.
	for i := 0; i < 3; i++ {
		id, _ := m.Initiate(func(tx *Tx) error { return tx.Lock(oid, xid.OpWrite) })
		if err := m.Begin(id); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, id xid.TID) {
			defer wg.Done()
			errs[i] = m.Commit(id)
		}(i, id)
	}
	// Two commit drivers block on a CD obstacle (the holder).
	for i := 3; i < 5; i++ {
		id, _ := m.Initiate(func(tx *Tx) error { return nil })
		if err := m.Begin(id); err != nil {
			t.Fatal(err)
		}
		if err := m.Wait(id); err != nil {
			t.Fatal(err)
		}
		if err := m.FormDependency(xid.DepCD, holder, id); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, id xid.TID) {
			defer wg.Done()
			errs[i] = m.Commit(id)
		}(i, id)
	}
	// Three transactions queue at the admission gate (all 6 slots held).
	for i := 5; i < 8; i++ {
		id, _ := m.Initiate(func(tx *Tx) error { return nil })
		wg.Add(1)
		go func(i int, id xid.TID) {
			defer wg.Done()
			if err := m.Begin(id); err != nil {
				errs[i] = err
				return
			}
			errs[i] = m.Commit(id)
		}(i, id)
	}
	time.Sleep(50 * time.Millisecond) // let everyone park
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung under load")
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrAborted) {
			t.Fatalf("waiter %d returned %v, want ErrClosed/ErrAborted", i, err)
		}
	}
	for _, info := range m.Transactions() {
		if !info.Status.Terminated() {
			t.Fatalf("txn %v leaked in %v after Close", info.ID, info.Status)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := m.Initiate(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("initiate after Close: %v", err)
	}
}

// TestRunRetriesThreeWayDeadlock: three transactions lock {X,Y}, {Y,Z},
// {Z,X} in orders that deadlock in the first round; Run drives all three
// to completion with no manual intervention.
func TestRunRetriesThreeWayDeadlock(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oids := []xid.OID{
		mustCreate(t, m, []byte{0}),
		mustCreate(t, m, []byte{0}),
		mustCreate(t, m, []byte{0}),
	}
	var arrived atomic.Int32
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			firstRound := true
			errs[w] = m.Run(context.Background(), RunOptions{MaxAttempts: 20}, func(tx *Tx) error {
				if err := tx.Lock(oids[w], xid.OpWrite); err != nil {
					return err
				}
				if firstRound {
					// Hold the first lock until all three workers hold
					// theirs, guaranteeing the 3-cycle forms once.
					firstRound = false
					arrived.Add(1)
					for arrived.Load() < 3 {
						time.Sleep(time.Millisecond)
					}
				}
				return tx.Lock(oids[(w+1)%3], xid.OpWrite)
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: Run failed: %v", w, err)
		}
	}
	s := m.Stats()
	if s.Deadlocks == 0 {
		t.Fatal("the workload never deadlocked; the test proves nothing")
	}
	if s.Retries == 0 {
		t.Fatal("Run never retried")
	}
	waitInvariants(t, m)
}

// TestRunClassification: terminal errors return immediately; errors
// tagged ErrRetryable burn the attempt budget and the give-up error is
// itself ErrRetryable.
func TestRunClassification(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	terminal := errors.New("constraint violated")
	attempts := 0
	err = m.Run(context.Background(), RunOptions{MaxAttempts: 5}, func(tx *Tx) error {
		attempts++
		return terminal
	})
	if !errors.Is(err, terminal) {
		t.Fatalf("Run returned %v, want the terminal error", err)
	}
	if attempts != 1 {
		t.Fatalf("terminal error retried %d times", attempts)
	}
	attempts = 0
	err = m.Run(context.Background(), RunOptions{MaxAttempts: 3, BaseBackoff: time.Microsecond}, func(tx *Tx) error {
		attempts++
		return fmt.Errorf("transient glitch: %w", ErrRetryable)
	})
	if !errors.Is(err, ErrRetryable) {
		t.Fatalf("Run returned %v, want ErrRetryable", err)
	}
	if attempts != 3 {
		t.Fatalf("retryable error attempted %d times, want 3", attempts)
	}
	// A cancelled engagement context stops the loop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Run(ctx, RunOptions{}, func(tx *Tx) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with dead ctx returned %v", err)
	}
}

// TestWaitCtxSemantics: Manager.WaitCtx abandons the wait without touching
// the target; Tx.WaitCtx aborts the waiting transaction (it holds locks).
func TestWaitCtxSemantics(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	release := make(chan struct{})
	slow, _ := m.Initiate(func(tx *Tx) error {
		<-release
		return nil
	})
	if err := m.Begin(slow); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.WaitCtx(ctx, slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx returned %v, want DeadlineExceeded", err)
	}
	if st := m.StatusOf(slow); st != xid.StatusRunning {
		t.Fatalf("outside WaitCtx changed target status to %v", st)
	}
	// Tx.WaitCtx: the waiter aborts when its wait context dies.
	waiterErr := make(chan error, 1)
	waiter, _ := m.Initiate(func(tx *Tx) error {
		wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer wcancel()
		err := tx.WaitCtx(wctx, slow)
		waiterErr <- err
		return err
	})
	if err := m.Begin(waiter); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrAborted) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Tx.WaitCtx returned %v, want abort wrapping DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Tx.WaitCtx never returned")
	}
	waitStatus(t, m, waiter, xid.StatusAborted)
	close(release)
	if err := m.Commit(slow); err != nil {
		t.Fatal(err)
	}
}

// TestLockCtxAbandonPicksNoVictim: transactions that keep abandoning a
// wait on one object under short per-call contexts (Tx.LockCtx, which
// leaves the transaction alive) and asking again wait only on the holder
// and on requests ahead of them, which cannot form a cycle. No transaction
// may be chosen as a deadlock victim: a waiter's edge to an abandoned
// request goes with the request.
func TestLockCtxAbandonPicksNoVictim(t *testing.T) {
	m, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	oid := mustCreate(t, m, []byte{0})
	body := func(tx *Tx) error {
		for i := 0; ; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(100+100*(i%3))*time.Microsecond)
			err := tx.LockCtx(ctx, oid, xid.OpWrite)
			cancel()
			if err == nil {
				time.Sleep(100 * time.Microsecond) // hold it while others abandon
				return nil
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				return err
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				id, err := m.Initiate(body)
				if err == nil {
					if err = m.Execute(id); err == nil {
						err = m.Commit(id)
					}
				}
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d := m.Stats().Deadlocks; d != 0 {
		t.Fatalf("%d deadlock victims where no cycle can form", d)
	}
}
