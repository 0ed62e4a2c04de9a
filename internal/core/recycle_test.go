package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/race"
	"repro/internal/xid"
)

// These tests pin the descriptor-recycling rule (DESIGN.md §8): a
// transaction descriptor goes back on the manager's free list once it has
// terminated, left the table and nothing pins it, and every path that keeps
// one while the manager mutex is released pins it first.

// descriptor returns the descriptor the table holds for id, looked up
// under the manager mutex.
func descriptor(t *testing.T, m *Manager, id xid.TID) *txn {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.txns.Get(uint64(id))
	if !ok {
		t.Fatalf("no descriptor for %v", id)
	}
	return d
}

// parked reports whether somebody waits on e, an event of d that has not
// fired.
func parked(d *txn, e *event) bool {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	return e.ch != nil && e.ch != closedCh
}

// TestRecycleWaitKeepsAbortReason: a Wait parked on a target that then
// aborts and is reaped reads the target's abort reason, although a new
// transaction is initiated the moment the abort returns — with one
// processor the waiter cannot run before it. Unpinned, the wait's
// descriptor is the new transaction's by the time the waiter reads it, and
// Wait reports the new, initiated transaction: nil.
func TestRecycleWaitKeepsAbortReason(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := newMem(t)
	reason := errors.New("the target's own reason")
	for round := 0; round < 50; round++ {
		// Never begun: the table holds the target's only reference.
		id := initiated(t, m, noop)
		target := descriptor(t, m, id)
		got := make(chan error, 1)
		go func() { got <- m.Wait(id) }()
		for !parked(target, &target.done) {
			runtime.Gosched()
		}
		if err := m.AbortWith(id, reason); err != nil {
			t.Fatal(err)
		}
		next := initiated(t, m, noop)
		if d := descriptor(t, m, next); d == target {
			t.Errorf("round %d: %v was given the descriptor a Wait still holds", round, next)
		}
		if err := <-got; !errors.Is(err, reason) {
			t.Fatalf("round %d: Wait on the aborted %v = %v, want its reason %q", round, id, err, reason)
		}
		m.Abort(next)
	}
}

// TestRecycleReadersNeverMixTransactions: StatusOf and Transactions, which
// take no manager mutex, race 10,000 recycle rounds and never report one
// transaction's tid with another's status or parent. Every transaction is
// initiated with itself as its parent, and even tids abort while odd ones
// commit, so a mixed-up reading shows as a parent that is not the tid or a
// status of the wrong parity. (A reader that read a descriptor after the
// table let go of it also races reset under the race detector.)
func TestRecycleReadersNeverMixTransactions(t *testing.T) {
	m := newMem(t)
	const rounds = 10_000
	committed := func(st xid.Status) bool {
		return st == xid.StatusRunning || st == xid.StatusCompleted ||
			st == xid.StatusCommitting || st == xid.StatusCommitted
	}
	aborted := func(st xid.Status) bool { return st == xid.StatusAborting || st == xid.StatusAborted }
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(err error) { errs <- err }
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, info := range m.Transactions() {
					switch {
					case info.Parent != info.ID:
						fail(fmt.Errorf("Transactions: %v listed with parent %v", info.ID, info.Parent))
						return
					case info.ID%2 == 0 && committed(info.Status), info.ID%2 == 1 && aborted(info.Status):
						fail(fmt.Errorf("Transactions: %v listed as %v", info.ID, info.Status))
						return
					}
				}
				last := xid.TID(m.nextTID.Load())
				for _, id := range []xid.TID{last, last - 1} {
					// StatusOf says aborted for a tid not yet tabled, so only
					// an even tid's status can show another transaction's.
					if st := m.StatusOf(id); id%2 == 0 && committed(st) {
						fail(fmt.Errorf("StatusOf(%v) = %v", id, st))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		// This loop is the only initiator, so the next tid is known.
		want := xid.TID(m.nextTID.Load() + 1)
		id, err := m.initiate(noop, want)
		if err != nil || id != want {
			t.Fatalf("initiate = %v, %v; want %v", id, err, want)
		}
		if id%2 == 0 {
			err = m.Abort(id)
		} else if err = m.Execute(id); err == nil {
			err = m.Commit(id)
		}
		if err != nil {
			t.Fatalf("round %d, %v: %v", i, id, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("descriptor invariants: %v", bad)
	}
}

// TestRecycleObstacleWaitKeepsOthersEdges: a commit driver parked on a
// supporter while its group aborts under it removes its own wait edges and
// no one else's. The group member's descriptor would be free the moment the
// abort reaps it; a transaction initiated right then, before the driver
// wakes, registers a wait on the same supporter. Unpinned, the driver reads
// the member's tid from the new transaction's descriptor and removes the
// new transaction's edge, leaving a real wait the deadlock detector cannot
// see. The waits-for graph is empty once everything has terminated.
func TestRecycleObstacleWaitKeepsOthersEdges(t *testing.T) {
	m := newMem(t)
	release := make(chan struct{})
	sup := initiated(t, m, func(*Tx) error { <-release; return nil })
	t1, g := initiated(t, m, noop), initiated(t, m, noop)
	if err := m.FormDependency(xid.DepGC, t1, g); err != nil {
		t.Fatal(err)
	}
	if err := m.FormDependency(xid.DepCD, sup, t1); err != nil { // t1 commits after sup terminates
		t.Fatal(err)
	}
	if err := m.Begin(sup); err != nil {
		t.Fatal(err)
	}
	for _, id := range []xid.TID{t1, g} {
		if err := m.Execute(id); err != nil {
			t.Fatal(err)
		}
	}
	gd := descriptor(t, m, g)
	committed := make(chan error, 1)
	go func() { committed <- m.Commit(t1) }()
	waiting := func(id xid.TID) bool {
		for _, w := range m.WaitGraph().Waiters() {
			if w == id {
				return true
			}
		}
		return false
	}
	for !waiting(g) {
		runtime.Gosched()
	}

	// Abort the group and initiate the newcomer while the driver cannot
	// take the mutex back; the newcomer's wait on sup is registered the
	// way Tx.Wait registers one, under the mutex.
	m.mu.Lock()
	reason := fmt.Errorf("%w: the group goes", ErrAborted)
	for _, id := range []xid.TID{g, t1} {
		if d, ok := m.txns.Get(uint64(id)); ok {
			m.abortLocked(d, reason)
		}
	}
	x, newcomer, err := m.initiateOpts(noop, xid.NilTID, TxnOptions{})
	if err != nil {
		m.mu.Unlock()
		t.Fatal(err)
	}
	if x == gd {
		t.Errorf("newcomer %v was given the descriptor of %v, which the commit driver still holds", newcomer, g)
	}
	m.waits.Add(newcomer, sup)
	m.mu.Unlock()

	if err := <-committed; !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit(%v) = %v, want the group's abort", t1, err)
	}
	if !waiting(newcomer) {
		t.Errorf("the commit driver removed newcomer %v's wait on %v", newcomer, sup)
	}
	m.waits.Remove(newcomer, sup)
	m.Abort(newcomer)
	close(release)
	if err := m.Commit(sup); err != nil {
		t.Fatal(err)
	}
	if w := m.WaitGraph().Waiters(); len(w) != 0 {
		t.Errorf("waits-for graph at quiescence: %v waiting", w)
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("descriptor invariants: %v", bad)
	}
}

// TestRecycleWithdrawAfterClose: an initiator that finds the manager closed
// after publishing its descriptor withdraws it, while Close aborts whatever
// it finds in the table. Whichever comes second leaves the descriptor to
// the other: the withdrawal after Close's abort has reaped (and recycled)
// it, and Close's abort while a withdrawal waits for the mutex Close holds.
// A withdrawal that drops the table's reference regardless over-unpins the
// descriptor, and one that does not wait for the mutex recycles the
// descriptor under Close's abort; either panics.
func TestRecycleWithdrawAfterClose(t *testing.T) {
	m := newMem(t)
	id := initiated(t, m, noop)
	d := descriptor(t, m, id)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m.withdraw(d, id)
	if n := m.live.Load(); n != 0 {
		t.Errorf("withdrawn after Close: %d transactions live", n)
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("withdrawn after Close: descriptor invariants: %v", bad)
	}

	// Close's part, by hand: find the descriptor and abort it under the
	// mutex, with the withdrawal started in between.
	m = newMem(t)
	id = initiated(t, m, noop)
	withdrawn := make(chan struct{})
	func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		d, _ = m.txns.Get(uint64(id))
		go func() {
			m.withdraw(d, id)
			close(withdrawn)
		}()
		select {
		case <-withdrawn: // only a withdrawal that ignores the mutex gets here
		case <-time.After(20 * time.Millisecond):
		}
		m.abortLocked(d, fmt.Errorf("%w: %w", ErrAborted, ErrClosed))
	}()
	<-withdrawn
	if n := m.live.Load(); n != 0 {
		t.Errorf("withdrawn under Close's abort: %d transactions live", n)
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("withdrawn under Close's abort: descriptor invariants: %v", bad)
	}
}

// TestRecycleCloseRacesInitiate: Close, aborting every transaction it
// finds, races initiators that publish descriptors and then back out on
// seeing the manager closed. The two must agree on who drops the table's
// reference; TestRecycleWithdrawAfterClose forces the two interleavings
// where they could disagree, and this test runs the real race. No Initiate
// reports success with the null tid, and once everything has stopped no
// transaction is live, the table holds nothing and the free list is
// sound. Half the initiators are interactive and give their handle's
// reference back at once, so their descriptors reach the free list (and
// the audit) too, and one that lost the race to Close must not keep the
// reference of a handle it never got.
func TestRecycleCloseRacesInitiate(t *testing.T) {
	rounds := 200
	if race.Enabled {
		rounds = 60
	}
	for round := 0; round < rounds; round++ {
		m, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		var started sync.WaitGroup
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			started.Add(1)
			wg.Add(1)
			go func(interactive bool) {
				defer wg.Done()
				for i := 0; ; i++ {
					if i == 8 {
						started.Done()
					}
					var id xid.TID
					var err error
					if interactive {
						var tx *Tx
						if tx, err = m.InitiateInteractive(); err == nil {
							id = tx.ID()
							tx.Unpin() // the table's reference is left: Close's abort recycles it
						}
					} else {
						id, err = m.Initiate(noop)
					}
					switch {
					case errors.Is(err, ErrClosed): // only after started.Wait
						return
					case err != nil:
						errs <- err
					case id == xid.NilTID:
						errs <- errors.New("Initiate succeeded with the null tid")
					}
				}
			}(w%2 == 1)
		}
		started.Wait()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if n := m.live.Load(); n != 0 {
			t.Fatalf("round %d: %d transactions live after Close", round, n)
		}
		m.txns.Visit(func(id uint64, d *txn) bool {
			t.Fatalf("round %d: %v tabled as %v after Close", round, xid.TID(id), d.st())
			return true
		})
		if bad := m.checkDescriptors(); len(bad) > 0 {
			t.Fatalf("round %d: descriptor invariants: %v", round, bad)
		}
	}
}

// TestRecycleDescriptorInvariants runs a mixed workload of executed and
// begun bodies, commits, aborts, outside waits, group commits and context
// binding, then checks that no descriptor is both in the table and on the
// free list and that every reference count is what its holders account
// for.
func TestRecycleDescriptorInvariants(t *testing.T) {
	m := newMem(t)
	workers, rounds := 4, 500
	if race.Enabled {
		rounds = 200
	}
	obj := seedObject(t, m, make([]byte, 8))
	goroutines := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			write := func(tx *Tx) error { return tx.Write(obj, []byte("recycled")) }
			for i := 0; i < rounds; i++ {
				switch rng.Intn(6) {
				case 0: // executed, committed
					if id, err := m.Initiate(write); err == nil && m.Execute(id) == nil {
						m.Commit(id)
					}
				case 1: // begun, waited on from outside, committed
					if id, err := m.Initiate(write); err == nil && m.Begin(id) == nil {
						m.Wait(id)
						m.Commit(id)
					}
				case 2: // a group of two
					a, _ := m.Initiate(noop)
					b, _ := m.Initiate(write)
					m.FormDependency(xid.DepGC, a, b)
					m.Begin(a)
					m.Execute(b)
					m.Commit(b)
				case 3: // a body that fails
					if id, err := m.Initiate(func(*Tx) error { return errors.New("no") }); err == nil {
						m.Execute(id)
						m.Commit(id)
					}
				case 4: // aborted from outside while its body runs
					if id, err := m.Initiate(write); err == nil && m.Begin(id) == nil {
						m.Abort(id)
						m.Wait(id)
					}
				case 5: // a bound context, cancelled while the body runs
					ctx, cancel := context.WithCancel(context.Background())
					if id, err := m.InitiateWith(write, TxnOptions{Ctx: ctx}); err == nil && m.Begin(id) == nil {
						cancel()
						m.Wait(id)
						m.Commit(id)
					}
					cancel()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Begun bodies and context watchers drop their references on their way
	// out, after the transaction has left the table: with the table empty
	// the audit is clean while they may still hold every descriptor. Wait
	// for their goroutines to exit, then audit.
	deadline := time.Now().Add(10 * time.Second)
	for (runtime.NumGoroutine() > goroutines || len(m.checkDescriptors()) > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("descriptor invariants: %v", bad)
	}
	recycled := 0
	_ = m.free.Audit(func(*txn) { recycled++ }) // checkDescriptors reports a broken chain
	if recycled == 0 {
		t.Error("nothing was recycled")
	}
}

// checkDescriptors audits the descriptor table against the free list at a
// quiescent point: nothing on the free list is in the table, nothing on
// either has a negative reference count, a free descriptor has none and is
// empty, and a tabled one holds the table's and nothing else but the
// references of the interactive handles the caller still holds, listed in
// held once per reference. A held descriptor the table has let go of holds
// those alone. Every free waker is empty (checkWakers). It returns a
// description of each violation.
func (m *Manager) checkDescriptors(held ...*Tx) []string {
	bad := m.checkWakers()
	holds := make(map[*txn]int32)
	for _, tx := range held {
		holds[tx.t]++
	}
	free := make(map[*txn]bool)
	if err := m.free.Audit(func(d *txn) {
		free[d] = true
		if r := d.refs.Load(); r != 0 {
			bad = append(bad, fmt.Sprintf("free descriptor with %d references", r))
		}
		if d.fn != nil || d.ctx != nil || d.abErr != nil || len(d.undo) != 0 || d.lk != (lock.Holder{}) {
			bad = append(bad, "free descriptor not reset")
		}
	}); err != nil {
		bad = append(bad, fmt.Sprintf("free list: %v", err))
	}
	tabled := make(map[*txn]bool)
	m.txns.Visit(func(id uint64, d *txn) bool {
		tabled[d] = true
		want := 1 + holds[d]
		switch r := d.refs.Load(); {
		case free[d]:
			bad = append(bad, fmt.Sprintf("%v: descriptor in the table and on the free list", xid.TID(id)))
		case d.id != xid.TID(id):
			bad = append(bad, fmt.Sprintf("%v: tabled descriptor says %v", xid.TID(id), d.id))
		case r != want:
			bad = append(bad, fmt.Sprintf("%v (%v): %d references at quiescence, want %d", d.id, d.st(), r, want))
		}
		return true
	})
	for d, n := range holds {
		switch r := d.refs.Load(); {
		case tabled[d]:
		case free[d]:
			bad = append(bad, fmt.Sprintf("%v: held descriptor on the free list", d.id))
		case r != n:
			bad = append(bad, fmt.Sprintf("%v (%v): %d references held, want %d", d.id, d.st(), r, n))
		}
	}
	return bad
}

// TestInteractiveHandleRecycledAfterUnpin: an interactive transaction's
// descriptor reaches the free list once the manager has reaped the
// transaction and its handle's holders have dropped every reference, in
// either order and not before; a second Pin keeps it across one Unpin, and
// an Unpin more than was pinned panics.
func TestInteractiveHandleRecycledAfterUnpin(t *testing.T) {
	m := newMem(t)
	onFree := func(d *txn) bool {
		found := false
		_ = m.free.Audit(func(f *txn) { found = found || f == d })
		return found
	}
	audit := func(step string, held ...*Tx) {
		t.Helper()
		if bad := m.checkDescriptors(held...); len(bad) > 0 {
			t.Fatalf("%s: descriptor invariants: %v", step, bad)
		}
	}

	// Reaped first, unpinned second: the handle still reads the outcome.
	tx, err := m.InitiateInteractive()
	if err != nil {
		t.Fatal(err)
	}
	id, d := tx.ID(), tx.t
	if _, err := m.BeginInteractive(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	audit("begun", tx)
	tx.Complete()
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	audit("reaped, held", tx)
	if onFree(d) || tx.Status() != xid.StatusCommitted {
		t.Fatalf("reaped %v: on the free list %v, status %v; want held and committed", id, onFree(d), tx.Status())
	}
	tx.Unpin()
	if !onFree(d) {
		t.Fatalf("%v reaped and unpinned, but its descriptor is not on the free list", id)
	}
	audit("reaped, unpinned")

	// Unpinned first, reaped second.
	if tx, err = m.InitiateInteractive(); err != nil {
		t.Fatal(err)
	}
	id, d = tx.ID(), tx.t
	tx.Unpin()
	audit("unpinned, tabled")
	if onFree(d) {
		t.Fatalf("%v unpinned but tabled, and its descriptor is on the free list", id)
	}
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	if !onFree(d) {
		t.Fatalf("%v unpinned and reaped, but its descriptor is not on the free list", id)
	}

	// A second holder keeps the descriptor across the first one's Unpin.
	if tx, err = m.InitiateInteractive(); err != nil {
		t.Fatal(err)
	}
	id, d = tx.ID(), tx.t
	tx.Pin()
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	audit("reaped, held twice", tx, tx)
	tx.Unpin()
	audit("reaped, held once", tx)
	if onFree(d) || tx.Status() != xid.StatusAborted {
		t.Fatalf("%v reaped and held once: on the free list %v, status %v; want held and aborted", id, onFree(d), tx.Status())
	}
	tx.Unpin()
	if !onFree(d) {
		t.Fatalf("%v reaped and unpinned twice, but its descriptor is not on the free list", id)
	}
	audit("reaped, unpinned twice")

	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "unpinned more often than pinned") {
			t.Fatalf("an Unpin more than was pinned: recovered %v, want the over-unpin panic", r)
		}
	}()
	tx.Unpin()
}
