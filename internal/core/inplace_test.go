package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/xid"
)

// A write of the object's length overwrites the object's buffer in place
// and keeps the before image in the writer's descriptor, which the next
// transaction reuses once this one is recycled. A waiter lends the event it
// waits on a wake channel from the manager's free list. These tests pin the
// hazards of both (DESIGN.md §8).

// begunItx initiates and begins an interactive transaction.
func begunItx(t *testing.T, m *Manager) *Tx {
	t.Helper()
	tx, err := m.InitiateInteractive()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginInteractive(context.Background(), tx.ID()); err != nil {
		t.Fatal(err)
	}
	return tx
}

// readObject reads oid straight from the cache.
func readObject(t *testing.T, m *Manager, oid xid.OID) []byte {
	t.Helper()
	data, ok := m.cache.Read(oid)
	if !ok {
		t.Fatalf("object %v is missing", oid)
	}
	return data
}

// TestInPlaceDelegatedImageSurvivesRecycling: T1 writes X in place and
// delegates X to T2, then commits, and its descriptor is recycled and
// reused by T3 for a write of the same size to another object. T2's abort
// must put X's original bytes back, so the delegation must have copied the
// before image into T2's descriptor: left in T1's buffer, it would have
// been overwritten with the other object's image by then.
func TestInPlaceDelegatedImageSurvivesRecycling(t *testing.T) {
	m := newMem(t)
	orig, other := bytes.Repeat([]byte("x"), 32), bytes.Repeat([]byte("y"), 32)
	x, y := seedObject(t, m, orig), seedObject(t, m, other)
	for round := 0; round < 20; round++ {
		t1, t2 := begunItx(t, m), begunItx(t, m)
		if err := t1.Write(x, bytes.Repeat([]byte{'1'}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := m.Delegate(t1.ID(), t2.ID(), x); err != nil {
			t.Fatal(err)
		}
		t1.Complete()
		if err := m.Commit(t1.ID()); err != nil {
			t.Fatal(err)
		}
		d1 := t1.t
		t1.Unpin()
		t3 := begunItx(t, m)
		if t3.t != d1 {
			t.Fatalf("round %d: T3 did not get T1's recycled descriptor", round)
		}
		if err := t3.Write(y, bytes.Repeat([]byte{'3'}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := m.Abort(t2.ID()); err != nil {
			t.Fatal(err)
		}
		if got := readObject(t, m, x); !bytes.Equal(got, orig) {
			t.Fatalf("round %d: X = %q after the delegatee aborted, want %q", round, got, orig)
		}
		if err := m.Abort(t3.ID()); err != nil {
			t.Fatal(err)
		}
		if got := readObject(t, m, y); !bytes.Equal(got, other) {
			t.Fatalf("round %d: Y = %q after T3 aborted, want %q", round, got, other)
		}
		t2.Unpin()
		t3.Unpin()
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("descriptor invariants: %v", bad)
	}
}

// TestAbortRestoresByCopy: an abort copies a before image back, in place
// when the object has the image's length, and never installs the
// descriptor's buffer as the object's: the descriptor's next transaction
// writes its own before images there. A length-changing write is undone
// too, alone and after an in-place write of the same object.
func TestAbortRestoresByCopy(t *testing.T) {
	m := newMem(t)
	orig, other := bytes.Repeat([]byte("o"), 48), bytes.Repeat([]byte("p"), 48)
	x, y := seedObject(t, m, orig), seedObject(t, m, other)
	buf := func(oid xid.OID) *byte {
		obj := m.cache.Object(oid)
		obj.Lat.RLock()
		defer obj.Lat.RUnlock()
		return &obj.Data()[0]
	}
	for _, tc := range []struct {
		name   string
		writes [][]byte
	}{
		{"same length", [][]byte{bytes.Repeat([]byte("a"), 48)}},
		{"longer", [][]byte{bytes.Repeat([]byte("b"), 96)}},
		{"shorter", [][]byte{[]byte("c")}},
		{"same length, then longer", [][]byte{bytes.Repeat([]byte("d"), 48), bytes.Repeat([]byte("e"), 64)}},
		{"longer, then same length", [][]byte{bytes.Repeat([]byte("f"), 64), bytes.Repeat([]byte("g"), 64)}},
	} {
		at := buf(x)
		t1 := begunItx(t, m)
		for _, w := range tc.writes {
			if err := t1.Write(x, w); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Abort(t1.ID()); err != nil {
			t.Fatal(err)
		}
		d1 := t1.t
		t1.Unpin()
		if got := readObject(t, m, x); !bytes.Equal(got, orig) {
			t.Fatalf("%s: X = %q after the abort, want %q", tc.name, got, orig)
		}
		if len(tc.writes) == 1 && len(tc.writes[0]) == len(orig) && buf(x) != at {
			t.Errorf("%s: the abort moved X to a new buffer instead of restoring it in place", tc.name)
		}
		// The recycled descriptor writes Y's before image into its buffer.
		t2 := begunItx(t, m)
		if t2.t != d1 {
			t.Fatalf("%s: T2 did not get T1's recycled descriptor", tc.name)
		}
		if err := t2.Write(y, bytes.Repeat([]byte("q"), 48)); err != nil {
			t.Fatal(err)
		}
		if got := readObject(t, m, x); !bytes.Equal(got, orig) {
			t.Fatalf("%s: X = %q after the recycled descriptor's next write, want %q", tc.name, got, orig)
		}
		if err := m.Abort(t2.ID()); err != nil {
			t.Fatal(err)
		}
		t2.Unpin()
		if got := readObject(t, m, y); !bytes.Equal(got, other) {
			t.Fatalf("%s: Y = %q after its abort, want %q", tc.name, got, other)
		}
	}
}

// TestInPlaceWritesReadWhole: AppendRead and ForEach racing in-place
// writes of a 4 KB object see only whole images, each one byte repeated.
func TestInPlaceWritesReadWhole(t *testing.T) {
	m := newMem(t)
	const size = 4096
	oid := seedObject(t, m, make([]byte, size))
	whole := func(img []byte) error {
		if len(img) != size {
			return fmt.Errorf("read %d bytes, want %d", len(img), size)
		}
		for i, b := range img {
			if b != img[0] {
				return fmt.Errorf("torn image: byte 0 is %d, byte %d is %d", img[0], i, b)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() { // the writer: every image is one byte repeated
		defer wg.Done()
		data := make([]byte, size)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range data {
				data[i] = byte(k)
			}
			id, err := m.Initiate(func(tx *Tx) error { return tx.Write(oid, data) })
			if err == nil {
				err = m.Execute(id)
			}
			if err == nil && k%3 == 0 {
				err = m.Abort(id) // an abort's restore writes in place too
			} else if err == nil {
				err = m.Commit(id)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	reader := func(read func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	var dst []byte
	go reader(func() error {
		var ok bool
		dst, ok = m.cache.AppendRead(dst[:0], oid)
		if !ok {
			return errors.New("object missing")
		}
		return whole(dst)
	})
	go reader(func() error {
		var err error
		m.cache.ForEach(func(o xid.OID, img []byte) bool {
			if o == oid {
				err = whole(img)
			}
			return err == nil
		})
		return err
	})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkWakers audits the manager's waker free list: an intact chain, and
// every channel on it empty, so that no token is left to wake the next
// borrower early.
func (m *Manager) checkWakers() []string {
	var bad []string
	if err := m.wakers.Audit(func(w *waker) {
		if n := len(w.ch); n != 0 {
			bad = append(bad, fmt.Sprintf("a free waker holds %d tokens", n))
		}
	}); err != nil {
		bad = append(bad, fmt.Sprintf("waker free list: %v", err))
	}
	return bad
}

// blockedBody returns a body that runs until release is closed.
func blockedBody(release <-chan struct{}) TxnFunc {
	return func(*Tx) error { <-release; return nil }
}

// TestWakeCommitAndWaitShareEvent: Commit and Wait park on one running
// body's completion from two goroutines. The first lends its wake channel
// to the event, the second moves it onto a broadcast channel with a token,
// and both return once the body completes; every waker goes back empty.
func TestWakeCommitAndWaitShareEvent(t *testing.T) {
	m := newMem(t)
	for round := 0; round < 100; round++ {
		release := make(chan struct{})
		id := initiated(t, m, blockedBody(release))
		if err := m.Begin(id); err != nil {
			t.Fatal(err)
		}
		d := descriptor(t, m, id)
		errs := make(chan error, 2)
		first, second := func() { errs <- m.Commit(id) }, func() { errs <- m.Wait(id) }
		if round%2 == 1 {
			first, second = second, first
		}
		go first()
		for !lentTo(d, &d.done) {
			runtime.Gosched()
		}
		go second()
		for !broadcastOn(d, &d.done) {
			runtime.Gosched()
		}
		close(release)
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("after the rounds: %v", bad)
	}
	free := 0
	_ = m.wakers.Audit(func(*waker) { free++ })
	if free == 0 {
		t.Error("no waker came back to the free list")
	}
}

// lentTo reports whether a waiter's wake channel is lent to e, an event of d.
func lentTo(d *txn, e *event) bool {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	return lent(e.ch)
}

// broadcastOn reports whether e, an event of d, has its waiters' broadcast
// channel.
func broadcastOn(d *txn, e *event) bool {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	return e.ch != nil && e.ch != closedCh && !lent(e.ch)
}

// TestWakeAbandonedWaitRacesFire: a WaitCtx is abandoned while the body
// completes, so its reclaim races the firing's token. First on one
// processor, where the token lands after the waiter was woken to abandon
// and before it runs: it must drain it. Then on all of them, where either
// outcome is right. Whichever it is, the waker goes back to the free list
// empty. A Tx.WaitCtx whose context ends as its target completes does the
// same from inside a transaction.
func TestWakeAbandonedWaitRacesFire(t *testing.T) {
	m := newMem(t)
	procs := runtime.GOMAXPROCS(1)
	for round := 0; round < 20; round++ {
		tx := begunItx(t, m)
		d := tx.t
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() { got <- m.WaitCtx(ctx, tx.ID()) }()
		for !lentTo(d, &d.done) {
			runtime.Gosched()
		}
		cancel()      // wakes the waiter to abandon the wait, and
		tx.Complete() // the firing's token lands before it runs
		if err := <-got; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: WaitCtx = %v, want it abandoned", round, err)
		}
		if err := m.Commit(tx.ID()); err != nil {
			t.Fatal(err)
		}
		tx.Unpin()
	}
	runtime.GOMAXPROCS(procs)
	if bad := m.checkWakers(); len(bad) > 0 {
		t.Fatalf("after the abandoned waits on one processor: %v", bad)
	}
	for round := 0; round < 300; round++ {
		release := make(chan struct{})
		id := initiated(t, m, blockedBody(release))
		if err := m.Begin(id); err != nil {
			t.Fatal(err)
		}
		d := descriptor(t, m, id)
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan error, 1)
		go func() { got <- m.WaitCtx(ctx, id) }()
		for !lentTo(d, &d.done) {
			runtime.Gosched()
		}
		go cancel()
		close(release)
		if err := <-got; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: WaitCtx = %v", round, err)
		}
		if err := m.Commit(id); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	for round := 0; round < 100; round++ {
		release := make(chan struct{})
		target := initiated(t, m, blockedBody(release))
		if err := m.Begin(target); err != nil {
			t.Fatal(err)
		}
		d := descriptor(t, m, target)
		ctx, cancel := context.WithCancel(context.Background())
		waiter := initiated(t, m, func(tx *Tx) error { return tx.WaitCtx(ctx, target) })
		if err := m.Begin(waiter); err != nil {
			t.Fatal(err)
		}
		for !lentTo(d, &d.done) {
			runtime.Gosched()
		}
		go cancel()
		close(release)
		if err := m.Commit(target); err != nil {
			t.Fatal(err)
		}
		// A cancelled wait aborts the waiter, whose descriptor is reaped;
		// its commit reads the abort from the outcome ring.
		if err := m.Commit(waiter); err != nil && !errors.Is(err, ErrAborted) {
			t.Fatalf("round %d: the waiter's commit = %v", round, err)
		}
		cancel()
	}
	if bad := m.checkDescriptors(); len(bad) > 0 {
		t.Errorf("after the rounds: %v", bad)
	}
}
