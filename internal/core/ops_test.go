package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/xid"
)

func TestCreateReadWriteDelete(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("v1"))
	runTxn(t, m, func(tx *Tx) error {
		got, err := tx.Read(oid)
		if err != nil || string(got) != "v1" {
			t.Fatalf("Read = %q, %v", got, err)
		}
		if err := tx.Write(oid, []byte("v2")); err != nil {
			return err
		}
		got, err = tx.Read(oid)
		if err != nil || string(got) != "v2" {
			t.Fatalf("Read own write = %q, %v", got, err)
		}
		return nil
	})
	runTxn(t, m, func(tx *Tx) error {
		if err := tx.Delete(oid); err != nil {
			return err
		}
		if _, err := tx.Read(oid); !errors.Is(err, ErrNoObject) {
			t.Fatalf("Read deleted = %v", err)
		}
		return nil
	})
	if _, ok := m.Cache().Read(oid); ok {
		t.Fatal("object survived committed delete")
	}
}

func TestUpdateHelper(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte{0})
	runTxn(t, m, func(tx *Tx) error {
		return tx.Update(oid, func(b []byte) []byte {
			b[0]++
			return b
		})
	})
	got, _ := m.Cache().Read(oid)
	if got[0] != 1 {
		t.Fatalf("counter = %d", got[0])
	}
}

func TestAbortRestoresValues(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("orig"))
	id, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Write(oid, []byte("dirty1")); err != nil {
			return err
		}
		if err := tx.Write(oid, []byte("dirty2")); err != nil {
			return err
		}
		if _, err := tx.Create([]byte("extra")); err != nil {
			return err
		}
		return nil
	})
	m.Begin(id)
	m.Wait(id)
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Cache().Read(oid)
	if !ok || string(got) != "orig" {
		t.Fatalf("after abort = %q,%v; want orig", got, ok)
	}
	if m.Cache().Len() != 1 {
		t.Fatalf("created object survived abort (cache len %d)", m.Cache().Len())
	}
}

func TestAbortRestoresDeletedObject(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("keepme"))
	id, _ := m.Initiate(func(tx *Tx) error { return tx.Delete(oid) })
	m.Begin(id)
	m.Wait(id)
	m.Abort(id)
	got, ok := m.Cache().Read(oid)
	if !ok || string(got) != "keepme" {
		t.Fatalf("deleted object not reinstated: %q,%v", got, ok)
	}
}

func TestIsolationUncommittedInvisible(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("clean"))
	wrote := make(chan struct{})
	hold := make(chan struct{})
	writer, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Write(oid, []byte("uncommitted")); err != nil {
			return err
		}
		close(wrote)
		<-hold
		return nil
	})
	m.Begin(writer)
	<-wrote
	// A reader must block on the writer's lock, not see dirty data.
	readerDone := make(chan string, 1)
	reader, _ := m.Initiate(func(tx *Tx) error {
		data, err := tx.Read(oid)
		if err != nil {
			return err
		}
		readerDone <- string(data)
		return nil
	})
	m.Begin(reader)
	select {
	case v := <-readerDone:
		t.Fatalf("reader saw %q while writer uncommitted", v)
	case <-time.After(30 * time.Millisecond):
	}
	close(hold)
	if err := m.Commit(writer); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(reader); err != nil {
		t.Fatal(err)
	}
	if v := <-readerDone; v != "uncommitted" {
		t.Fatalf("reader saw %q after writer commit", v)
	}
}

func TestLostUpdatePrevented(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte{0, 0, 0, 0})
	const workers, iters = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < iters; i++ {
				id, err := m.Initiate(func(tx *Tx) error {
					return tx.Update(oid, func(b []byte) []byte {
						// 32-bit counter increment
						v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
						v++
						return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
					})
				})
				if err != nil {
					errs <- err
					return
				}
				m.Begin(id)
				if err := m.Commit(id); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	b, _ := m.Cache().Read(oid)
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if v != workers*iters {
		t.Fatalf("counter = %d, want %d (lost update)", v, workers*iters)
	}
}

func TestDeadlockVictimAborts(t *testing.T) {
	m := newMem(t)
	a := seedObject(t, m, []byte("a"))
	b := seedObject(t, m, []byte("b"))
	gotA := make(chan struct{})
	gotB := make(chan struct{})
	res := make(chan error, 2)
	t1, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Write(a, []byte("1")); err != nil {
			return err
		}
		close(gotA)
		<-gotB
		return tx.Write(b, []byte("1"))
	})
	t2, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Write(b, []byte("2")); err != nil {
			return err
		}
		close(gotB)
		<-gotA
		return tx.Write(a, []byte("2"))
	})
	m.Begin(t1, t2)
	go func() { res <- m.Commit(t1) }()
	go func() { res <- m.Commit(t2) }()
	e1, e2 := <-res, <-res
	// Exactly one commits, one aborts.
	if (e1 == nil) == (e2 == nil) {
		t.Fatalf("results %v / %v; want one nil one ErrAborted", e1, e2)
	}
	if e1 != nil && !errors.Is(e1, ErrAborted) {
		t.Fatalf("loser error = %v", e1)
	}
	if e2 != nil && !errors.Is(e2, ErrAborted) {
		t.Fatalf("loser error = %v", e2)
	}
	if m.Stats().Deadlocks == 0 {
		t.Fatal("no deadlock recorded")
	}
	// Values are consistent: both objects written by the winner.
	va, _ := m.Cache().Read(a)
	vb, _ := m.Cache().Read(b)
	if !bytes.Equal(va, vb) {
		t.Fatalf("inconsistent state a=%q b=%q", va, vb)
	}
}

func TestCreateAtExplicitOID(t *testing.T) {
	m := newMem(t)
	runTxn(t, m, func(tx *Tx) error { return tx.CreateAt(xid.OID(500), []byte("explicit")) })
	if _, ok := m.Cache().Read(500); !ok {
		t.Fatal("explicit oid missing")
	}
	// Allocator must not collide with the explicit oid.
	var next xid.OID
	runTxn(t, m, func(tx *Tx) error {
		var err error
		next, err = tx.Create([]byte("auto"))
		return err
	})
	if next <= 500 {
		t.Fatalf("allocator returned %v, want > 500", next)
	}
	// Duplicate CreateAt fails.
	id, _ := m.Initiate(func(tx *Tx) error { return tx.CreateAt(500, []byte("dup")) })
	m.Begin(id)
	if err := m.Commit(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("dup CreateAt commit = %v", err)
	}
}

func TestWriteMissingObject(t *testing.T) {
	m := newMem(t)
	id, _ := m.Initiate(func(tx *Tx) error {
		err := tx.Write(12345, []byte("x"))
		if !errors.Is(err, ErrNoObject) {
			t.Errorf("Write missing = %v", err)
		}
		return err
	})
	m.Begin(id)
	m.Wait(id)
}

// TestAbortRacingOperationDoesNotLeakLocks pins the fix for a lock leak
// the -race bench sweep exposed: lock acquisition happens outside m.mu,
// so a body goroutine could win a grant *after* its transaction's abort
// had already cancelled its waits and released its locks. Nothing ever
// released that stray grant, and every later writer of the object hung
// forever. Here the body is held at a gate until the abort fully
// completes, then issues operations; each must fail with ErrAborted and
// must leave the object lockable.
func TestAbortRacingOperationDoesNotLeakLocks(t *testing.T) {
	m := newMem(t)
	runTxn(t, m, func(tx *Tx) error { return tx.CreateAt(1, []byte("v")) })

	ops := map[string]func(*Tx) error{
		"write":  func(tx *Tx) error { return tx.Write(1, []byte("zombie")) },
		"lock":   func(tx *Tx) error { return tx.Lock(1, xid.OpWrite) },
		"read":   func(tx *Tx) error { _, err := tx.Read(1); return err },
		"delete": func(tx *Tx) error { return tx.Delete(1) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			running := make(chan struct{})
			aborted := make(chan struct{})
			opErr := make(chan error, 1)
			id, _ := m.Initiate(func(tx *Tx) error {
				close(running)
				<-aborted // the abort has fully run: waits cancelled, locks released
				err := op(tx)
				opErr <- err
				return err
			})
			if err := m.Begin(id); err != nil {
				t.Fatal(err)
			}
			<-running
			if err := m.Abort(id); err != nil {
				t.Fatal(err)
			}
			close(aborted)
			if err := <-opErr; !errors.Is(err, ErrAborted) {
				t.Fatalf("%s after abort = %v, want ErrAborted", name, err)
			}
			// The stray grant must have been dropped: a fresh writer of the
			// same object must not block behind a dead transaction.
			runTxn(t, m, func(tx *Tx) error { return tx.Write(1, []byte("after-"+name)) })
		})
	}
}

// TestLockFastPathAllocs: re-acquiring a held lock is allocation-free.
// The unbound-context fast path must not materialize a fresh
// context.Background() per call (the lockCtx escape this pins across
// the whole call chain).
func TestLockFastPathAllocs(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("v"))
	runTxn(t, m, func(tx *Tx) error {
		if err := tx.Lock(oid, xid.OpRead); err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := tx.Lock(oid, xid.OpRead); err != nil {
				t.Errorf("Lock: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("re-lock allocates %v objects per call, want 0", allocs)
		}
		return nil
	})
}
