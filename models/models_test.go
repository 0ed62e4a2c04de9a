package models

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	asset "repro"
)

func newMem(t *testing.T) *asset.Manager {
	t.Helper()
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func seed(t *testing.T, m *asset.Manager, data []byte) asset.OID {
	t.Helper()
	var oid asset.OID
	if err := Atomic(m, func(tx *asset.Tx) error {
		var err error
		oid, err = tx.Create(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

func readObj(t *testing.T, m *asset.Manager, oid asset.OID) string {
	t.Helper()
	b, ok := m.Cache().Read(oid)
	if !ok {
		t.Fatalf("object %v missing", oid)
	}
	return string(b)
}

func TestAtomicCommit(t *testing.T) {
	m := newMem(t)
	oid := seed(t, m, []byte("v0"))
	if err := Atomic(m, func(tx *asset.Tx) error { return tx.Write(oid, []byte("v1")) }); err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, oid) != "v1" {
		t.Fatal("atomic write lost")
	}
}

func TestAtomicAbortRollsBack(t *testing.T) {
	m := newMem(t)
	oid := seed(t, m, []byte("v0"))
	err := Atomic(m, func(tx *asset.Tx) error {
		if err := tx.Write(oid, []byte("dirty")); err != nil {
			return err
		}
		return errors.New("fail")
	})
	if !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if readObj(t, m, oid) != "v0" {
		t.Fatal("rollback failed")
	}
}

func TestDistributedCommitsAll(t *testing.T) {
	m := newMem(t)
	var oids [3]asset.OID
	err := Distributed(m,
		func(tx *asset.Tx) error { var e error; oids[0], e = tx.Create([]byte("a")); return e },
		func(tx *asset.Tx) error { var e error; oids[1], e = tx.Create([]byte("b")); return e },
		func(tx *asset.Tx) error { var e error; oids[2], e = tx.Create([]byte("c")); return e },
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache().Len() != 3 {
		t.Fatalf("cache len = %d, want 3", m.Cache().Len())
	}
	if st := m.Stats(); st.LogForces != 1 {
		t.Fatalf("log forces = %d, want 1 (single group commit record)", st.LogForces)
	}
}

func TestDistributedAbortsAll(t *testing.T) {
	m := newMem(t)
	err := Distributed(m,
		func(tx *asset.Tx) error { _, e := tx.Create([]byte("a")); return e },
		func(tx *asset.Tx) error { return errors.New("component fails") },
	)
	if !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if m.Cache().Len() != 0 {
		t.Fatal("partial component survived group abort")
	}
}

func TestContingentFirstSucceeds(t *testing.T) {
	m := newMem(t)
	idx, err := Contingent(m,
		func(tx *asset.Tx) error { _, e := tx.Create([]byte("first")); return e },
		func(tx *asset.Tx) error { t.Error("second alternative ran"); return nil },
	)
	if err != nil || idx != 0 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

func TestContingentFallsThrough(t *testing.T) {
	m := newMem(t)
	ran := []string{}
	idx, err := Contingent(m,
		func(tx *asset.Tx) error { ran = append(ran, "a"); return errors.New("no") },
		func(tx *asset.Tx) error { ran = append(ran, "b"); return errors.New("no") },
		func(tx *asset.Tx) error { ran = append(ran, "c"); return nil },
	)
	if err != nil || idx != 2 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	if fmt.Sprint(ran) != "[a b c]" {
		t.Fatalf("order = %v", ran)
	}
}

func TestContingentAllFail(t *testing.T) {
	m := newMem(t)
	idx, err := Contingent(m,
		func(tx *asset.Tx) error { return errors.New("no") },
		func(tx *asset.Tx) error { return errors.New("no") },
	)
	if idx != -1 || err == nil {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

func TestNestedCommit(t *testing.T) {
	m := newMem(t)
	flight := seed(t, m, []byte("-"))
	hotel := seed(t, m, []byte("-"))
	err := Atomic(m, func(tx *asset.Tx) error {
		if err := Sub(tx, func(c *asset.Tx) error { return c.Write(flight, []byte("AA100")) }); err != nil {
			return err
		}
		return Sub(tx, func(c *asset.Tx) error { return c.Write(hotel, []byte("Equator")) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, flight) != "AA100" || readObj(t, m, hotel) != "Equator" {
		t.Fatal("nested subtransaction effects lost")
	}
}

func TestNestedChildFailureAbortsParent(t *testing.T) {
	m := newMem(t)
	flight := seed(t, m, []byte("-"))
	err := Atomic(m, func(tx *asset.Tx) error {
		if err := Sub(tx, func(c *asset.Tx) error { return c.Write(flight, []byte("AA100")) }); err != nil {
			return err
		}
		return Sub(tx, func(c *asset.Tx) error { return errors.New("hotel full") })
	})
	if !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if readObj(t, m, flight) != "-" {
		t.Fatal("first child's delegated write survived parent abort")
	}
}

func TestNestedOptionalChild(t *testing.T) {
	m := newMem(t)
	car := seed(t, m, []byte("-"))
	err := Atomic(m, func(tx *asset.Tx) error {
		ok, err := SubOptional(tx, func(c *asset.Tx) error { return errors.New("no cars") })
		if err != nil {
			return err
		}
		if ok {
			t.Error("failed optional child reported ok")
		}
		return tx.Write(car, []byte("public-transit"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, car) != "public-transit" {
		t.Fatal("parent work lost after optional child failure")
	}
}

func TestNestedThreeLevels(t *testing.T) {
	m := newMem(t)
	oid := seed(t, m, []byte{0})
	err := Atomic(m, func(tx *asset.Tx) error {
		return Sub(tx, func(mid *asset.Tx) error {
			return Sub(mid, func(leaf *asset.Tx) error {
				return leaf.Update(oid, func(b []byte) []byte { b[0] = 3; return b })
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, oid)[0] != 3 {
		t.Fatal("grandchild write lost")
	}
}

func TestNestedSubAbortDoesNotUndoParentWork(t *testing.T) {
	m := newMem(t)
	a := seed(t, m, []byte("pa"))
	err := Atomic(m, func(tx *asset.Tx) error {
		if err := tx.Write(a, []byte("parent-wrote")); err != nil {
			return err
		}
		// Child fails after touching nothing of its own; parent tolerates.
		if ok, err := SubOptional(tx, func(c *asset.Tx) error { return errors.New("nope") }); err != nil || ok {
			return fmt.Errorf("unexpected: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, a) != "parent-wrote" {
		t.Fatal("parent work lost")
	}
}

func TestSplitCommitIndependently(t *testing.T) {
	m := newMem(t)
	a := seed(t, m, []byte("a0"))
	b := seed(t, m, []byte("b0"))
	var splitID asset.TID
	parent, err := m.Initiate(func(tx *asset.Tx) error {
		if err := tx.Write(a, []byte("a1")); err != nil {
			return err
		}
		if err := tx.Write(b, []byte("b1")); err != nil {
			return err
		}
		// Split off responsibility for a; s finishes that line of work.
		s, err := Split(tx, func(s *asset.Tx) error { return nil }, a)
		if err != nil {
			return err
		}
		splitID = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(parent)
	if err := m.Wait(parent); err != nil {
		t.Fatal(err)
	}
	// The split transaction commits its delegated work; the parent aborts.
	if err := m.Commit(splitID); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(parent); err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, a) != "a1" {
		t.Fatal("split-off write lost with parent abort")
	}
	if readObj(t, m, b) != "b0" {
		t.Fatal("parent's retained write survived its abort")
	}
}

func TestSplitThenJoin(t *testing.T) {
	m := newMem(t)
	a := seed(t, m, []byte("a0"))
	other, err := m.Initiate(func(tx *asset.Tx) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(other)
	var s asset.TID
	parent, _ := m.Initiate(func(tx *asset.Tx) error {
		if err := tx.Write(a, []byte("a1")); err != nil {
			return err
		}
		var err error
		s, err = Split(tx, func(st *asset.Tx) error { return nil }, a)
		return err
	})
	m.Begin(parent)
	if err := m.Wait(parent); err != nil {
		t.Fatal(err)
	}
	// Join s into `other`; now the write commits with `other`.
	if err := Join(m, s, other); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(parent); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(other); err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, a) != "a1" {
		t.Fatal("joined write lost")
	}
}

func TestSagaCommitsAllSteps(t *testing.T) {
	m := newMem(t)
	var order []string
	saga := NewSaga(m).
		Step("s1", func(tx *asset.Tx) error { order = append(order, "s1"); return nil }, nil).
		Step("s2", func(tx *asset.Tx) error { order = append(order, "s2"); return nil }, nil).
		Step("s3", func(tx *asset.Tx) error { order = append(order, "s3"); return nil }, nil)
	res, err := saga.Run()
	if err != nil || res.Err() != nil {
		t.Fatalf("err=%v resErr=%v", err, res.Err())
	}
	if fmt.Sprint(order) != "[s1 s2 s3]" || len(res.Committed) != 3 {
		t.Fatalf("order=%v committed=%v", order, res.Committed)
	}
}

// TestSagaCompensationOrder is experiment E8's semantic core: aborting
// after step k runs exactly ct_k..ct_1 in reverse order.
func TestSagaCompensationOrder(t *testing.T) {
	m := newMem(t)
	var events []string
	step := func(name string) (asset.TxnFunc, asset.TxnFunc) {
		return func(tx *asset.Tx) error { events = append(events, name); return nil },
			func(tx *asset.Tx) error { events = append(events, "c"+name); return nil }
	}
	a1, c1 := step("s1")
	a2, c2 := step("s2")
	a3, c3 := step("s3")
	saga := NewSaga(m).
		Step("s1", a1, c1).
		Step("s2", a2, c2).
		Step("s3", a3, c3).
		Step("s4", func(tx *asset.Tx) error { return errors.New("fail") }, nil)
	res, err := saga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() == nil || res.FailedStep != "s4" {
		t.Fatalf("res = %+v", res)
	}
	want := "[s1 s2 s3 cs3 cs2 cs1]"
	if fmt.Sprint(events) != want {
		t.Fatalf("events = %v, want %v", events, want)
	}
	_ = c3
	_ = a3
}

func TestSagaStepsCommitEagerly(t *testing.T) {
	// Each step's effects are durable/visible before the saga ends — the
	// defining difference from a flat transaction.
	m := newMem(t)
	oid := seed(t, m, []byte("0"))
	var midValue string
	saga := NewSaga(m).
		Step("write", func(tx *asset.Tx) error { return tx.Write(oid, []byte("1")) },
			func(tx *asset.Tx) error { return tx.Write(oid, []byte("0")) }).
		Step("observe", func(tx *asset.Tx) error {
			midValue = readObj(t, m, oid) // another txn could see this too
			return nil
		}, nil)
	if res, err := saga.Run(); err != nil || res.Err() != nil {
		t.Fatalf("%v %v", err, res.Err())
	}
	if midValue != "1" {
		t.Fatalf("step 1's commit not visible mid-saga: %q", midValue)
	}
}

func TestSagaCompensationRestoresState(t *testing.T) {
	m := newMem(t)
	acct := seed(t, m, []byte("100"))
	saga := NewSaga(m).
		Step("debit", func(tx *asset.Tx) error { return tx.Write(acct, []byte("050")) },
			func(tx *asset.Tx) error { return tx.Write(acct, []byte("100")) }).
		Step("fail", func(tx *asset.Tx) error { return errors.New("downstream gone") }, nil)
	res, err := saga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() == nil {
		t.Fatal("saga reported success")
	}
	if readObj(t, m, acct) != "100" {
		t.Fatalf("account = %q, want compensated 100", readObj(t, m, acct))
	}
}

func TestSagaCompensationRetries(t *testing.T) {
	m := newMem(t)
	var attempts atomic.Int32
	saga := NewSaga(m).
		Step("s1", func(tx *asset.Tx) error { return nil },
			func(tx *asset.Tx) error {
				if attempts.Add(1) < 3 {
					return errors.New("transient")
				}
				return nil
			}).
		Step("s2", func(tx *asset.Tx) error { return errors.New("fail") }, nil)
	res, err := saga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 3 || len(res.Compensated) != 1 {
		t.Fatalf("attempts=%d compensated=%v", attempts.Load(), res.Compensated)
	}
}

func TestWorkspaceCooperativeDesign(t *testing.T) {
	m := newMem(t)
	design := seed(t, m, []byte{0, 0})
	ws := NewWorkspace(m, design)

	aliceReady := make(chan struct{})
	bobDone := make(chan struct{})
	alice, _ := m.Initiate(func(tx *asset.Tx) error {
		if err := tx.Update(design, func(b []byte) []byte { b[0] = 1; return b }); err != nil {
			return err
		}
		close(aliceReady)
		<-bobDone
		return nil
	})
	bob, _ := m.Initiate(func(tx *asset.Tx) error {
		<-aliceReady
		defer close(bobDone)
		return tx.Update(design, func(b []byte) []byte { b[1] = 2; return b })
	})
	if err := ws.Admit(alice); err != nil {
		t.Fatal(err)
	}
	if err := ws.Admit(bob); err != nil {
		t.Fatal(err)
	}
	m.Begin(alice, bob)
	if err := ws.CommitAll(); err != nil {
		t.Fatal(err)
	}
	got := readObj(t, m, design)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("design = %v, want both contributions", []byte(got))
	}
}

func TestWorkspaceAbortAllRollsBackEveryone(t *testing.T) {
	m := newMem(t)
	design := seed(t, m, []byte{9})
	ws := NewWorkspace(m, design)
	ready := make(chan struct{})
	alice, _ := m.Initiate(func(tx *asset.Tx) error {
		err := tx.Update(design, func(b []byte) []byte { b[0] = 1; return b })
		close(ready)
		return err
	})
	ws.Admit(alice)
	m.Begin(alice)
	<-ready
	m.Wait(alice)
	if err := ws.AbortAll(); err != nil {
		t.Fatal(err)
	}
	if readObj(t, m, design)[0] != 9 {
		t.Fatal("workspace abort did not restore the design")
	}
}
