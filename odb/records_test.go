package odb

import (
	"context"
	"errors"
	"testing"

	asset "repro"
	"repro/models"
)

type employee struct {
	Name   string
	Salary int
	Dept   string
}

func TestTypedRecordsRoundTrip(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	var oid asset.OID
	err := models.Atomic(m, func(tx *asset.Tx) error {
		var err error
		oid, err = Put(tx, employee{Name: "ada", Salary: 120, Dept: "eng"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = models.Atomic(m, func(tx *asset.Tx) error {
		e, err := Get[employee](tx, oid)
		if err != nil {
			return err
		}
		if e.Name != "ada" || e.Salary != 120 {
			t.Fatalf("got %+v", e)
		}
		e.Salary = 130
		return Set(tx, oid, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	models.Atomic(m, func(tx *asset.Tx) error {
		e, err := Get[employee](tx, oid)
		if err != nil {
			return err
		}
		if e.Salary != 130 {
			t.Fatalf("salary = %d", e.Salary)
		}
		return nil
	})
}

func TestModifyReadModifyWrite(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	var oid asset.OID
	models.Atomic(m, func(tx *asset.Tx) error {
		var err error
		oid, err = Put(tx, employee{Name: "bob", Salary: 100})
		return err
	})
	// Concurrent raise attempts must not lose updates (Modify locks
	// before reading).
	const workers, raises = 4, 10
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < raises; i++ {
				err := asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 20}, func(tx *asset.Tx) error {
					return Modify(tx, oid, func(e *employee) error {
						e.Salary++
						return nil
					})
				})
				if err != nil {
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
	models.Atomic(m, func(tx *asset.Tx) error {
		e, err := Get[employee](tx, oid)
		if err != nil {
			return err
		}
		if e.Salary != 100+workers*raises {
			t.Fatalf("salary = %d, want %d", e.Salary, 100+workers*raises)
		}
		return nil
	})
}

func TestModifyAbortPropagates(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	var oid asset.OID
	models.Atomic(m, func(tx *asset.Tx) error {
		var err error
		oid, err = Put(tx, employee{Name: "eve", Salary: 90})
		return err
	})
	err := models.Atomic(m, func(tx *asset.Tx) error {
		return Modify(tx, oid, func(e *employee) error {
			e.Salary = 9999
			return errors.New("policy violation")
		})
	})
	if !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	models.Atomic(m, func(tx *asset.Tx) error {
		e, _ := Get[employee](tx, oid)
		if e.Salary != 90 {
			t.Fatalf("salary = %d after aborted modify", e.Salary)
		}
		return nil
	})
}

func TestUnmarshalCorrupt(t *testing.T) {
	var e employee
	if err := Unmarshal([]byte("not-gob"), &e); err == nil {
		t.Fatal("corrupt decode succeeded")
	}
}
