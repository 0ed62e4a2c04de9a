package odb

import (
	"context"
	"errors"
	"fmt"
	"testing"

	asset "repro"
	"repro/models"
)

func newDB(t *testing.T) *Database {
	t.Helper()
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	db, err := Init(m)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInitIdempotent(t *testing.T) {
	db := newDB(t)
	if _, err := Init(db.Manager()); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionInsertScanRemove(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	var removed asset.OID
	err := models.Atomic(m, func(tx *asset.Tx) error {
		c, err := db.Collection(tx, "parts")
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			oid, err := c.Insert(tx, []byte(fmt.Sprintf("part-%d", i)))
			if err != nil {
				return err
			}
			if i == 2 {
				removed = oid
			}
		}
		if n, err := c.Len(tx); err != nil || n != 5 {
			return fmt.Errorf("len = %d, %v", n, err)
		}
		return c.Remove(tx, removed)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = models.Atomic(m, func(tx *asset.Tx) error {
		c, err := db.Collection(tx, "parts")
		if err != nil {
			return err
		}
		oids, err := c.OIDs(tx)
		if err != nil {
			return err
		}
		if len(oids) != 4 {
			return fmt.Errorf("len = %d, want 4", len(oids))
		}
		for _, oid := range oids {
			if _, err := tx.Read(oid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectionAbortRollsBackInsert(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	models.Atomic(m, func(tx *asset.Tx) error {
		_, err := db.Collection(tx, "c")
		return err
	})
	err := models.Atomic(m, func(tx *asset.Tx) error {
		c, err := db.Collection(tx, "c")
		if err != nil {
			return err
		}
		if _, err := c.Insert(tx, []byte("doomed")); err != nil {
			return err
		}
		return errors.New("abort")
	})
	if !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	models.Atomic(m, func(tx *asset.Tx) error {
		c, _ := db.Collection(tx, "c")
		if n, _ := c.Len(tx); n != 0 {
			t.Errorf("len = %d after aborted insert", n)
		}
		return nil
	})
}

func TestIndexSetGetDelete(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	err := models.Atomic(m, func(tx *asset.Tx) error {
		ix, err := db.Index(tx, "by-name", 8)
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			oid, err := tx.Create([]byte{byte(i)})
			if err != nil {
				return err
			}
			if err := ix.Set(tx, fmt.Sprintf("key-%d", i), oid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = models.Atomic(m, func(tx *asset.Tx) error {
		ix, err := db.Index(tx, "by-name", 8)
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			oid, err := ix.Get(tx, fmt.Sprintf("key-%d", i))
			if err != nil {
				return err
			}
			data, err := tx.Read(oid)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("key-%d maps to %v", i, data)
			}
		}
		if err := ix.Delete(tx, "key-7"); err != nil {
			return err
		}
		if _, err := ix.Get(tx, "key-7"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("get deleted = %v", err)
		}
		if err := ix.Delete(tx, "never-there"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("delete absent = %v", err)
		}
		// Overwrite.
		if err := ix.Set(tx, "key-8", 42); err != nil {
			return err
		}
		oid, err := ix.Get(tx, "key-8")
		if err != nil || oid != 42 {
			return fmt.Errorf("overwrite: %v %v", oid, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexBucketsReduceConflicts(t *testing.T) {
	// Two transactions touching different buckets commit concurrently.
	db := newDB(t)
	m := db.Manager()
	models.Atomic(m, func(tx *asset.Tx) error {
		_, err := db.Index(tx, "ix", 64)
		return err
	})
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 10}, func(tx *asset.Tx) error {
				ix, err := db.Index(tx, "ix", 64)
				if err != nil {
					return err
				}
				return ix.Set(tx, fmt.Sprintf("worker-%d", w), asset.OID(w+1))
			})
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCounterEscrow(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	var ctr Counter
	models.Atomic(m, func(tx *asset.Tx) error {
		var err error
		ctr, err = NewCounter(tx, 1000)
		return err
	})
	const workers, iters = 8, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < iters; i++ {
				if err := models.Atomic(m, func(tx *asset.Tx) error { return ctr.Add(tx, 2) }); err != nil {
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
		v, err := ctr.Value(tx)
		if err != nil {
			return err
		}
		if v != 1000+2*workers*iters {
			t.Errorf("counter = %d, want %d", v, 1000+2*workers*iters)
		}
		return nil
	})
}

func TestCounterSub(t *testing.T) {
	db := newDB(t)
	m := db.Manager()
	var ctr Counter
	models.Atomic(m, func(tx *asset.Tx) error {
		var err error
		ctr, err = NewCounter(tx, 50)
		return err
	})
	models.Atomic(m, func(tx *asset.Tx) error { return ctr.Sub(tx, 20) })
	models.Atomic(m, func(tx *asset.Tx) error {
		v, _ := ctr.Value(tx)
		if v != 30 {
			t.Errorf("counter = %d, want 30", v)
		}
		return nil
	})
}

func TestDurableODBAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m, err := asset.Open(asset.Config{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Init(m)
	if err != nil {
		t.Fatal(err)
	}
	err = models.Atomic(m, func(tx *asset.Tx) error {
		c, err := db.Collection(tx, "inventory")
		if err != nil {
			return err
		}
		oid, err := c.Insert(tx, []byte("widget"))
		if err != nil {
			return err
		}
		ix, err := db.Index(tx, "sku", 8)
		if err != nil {
			return err
		}
		return ix.Set(tx, "W-1", oid)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := asset.Open(asset.Config{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	db2, err := Init(m2)
	if err != nil {
		t.Fatal(err)
	}
	err = models.Atomic(m2, func(tx *asset.Tx) error {
		ix, err := db2.Index(tx, "sku", 8)
		if err != nil {
			return err
		}
		oid, err := ix.Get(tx, "W-1")
		if err != nil {
			return err
		}
		data, err := tx.Read(oid)
		if err != nil {
			return err
		}
		if string(data) != "widget" {
			return fmt.Errorf("recovered record = %q", data)
		}
		c, err := db2.Collection(tx, "inventory")
		if err != nil {
			return err
		}
		if n, _ := c.Len(tx); n != 1 {
			return fmt.Errorf("collection len = %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
