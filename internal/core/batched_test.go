package core

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// slowForceConfig is a durable manager with synchronous commits on an
// in-memory filesystem whose fsyncs take 2ms: committers sit off the
// manager mutex, parked on the cohort force, long enough for the races
// in these tests to land in that window.
func slowForceConfig() Config {
	return Config{Dir: "/db", FS: slowSyncFS{faultfs.NewMem(), 2 * time.Millisecond}, SyncCommits: true}
}

// slowSyncFS is a disk whose fsyncs are slow: every file Sync sleeps d
// before it runs.
type slowSyncFS struct {
	faultfs.FS
	d time.Duration
}

func (s slowSyncFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := s.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.d}, nil
}

type slowSyncFile struct {
	faultfs.File
	d time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.d)
	return f.File.Sync()
}

func newBatched(t *testing.T) *Manager {
	t.Helper()
	m, err := Open(slowForceConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestBatchedCohortSharesForces(t *testing.T) {
	m := newBatched(t)
	const txns = 24
	var wg sync.WaitGroup
	errs := make(chan error, txns)
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Initiate(func(tx *Tx) error {
				_, err := tx.Create([]byte("batched"))
				return err
			})
			if err != nil {
				errs <- err
				return
			}
			m.Begin(id)
			errs <- m.Commit(id)
		}()
	}
	wg.Wait()
	for i := 0; i < txns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m.Cache().Len() != txns {
		t.Fatalf("cache len = %d, want %d", m.Cache().Len(), txns)
	}
	st := m.Stats()
	physical := m.PhysicalForces()
	if st.LogForces != txns {
		t.Fatalf("flush requests = %d, want %d", st.LogForces, txns)
	}
	if physical == 0 || physical >= txns {
		t.Fatalf("physical forces = %d for %d commits; batching ineffective", physical, txns)
	}
	t.Logf("%d commits -> %d physical forces", txns, physical)
}

func TestBatchedAbortDuringCommitWindowWaits(t *testing.T) {
	m := newBatched(t)
	id, _ := m.Initiate(func(tx *Tx) error {
		_, err := tx.Create([]byte("x"))
		return err
	})
	m.Begin(id)
	res := make(chan error, 1)
	go func() { res <- m.Commit(id) }()
	// Hammer Abort concurrently; it must never yank a half-committed
	// transaction — the outcome is exactly one of committed-with-
	// ErrAlreadyCommitted or aborted-before-committing.
	abortErr := m.Abort(id)
	commitErr := <-res
	switch {
	case abortErr == nil:
		// Abort won the race pre-commit: commit must report the abort.
		if !errors.Is(commitErr, ErrAborted) {
			t.Fatalf("abort won but commit = %v", commitErr)
		}
		if m.Cache().Len() != 0 {
			t.Fatal("aborted create visible")
		}
	case errors.Is(abortErr, ErrAlreadyCommitted):
		if commitErr != nil {
			t.Fatalf("commit = %v after winning race", commitErr)
		}
		if m.Cache().Len() != 1 {
			t.Fatal("committed create missing")
		}
	default:
		t.Fatalf("abort = %v", abortErr)
	}
}

func TestBatchedExclusionStillExclusive(t *testing.T) {
	// Race many EXC pairs through batched commits: exactly one of each
	// pair may commit.
	m := newBatched(t)
	for round := 0; round < 20; round++ {
		a := initiated(t, m, noop)
		b := initiated(t, m, noop)
		if err := m.FormDependency(xid.DepEXC, a, b); err != nil {
			t.Fatal(err)
		}
		m.Begin(a, b)
		m.Wait(a)
		m.Wait(b)
		res := make(chan error, 2)
		go func() { res <- m.Commit(a) }()
		go func() { res <- m.Commit(b) }()
		e1, e2 := <-res, <-res
		okCount := 0
		if e1 == nil {
			okCount++
		}
		if e2 == nil {
			okCount++
		}
		if okCount != 1 {
			t.Fatalf("round %d: %d of the EXC pair committed (e1=%v e2=%v)", round, okCount, e1, e2)
		}
		committed := 0
		for _, id := range []xid.TID{a, b} {
			if m.StatusOf(id) == xid.StatusCommitted {
				committed++
			}
		}
		if committed != 1 {
			t.Fatalf("round %d: %d committed statuses", round, committed)
		}
	}
}

func TestBatchedDurableCommits(t *testing.T) {
	cfg := slowForceConfig()
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const txns = 8
	var wg sync.WaitGroup
	oids := make([]xid.OID, txns)
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, _ := m.Initiate(func(tx *Tx) error {
				var err error
				oids[i], err = tx.Create([]byte{byte(i)})
				return err
			})
			m.Begin(id)
			if err := m.Commit(id); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	m.Close()
	m2, err := Open(Config{Dir: cfg.Dir, FS: cfg.FS})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i, oid := range oids {
		got, ok := m2.Cache().Read(oid)
		if !ok || got[0] != byte(i) {
			t.Fatalf("object %d not durable after batched commit", i)
		}
	}
}

func TestBatchedGroupAndDependenciesStillWork(t *testing.T) {
	m := newBatched(t)
	// GC group under batched commits.
	a := initiated(t, m, noop)
	b := initiated(t, m, noop)
	m.FormDependency(xid.DepGC, a, b)
	m.Begin(a, b)
	if err := m.Commit(a); err != nil {
		t.Fatal(err)
	}
	if m.StatusOf(b) != xid.StatusCommitted {
		t.Fatal("GC partner not committed")
	}
	// CD ordering under batched commits.
	c := initiated(t, m, noop)
	d := initiated(t, m, noop)
	m.FormDependency(xid.DepCD, c, d)
	m.Begin(c, d)
	res := make(chan error, 1)
	go func() { res <- m.Commit(d) }()
	select {
	case err := <-res:
		t.Fatalf("dependent committed early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := m.Commit(c); err != nil {
		t.Fatal(err)
	}
	if err := <-res; err != nil {
		t.Fatal(err)
	}
}

func TestDelegateToCommittingRejected(t *testing.T) {
	m := newBatched(t)
	oid := seedObject(t, m, []byte("v"))
	worker := initiated(t, m, func(tx *Tx) error { return tx.Write(oid, []byte("w")) })
	slow := initiated(t, m, noop)
	m.Begin(worker, slow)
	m.Wait(worker)
	m.Wait(slow)
	// Start slow's commit and, during its window, try to delegate to it.
	done := make(chan error, 1)
	go func() { done <- m.Commit(slow) }()
	// Delegation races the commit: whichever side wins, the result must be
	// consistent — either the delegate landed before commit (and commits
	// with slow) or it was rejected.
	err := m.Delegate(worker, slow)
	if cerr := <-done; cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		if !errors.Is(err, ErrTerminated) {
			t.Fatalf("delegate = %v", err)
		}
		// Rejected: worker still owns its write; abort undoes it.
		m.Abort(worker)
		got, _ := m.Cache().Read(oid)
		if string(got) != "v" {
			t.Fatalf("object = %q", got)
		}
		return
	}
	// Accepted: the write committed with slow and survives worker's abort.
	m.Abort(worker)
	got, _ := m.Cache().Read(oid)
	if string(got) != "w" {
		t.Fatalf("object = %q, want delegated write committed", got)
	}
}
