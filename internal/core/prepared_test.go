package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/xid"
)

// completed initiates and begins fn and waits for the body to finish, so
// the transaction sits in the completed state, ready to prepare.
func completed(t *testing.T, m *Manager, fn TxnFunc) xid.TID {
	t.Helper()
	id := initiated(t, m, fn)
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPrepareDecideCommit(t *testing.T) {
	m := newMem(t)
	var oids [2]xid.OID
	var ids [2]xid.TID
	for i := range ids {
		i := i
		ids[i] = completed(t, m, func(tx *Tx) error {
			oid, err := tx.Create([]byte{byte(i)})
			oids[i] = oid
			return err
		})
	}
	if err := m.FormDependency(xid.DepGC, ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	// Preparing one member must pull in its whole GC closure.
	if err := m.PrepareCtx(context.Background(), 42, ids[0]); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for _, id := range ids {
		if got := m.StatusOf(id); got != xid.StatusPrepared {
			t.Fatalf("%v status = %v, want prepared", id, got)
		}
	}
	// Prepared transactions refuse unilateral termination.
	if err := m.Abort(ids[0]); !errors.Is(err, ErrPrepared) {
		t.Fatalf("Abort on prepared = %v, want ErrPrepared", err)
	}
	if err := m.Commit(ids[1]); !errors.Is(err, ErrPrepared) {
		t.Fatalf("Commit on prepared = %v, want ErrPrepared", err)
	}
	other := initiated(t, m, noop)
	if err := m.FormDependency(xid.DepGC, ids[0], other); !errors.Is(err, ErrPrepared) {
		t.Fatalf("GC onto prepared = %v, want ErrPrepared", err)
	}
	// A duplicated prepare of the same gid is an ack, not an error.
	if err := m.PrepareCtx(context.Background(), 42, ids[1]); err != nil {
		t.Fatalf("duplicate prepare: %v", err)
	}
	if got := m.InDoubt(); len(got) != 1 || got[0] != 42 {
		t.Fatalf("InDoubt = %v, want [42]", got)
	}
	if err := m.Decide(42, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	for _, id := range ids {
		if got := m.StatusOf(id); got != xid.StatusCommitted {
			t.Fatalf("%v status = %v, want committed", id, got)
		}
	}
	if m.Cache().Len() != 2 {
		t.Fatalf("cache len = %d, want 2", m.Cache().Len())
	}
	// The verdict is idempotent; the opposite verdict is rejected; a
	// retransmitted vote reports the outcome.
	if err := m.Decide(42, true); err != nil {
		t.Fatalf("duplicate decide: %v", err)
	}
	if err := m.Decide(42, false); err == nil {
		t.Fatal("contradictory decide succeeded")
	}
	if err := m.PrepareCtx(context.Background(), 42, ids[0]); !errors.Is(err, ErrAlreadyCommitted) {
		t.Fatalf("prepare after commit verdict = %v, want ErrAlreadyCommitted", err)
	}
	if err := m.Decide(7, true); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("decide unknown gid = %v, want ErrUnknownGroup", err)
	}
}

func TestPrepareDecideAbort(t *testing.T) {
	m := newMem(t)
	oid := seedObject(t, m, []byte("orig"))
	id := completed(t, m, func(tx *Tx) error {
		return tx.Write(oid, []byte("new"))
	})
	if err := m.PrepareCtx(context.Background(), 5, id); err != nil {
		t.Fatal(err)
	}
	if err := m.Decide(5, false); err != nil {
		t.Fatal(err)
	}
	if got := m.StatusOf(id); got != xid.StatusAborted {
		t.Fatalf("status = %v, want aborted", got)
	}
	var data []byte
	runTxn(t, m, func(tx *Tx) error {
		var err error
		data, err = tx.Read(oid)
		return err
	})
	if !bytes.Equal(data, []byte("orig")) {
		t.Fatalf("object = %q, want rolled back to orig", data)
	}
	if err := m.Decide(5, false); err != nil {
		t.Fatalf("duplicate abort verdict: %v", err)
	}
	if err := m.PrepareCtx(context.Background(), 5, id); !errors.Is(err, ErrAborted) {
		t.Fatalf("prepare after abort verdict = %v, want ErrAborted", err)
	}
}

// TestDecideDuplicateConcurrent races duplicate commit verdicts against
// the force window: commitLocked releases the manager mutex around the
// log force, and a concurrent duplicate Decide (a coordinator delivery
// retry racing a restarted participant's ResolveInDoubt) must park on
// the verdict gate instead of re-running the commit epilogue — which
// would append a second commit record, double-count stats, and drive
// the live counter negative.
func TestDecideDuplicateConcurrent(t *testing.T) {
	m, err := Open(slowForceConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := [2]xid.TID{
		completed(t, m, func(tx *Tx) error { _, err := tx.Create([]byte("a")); return err }),
		completed(t, m, func(tx *Tx) error { _, err := tx.Create([]byte("b")); return err }),
	}
	if err := m.FormDependency(xid.DepGC, ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.PrepareCtx(context.Background(), 77, ids[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Decide(77, true)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if got := m.StatusOf(id); got != xid.StatusCommitted {
			t.Fatalf("%v status = %v, want committed", id, got)
		}
	}
	if got := m.Stats().Commits; got != 2 {
		t.Fatalf("commits = %d, want 2 (duplicate verdicts re-ran the epilogue)", got)
	}
	// A corrupted live counter would wedge or trip the Close drain check.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareDuplicateConcurrent races identical votes, and a verdict,
// against a vote's force window: PrepareCtx releases the manager mutex
// around the TPrepare force with the members already prepared, and a
// duplicate vote arriving then must park on the preparing gate — whose
// channel it makes itself, the first vote having made none — and return
// the first vote's yes rather than examine a group that looks prepared
// under another gid. The verdict parks the same way and applies once.
func TestPrepareDuplicateConcurrent(t *testing.T) {
	mfs := faultfs.NewMem()
	// An fsync slow enough that every vote arrives while the first vote's
	// force, or the verdict's, is on the disk.
	m, err := Open(Config{Dir: "/db", FS: slowSyncFS{mfs, 20 * time.Millisecond}, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := [2]xid.TID{
		completed(t, m, func(tx *Tx) error { _, err := tx.Create([]byte("a")); return err }),
		completed(t, m, func(tx *Tx) error { _, err := tx.Create([]byte("b")); return err }),
	}
	if err := m.FormDependency(xid.DepGC, ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	const gid = 78
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	votes := make([]error, 8)
	for i := range votes {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			<-start
			votes[i] = m.PrepareCtx(context.Background(), gid, ids[i%2])
		}()
	}
	verdict := make(chan error, 1)
	go func() {
		<-start
		for {
			// Until the first vote has appended its record, the group is
			// unknown here.
			if err := m.Decide(gid, true); !errors.Is(err, ErrUnknownGroup) {
				verdict <- err
				return
			}
			runtime.Gosched()
		}
	}()
	ready.Wait()
	close(start)
	wg.Wait()
	if err := <-verdict; err != nil {
		t.Fatalf("decide: %v", err)
	}
	for i, err := range votes {
		if err != nil {
			t.Errorf("vote %d: %v", i, err)
		}
	}
	var prepares, commits int
	if err := wal.ScanChainFS(mfs, "/db", func(r *wal.Record) error {
		switch r.Type {
		case wal.TPrepare:
			prepares++
		case wal.TCommit:
			commits++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if prepares != 1 || commits != 1 {
		t.Errorf("log holds %d prepare and %d commit records, want 1 and 1", prepares, commits)
	}
	if got := m.Stats().Commits; got != 2 {
		t.Errorf("commits = %d, want 2", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVerdictRetention bounds the decided-groups memory: beyond the cap
// the oldest verdicts are forgotten, and a duplicate verdict for a
// forgotten group reports ErrUnknownGroup — which coordinators treat as
// already delivered.
func TestVerdictRetention(t *testing.T) {
	m := newMem(t)
	const first = uint64(101)
	last := first + retention
	for gid := first; gid <= last; gid++ {
		id := completed(t, m, noop)
		if err := m.PrepareCtx(context.Background(), gid, id); err != nil {
			t.Fatal(err)
		}
		if err := m.Decide(gid, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.verdicts); n != retention {
		t.Errorf("%d verdicts remembered after %d decisions, want the cap %d", n, last-first+1, retention)
	}
	if err := m.Decide(first, true); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("pruned verdict redelivery = %v, want ErrUnknownGroup", err)
	}
	if err := m.Decide(first+1, true); err != nil {
		t.Fatalf("oldest retained verdict redelivery: %v", err)
	}
	if err := m.Decide(last, true); err != nil {
		t.Fatalf("newest verdict redelivery: %v", err)
	}
}

func TestPrepareVotesNoOnAbortedMember(t *testing.T) {
	m := newMem(t)
	a := completed(t, m, noop)
	b := completed(t, m, noop)
	if err := m.FormDependency(xid.DepGC, a, b); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(a); err != nil {
		t.Fatal(err)
	}
	if err := m.PrepareCtx(context.Background(), 3, b); !errors.Is(err, ErrAborted) {
		t.Fatalf("prepare with aborted member = %v, want ErrAborted", err)
	}
	if got := m.StatusOf(b); got != xid.StatusAborted {
		t.Fatalf("b status = %v, want aborted (no vote cleans up)", got)
	}
	if got := m.InDoubt(); len(got) != 0 {
		t.Fatalf("InDoubt = %v, want empty", got)
	}
}

func TestPrepareWaitsForRunningMember(t *testing.T) {
	m := newMem(t)
	release := make(chan struct{})
	id := initiated(t, m, func(tx *Tx) error {
		<-release
		_, err := tx.Create([]byte("x"))
		return err
	})
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.PrepareCtx(context.Background(), 8, id) }()
	select {
	case err := <-done:
		t.Fatalf("prepare returned %v before the body completed", err)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := m.Decide(8, true); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareSurvivesCrash is the participant half of recovery: a prepared
// group survives restart in doubt — updates withheld, locks held — until
// the verdict arrives, in either direction, across multiple restarts.
func TestPrepareSurvivesCrash(t *testing.T) {
	mfs := faultfs.NewMem()
	cfg := Config{Dir: "db", SyncCommits: true, FS: mfs}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var obj xid.OID
	counter := seedCounter(t, m, 10)
	id := completed(t, m, func(tx *Tx) error {
		if err := tx.Add(counter, 5); err != nil {
			return err
		}
		var err error
		obj, err = tx.Create([]byte("payload"))
		return err
	})
	if err := m.PrepareCtx(context.Background(), 11, id); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: still in doubt, updates invisible, but durable.
	m, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.InDoubt(); len(got) != 1 || got[0] != 11 {
		t.Fatalf("InDoubt after restart = %v, want [11]", got)
	}
	// Observe through the cache: a locked read would (correctly) block on
	// the in-doubt member's increment lock.
	if v := counterValue(t, m, counter); v != 10 {
		t.Fatalf("counter while in doubt = %d, want 10", v)
	}
	if _, ok := m.Cache().Read(obj); ok {
		t.Fatal("in-doubt create leaked into the cache")
	}
	// An in-doubt member is pinned: its writes are re-locked, so a writer
	// conflicts, but commutative increments still flow past the counter.
	runTxn(t, m, func(tx *Tx) error { return tx.Add(counter, 1) })
	if err := m.Decide(11, true); err != nil {
		t.Fatalf("decide after restart: %v", err)
	}
	if v := counterValue(t, m, counter); v != 16 {
		t.Fatalf("counter after verdict = %d, want 16", v)
	}
	if data, ok := m.Cache().Read(obj); !ok || !bytes.Equal(data, []byte("payload")) {
		t.Fatalf("in-doubt create after verdict = %q/%v, want payload", data, ok)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 2: the verdict commit is durable.
	m, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.InDoubt(); len(got) != 0 {
		t.Fatalf("InDoubt after decided restart = %v, want empty", got)
	}
	if v := counterValue(t, m, counter); v != 16 {
		t.Fatalf("counter after second restart = %d, want 16", v)
	}
}

func TestPrepareCrashThenAbortVerdict(t *testing.T) {
	mfs := faultfs.NewMem()
	cfg := Config{Dir: "db", SyncCommits: true, FS: mfs}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oid := seedObject(t, m, []byte("keep"))
	id := completed(t, m, func(tx *Tx) error {
		return tx.Write(oid, []byte("doomed"))
	})
	if err := m.PrepareCtx(context.Background(), 4, id); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Decide(4, false); err != nil {
		t.Fatal(err)
	}
	var data []byte
	runTxn(t, m, func(tx *Tx) error {
		var err error
		data, err = tx.Read(oid)
		return err
	})
	if !bytes.Equal(data, []byte("keep")) {
		t.Fatalf("object = %q, want keep", data)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.InDoubt(); len(got) != 0 {
		t.Fatalf("InDoubt after abort verdict restart = %v, want empty", got)
	}
	runTxn(t, m, func(tx *Tx) error {
		var err error
		data, err = tx.Read(oid)
		return err
	})
	if !bytes.Equal(data, []byte("keep")) {
		t.Fatalf("object after restart = %q, want keep", data)
	}
}
