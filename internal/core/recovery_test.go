package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/xid"
)

func openDurable(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := Open(Config{Dir: dir, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDurableCommitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	var oid xid.OID
	runTxn(t, m, func(tx *Tx) error {
		var err error
		oid, err = tx.Create([]byte("durable"))
		return err
	})
	// No checkpoint, no clean close: simulate a crash by reopening.
	m.Close()
	m2 := openDurable(t, dir)
	defer m2.Close()
	got, ok := m2.Cache().Read(oid)
	if !ok || string(got) != "durable" {
		t.Fatalf("recovered = %q,%v", got, ok)
	}
}

func TestUncommittedLostOnRestart(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	base := seedObject(t, m, []byte("committed"))
	hold := make(chan struct{})
	started := make(chan struct{})
	id, _ := m.Initiate(func(tx *Tx) error {
		if err := tx.Write(base, []byte("dirty")); err != nil {
			return err
		}
		if _, err := tx.Create([]byte("orphan")); err != nil {
			return err
		}
		close(started)
		<-hold
		return nil
	})
	m.Begin(id)
	<-started
	m.Close() // crash with the transaction in flight
	close(hold)

	m2 := openDurable(t, dir)
	defer m2.Close()
	got, ok := m2.Cache().Read(base)
	if !ok || string(got) != "committed" {
		t.Fatalf("base = %q,%v; want committed", got, ok)
	}
	if m2.Cache().Len() != 1 {
		t.Fatalf("cache len = %d, want 1 (orphan must not recover)", m2.Cache().Len())
	}
}

func TestAbortedStaysAbortedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	oid := seedObject(t, m, []byte("v0"))
	id, _ := m.Initiate(func(tx *Tx) error { return tx.Write(oid, []byte("v1")) })
	m.Begin(id)
	m.Wait(id)
	m.Abort(id)
	m.Close()
	m2 := openDurable(t, dir)
	defer m2.Close()
	got, _ := m2.Cache().Read(oid)
	if string(got) != "v0" {
		t.Fatalf("recovered = %q, want v0", got)
	}
}

func TestDelegatedCommitSurvivesDelegatorAbortAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	oid := seedObject(t, m, []byte("base"))
	worker, _ := m.Initiate(func(tx *Tx) error { return tx.Write(oid, []byte("delegated")) })
	holder, _ := m.Initiate(noop)
	m.Begin(worker, holder)
	m.Wait(worker)
	m.Wait(holder)
	m.Delegate(worker, holder)
	m.Abort(worker)
	if err := m.Commit(holder); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m2 := openDurable(t, dir)
	defer m2.Close()
	got, _ := m2.Cache().Read(oid)
	if string(got) != "delegated" {
		t.Fatalf("recovered = %q, want delegated", got)
	}
}

func TestCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	var oids []xid.OID
	for i := 0; i < 20; i++ {
		oids = append(oids, seedObject(t, m, []byte(fmt.Sprintf("v%d", i))))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint work.
	runTxn(t, m, func(tx *Tx) error { return tx.Write(oids[3], []byte("updated")) })
	runTxn(t, m, func(tx *Tx) error { return tx.Delete(oids[7]) })
	m.Close()
	m2 := openDurable(t, dir)
	defer m2.Close()
	if got, _ := m2.Cache().Read(oids[3]); string(got) != "updated" {
		t.Fatalf("oids[3] = %q", got)
	}
	if _, ok := m2.Cache().Read(oids[7]); ok {
		t.Fatal("deleted object recovered")
	}
	if got, _ := m2.Cache().Read(oids[5]); string(got) != "v5" {
		t.Fatalf("checkpointed object = %q", got)
	}
	if m2.Cache().Len() != 19 {
		t.Fatalf("cache len = %d, want 19", m2.Cache().Len())
	}
}

// TestCountersSurviveCheckpointCycles: a checkpoint truncates the log to
// a snapshot that holds each counter's absolute value, numbered past
// every record before it, and the log reopened after it numbers on from
// there. A delta logged after a reopen is applied once over the
// snapshot's value — not lost, not doubled — through checkpoint →
// reopen → add → reopen cycles, and LSNs only ever rise. Each open
// appends one record, the tid floor.
func TestCountersSurviveCheckpointCycles(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	lastLSN := func() uint64 { return m.log.LastLSN() }
	oid := seedObject(t, m, wal.EncodeCounter(100))
	last := lastLSN()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := lastLSN(); got <= last {
		t.Fatalf("the snapshot ends at LSN %d, not past the history's %d", got, last)
	}
	last = lastLSN()
	m.Close()
	for i, want := range []uint64{105, 110, 115} {
		m = openDurable(t, dir)
		if got := lastLSN(); got != last+1 {
			t.Fatalf("reopen %d: the log resumes after LSN %d, want %d (the tid floor after %d)", i, got, last+1, last)
		}
		runTxn(t, m, func(tx *Tx) error { return tx.Add(oid, 5) })
		if got := lastLSN(); got <= last {
			t.Fatalf("reopen %d: the add logged at LSN %d, not past %d", i, got, last)
		}
		last = lastLSN()
		m.Close() // no checkpoint: the delta lives in the log only
		m = openDurable(t, dir)
		raw, _ := m.Cache().Read(oid)
		if got := wal.DecodeCounter(raw); got != want {
			t.Fatalf("reopen %d: counter = %d, want %d", i, got, want)
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := lastLSN(); got <= last {
			t.Fatalf("reopen %d: the snapshot ends at LSN %d, not past %d", i, got, last)
		}
		last = lastLSN()
		m.Close()
	}
}

// TestOpenCreatesDir: a durable database may be opened on a directory
// that does not exist yet; Open makes it.
func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "db")
	m := openDurable(t, dir)
	oid := seedObject(t, m, []byte("x"))
	m.Close()
	m = openDurable(t, dir)
	defer m.Close()
	if got, _ := m.Cache().Read(oid); string(got) != "x" {
		t.Fatalf("object = %q after reopen, want x", got)
	}
}

// TestOpenRefusesPageStore: a directory holding the page store a
// checkpoint wrote before checkpoints became snapshot segments is
// refused, not opened empty over the objects it holds.
func TestOpenRefusesPageStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "pages"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pages", "store.dat"), make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Config{Dir: dir})
	if !errors.Is(err, wal.ErrRetiredFormat) {
		if err == nil {
			m.Close()
		}
		t.Fatalf("Open over a page store: err = %v, want one wrapping wal.ErrRetiredFormat", err)
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	m := newMem(t)
	hold := make(chan struct{})
	id, _ := m.Initiate(func(tx *Tx) error { <-hold; return nil })
	m.Begin(id)
	if err := m.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with a live transaction")
	}
	close(hold)
	m.Commit(id)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestTIDsContinueAfterRestart(t *testing.T) {
	dir := t.TempDir()
	m := openDurable(t, dir)
	last := runTxn(t, m, func(tx *Tx) error {
		_, err := tx.Create([]byte("x"))
		return err
	})
	m.Close()
	m2 := openDurable(t, dir)
	defer m2.Close()
	next, err := m2.Initiate(noop)
	if err != nil {
		t.Fatal(err)
	}
	if next <= last {
		t.Fatalf("tid %v reused after restart (last was %v)", next, last)
	}
}

// TestQuickRecoveryMatchesLiveState runs random committed/aborted
// transactions against a durable manager, then verifies a reopened manager
// sees exactly the live cache state.
func TestQuickRecoveryMatchesLiveState(t *testing.T) {
	type step struct {
		Oid    uint8
		Val    uint8
		Op     uint8
		Commit bool
	}
	f := func(steps []step) bool {
		dir := t.TempDir()
		m, err := Open(Config{Dir: dir})
		if err != nil {
			return false
		}
		for _, s := range steps {
			oid := xid.OID(s.Oid%16 + 1)
			val := []byte{s.Val}
			id, err := m.Initiate(func(tx *Tx) error {
				switch s.Op % 3 {
				case 0:
					if _, ok := m.Cache().Read(oid); !ok {
						return tx.CreateAt(oid, val)
					}
					return tx.Write(oid, val)
				case 1:
					if _, ok := m.Cache().Read(oid); ok {
						return tx.Delete(oid)
					}
					return nil
				default:
					_, err := tx.Read(oid)
					if err != nil {
						return nil // missing object: fine
					}
					return nil
				}
			})
			if err != nil {
				return false
			}
			m.Begin(id)
			if s.Commit {
				m.Commit(id)
			} else {
				m.Wait(id)
				m.Abort(id)
			}
		}
		// Snapshot live state.
		want := map[xid.OID][]byte{}
		m.Cache().ForEach(func(oid xid.OID, data []byte) bool {
			want[oid] = append([]byte(nil), data...)
			return true
		})
		m.Close()
		m2, err := Open(Config{Dir: dir})
		if err != nil {
			return false
		}
		defer m2.Close()
		if m2.Cache().Len() != len(want) {
			return false
		}
		ok := true
		m2.Cache().ForEach(func(oid xid.OID, data []byte) bool {
			if !bytes.Equal(want[oid], data) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// segReads is a filesystem that counts the bytes read from the log's
// segment files, so a test can tell how often an opener read the chain.
type segReads struct {
	faultfs.FS
	n *int64
}

func (fs segReads) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if ok, _ := filepath.Match("wal-*.seg", filepath.Base(path)); err != nil || !ok {
		return f, err
	}
	return segFile{f, fs.n}, nil
}

type segFile struct {
	faultfs.File
	n *int64
}

func (f segFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	*f.n += int64(n)
	return n, err
}

func (f segFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	*f.n += int64(n)
	return n, err
}

// TestOpenReadsChainOnce: Open recovers the database and positions the
// log's writer in one scan, so it reads no more bytes from the segment
// files than the chain holds. The chain is a snapshot segment followed
// by several rotated tail segments.
func TestOpenReadsChainOnce(t *testing.T) {
	mfs := faultfs.NewMem()
	cfg := Config{Dir: "/db", FS: mfs, SyncCommits: true, WALSegmentBytes: 2 << 10}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		seedObject(t, m, []byte(fmt.Sprintf("object %d", i)))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		seedObject(t, m, []byte(fmt.Sprintf("tail %d", i)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var size, segs int64
	for seq := 1; seq < 100; seq++ {
		if img, ok := mfs.ReadImage(fmt.Sprintf("/db/wal-%06d.seg", seq)); ok {
			size += int64(len(img))
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("chain has %d segments; the test wants a snapshot and rotated tail segments", segs)
	}
	var read int64
	cfg.FS = segReads{mfs, &read}
	m, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if n := m.Cache().Len(); n != 100 {
		t.Fatalf("reopened with %d objects, want 100", n)
	}
	if read == 0 || read > size {
		t.Fatalf("Open read %d bytes from a %d-byte chain of %d segments, want each byte once", read, size, segs)
	}
}
