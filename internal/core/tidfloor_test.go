package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/xid"
)

// A tid must never be issued twice, not even across a crash: a client that
// holds a tid across a server crash asks Status, Wait or Abort about it,
// and must not reach a new transaction that carries it. A transaction that
// has only been initiated, has only read, or whose records were not yet
// forced leaves no record of its tid, so Open forces a tid floor a block
// past every tid it recovered before it issues any (setTIDFloorLocked).

// commitCreate commits one transaction creating oid and returns its tid.
func commitCreate(t *testing.T, m *Manager, oid xid.OID) xid.TID {
	t.Helper()
	id, err := m.Initiate(func(tx *Tx) error { return tx.CreateAt(oid, []byte("v")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	m.Wait(id)
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestTIDNotReissuedAfterCrash: t1 commits, an interactive t2 reads and is
// still running when the machine crashes with only what was synced on
// disk. The first tid issued after recovery must be above t2's; without a
// durable floor it was t2 again. In the second arm a checkpoint truncates
// the log between t1 and t2, so the floor must survive in the snapshot.
func TestTIDNotReissuedAfterCrash(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		mfs := faultfs.NewMem()
		m, err := Open(Config{Dir: "/db", FS: mfs, SyncCommits: true})
		if err != nil {
			t.Fatal(err)
		}
		commitCreate(t, m, 101)
		if checkpoint {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		t2 := begunItx(t, m)
		if _, err := t2.Read(101); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Config{Dir: "/db", FS: mfs.CrashImage(faultfs.DropUnsynced)})
		if err != nil {
			t.Fatal(err)
		}
		next, err := r.InitiateInteractive()
		if err != nil {
			t.Fatal(err)
		}
		if next.ID() <= t2.ID() {
			t.Errorf("checkpoint %v: held across crash %v, first after reopen %v", checkpoint, t2.ID(), next.ID())
		}
		r.Close()
		m.Close()
	}
}

// TestTIDFloorRaisedOnceWhenReached: initiators that reach the durable floor
// together raise it once, and none of them is handed its tid before the new
// floor is written. The test holds the manager's mutex while eight
// initiators take the eight tids from the floor on, so all of them find the
// floor reached; once it lets go, exactly one more floor record reaches the
// log, forced, so a crash that keeps only what was synced — commits are not
// synced here — recovers above every tid handed out.
func TestTIDFloorRaisedOnceWhenReached(t *testing.T) {
	mfs := faultfs.NewMem()
	m, err := Open(Config{Dir: "/db", FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	old := xid.TID(m.tidFloor.Load())
	const workers = 8
	got := make(chan xid.TID, workers)
	m.mu.Lock()
	m.nextTID.Store(uint64(old) - 1)
	for range workers {
		go func() {
			tx, err := m.InitiateInteractive()
			if err != nil {
				t.Error(err)
				got <- xid.NilTID
				return
			}
			got <- tx.ID()
		}()
	}
	for m.nextTID.Load() < uint64(old)-1+workers {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	if n := len(got); n != 0 {
		t.Errorf("%d tids at or past the floor handed out before a new floor was written", n)
	}
	m.mu.Unlock()
	var handed xid.TID
	for range workers {
		handed = max(handed, <-got)
	}
	if f := xid.TID(m.tidFloor.Load()); f < old+tidBlock || f > handed+tidBlock {
		t.Errorf("floor %v after crossing %v, want a block past a tid in [%v, %v]", f, old, old, handed)
	}

	img := mfs.CrashImage(faultfs.DropUnsynced)
	var floors []xid.TID
	if err := wal.ScanChainFS(img, "/db", func(r *wal.Record) error {
		if r.Type == wal.TBegin {
			floors = append(floors, r.TID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(floors) != 2 || floors[0] != old {
		t.Errorf("synced floor records %v, want Open's %v and one raise", floors, old)
	}
	r, err := Open(Config{Dir: "/db", FS: img})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next, err := r.InitiateInteractive()
	if err != nil {
		t.Fatal(err)
	}
	if next.ID() <= handed {
		t.Errorf("first tid after reopen %v, but %v was handed out before the crash", next.ID(), handed)
	}
}

// TestTIDFloorCrashSweep crashes at every file operation of a workload with
// an initiated-only transaction, an interactive reader and a committing
// writer, the crashing write lost or torn, and reopens each crash image
// under both crash modes: the first tid issued there is above every tid
// the workload was handed. In the second arm the workload's tids cross the
// floor Open forced, so the crash can also hit the raised floor's record.
func TestTIDFloorCrashSweep(t *testing.T) {
	var handed xid.TID
	issued := func(id xid.TID) {
		handed = max(handed, id)
	}
	var cross bool
	workload := func(m *Manager) {
		if cross {
			m.nextTID.Store(m.tidFloor.Load() - 2) // the idle transaction reaches it
		}
		commitCreate := func(oid xid.OID) {
			id, err := m.Initiate(func(tx *Tx) error { return tx.CreateAt(oid, []byte("v")) })
			if err != nil {
				return
			}
			issued(id)
			if m.Begin(id) == nil {
				m.Wait(id)
				m.Commit(id)
			}
		}
		commitCreate(101)
		if idle, err := m.InitiateInteractive(); err == nil {
			issued(idle.ID())
		}
		if reader, err := m.InitiateInteractive(); err == nil {
			issued(reader.ID())
			if _, err := m.BeginInteractive(context.Background(), reader.ID()); err == nil {
				reader.Read(101) //nolint:errcheck // may fail after the crash
			}
		}
		commitCreate(102)
	}
	for _, cross = range []bool{false, true} {
		for _, sync := range []bool{false, true} {
			sim := CrashSim{Cfg: Config{Dir: "/db", SyncCommits: sync}, Workload: workload}
			n := sim.CountOps()
			for at := 1; at <= n; at++ {
				for _, tear := range []int{-1, 512} {
					handed = 0
					mfs := sim.RunToCrash(at, tear)
					for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
						ctx := testCtx(at, n, tear, mode)
						r, err := Open(Config{Dir: "/db", FS: mfs.CrashImage(mode)})
						if err != nil {
							t.Fatalf("cross=%v, sync=%v, %s: reopen: %v", cross, sync, ctx, err)
						}
						next, err := r.InitiateInteractive()
						if err != nil {
							t.Fatalf("cross=%v, sync=%v, %s: initiate: %v", cross, sync, ctx, err)
						}
						if next.ID() <= handed {
							t.Errorf("cross=%v, sync=%v, %s: first tid after reopen %v, but %v was handed out before the crash",
								cross, sync, ctx, next.ID(), handed)
						}
						r.Close()
					}
				}
			}
		}
	}
}
