package core

import (
	"testing"
	"time"

	"repro/internal/faultfs"
)

// The crash-matrix workload: three sequential transactions with a
// checkpoint wedged between T2 and T3, chosen so every recovered state
// identifies exactly one committed prefix:
//
//	T1: create 101 = "v1"
//	T2: 101 = "v2", create 102 = "w1"
//	    checkpoint
//	T3: 102 = "w2", delete 101
//
// acks records which commits were acknowledged (returned nil) before
// the crash.
func matrixWorkload(acks *[3]bool) func(m *Manager) {
	bodies := []TxnFunc{
		func(tx *Tx) error { return tx.CreateAt(101, []byte("v1")) },
		func(tx *Tx) error {
			if err := tx.Write(101, []byte("v2")); err != nil {
				return err
			}
			return tx.CreateAt(102, []byte("w1"))
		},
		func(tx *Tx) error {
			if err := tx.Write(102, []byte("w2")); err != nil {
				return err
			}
			return tx.Delete(101)
		},
	}
	return func(m *Manager) {
		for i, fn := range bodies {
			if i == 2 {
				m.Checkpoint() // may fail after the crash point
			}
			id, err := m.Initiate(fn)
			if err != nil {
				continue
			}
			if err := m.Begin(id); err != nil {
				continue
			}
			m.Wait(id)
			if m.Commit(id) == nil {
				acks[i] = true
			}
		}
	}
}

// recoveredPrefix maps the recovered object state back to the number of
// workload transactions it reflects, or -1 if it matches no prefix —
// i.e. recovery produced a state no crash-consistent execution could
// (lost committed effects, leaked uncommitted ones, or a torn
// non-atomic transaction).
func recoveredPrefix(m *Manager) int {
	v101, ok101 := m.Cache().Read(101)
	v102, ok102 := m.Cache().Read(102)
	switch {
	case !ok101 && !ok102:
		return 0
	case ok101 && string(v101) == "v1" && !ok102:
		return 1
	case ok101 && string(v101) == "v2" && ok102 && string(v102) == "w1":
		return 2
	case !ok101 && ok102 && string(v102) == "w2":
		return 3
	}
	return -1
}

// checkRecovered reopens the database over img and asserts the two
// recovery invariants: the state is some committed prefix of the
// workload, and (when commits are synchronous) every acknowledged
// commit survived.
func checkRecovered(t *testing.T, img *faultfs.MemFS, acks [3]bool, syncCommits bool, ctx string) {
	t.Helper()
	m, err := Open(Config{Dir: "/db", FS: img})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", ctx, err)
	}
	defer m.Close()
	r := recoveredPrefix(m)
	if r < 0 {
		v101, ok101 := m.Cache().Read(101)
		v102, ok102 := m.Cache().Read(102)
		t.Fatalf("%s: recovered state matches no committed prefix: 101=%q(%v) 102=%q(%v)",
			ctx, v101, ok101, v102, ok102)
	}
	if !syncCommits {
		return // buffered commits promise nothing until a checkpoint
	}
	for i, acked := range acks {
		if acked && i >= r {
			t.Fatalf("%s: commit T%d was acknowledged but recovery kept only %d transactions",
				ctx, i+1, r)
		}
	}
}

// crashConfigs are the commit configurations both crash matrices sweep:
// {buffered, sync} × {default segments, 128-byte segments}. The tiny
// rotation threshold makes the workload cross several segment
// boundaries, so the op sweep also lands crashes inside rotation (seal
// fsync, header write/fsync, manifest tmp write/fsync, manifest rename)
// and inside checkpoint truncation (cutover rename, old-chain removes).
var crashConfigs = []crashConfig{
	{name: "buffered"},
	{name: "sync", sync: true},
	{name: "buffered-tiny-seg", segBytes: 128},
	{name: "sync-tiny-seg", sync: true, segBytes: 128},
}

type crashConfig struct {
	name     string
	sync     bool
	segBytes int64
	slowSync time.Duration // every fsync's delay: the force leader stays on the disk
}

// TestCrashRecoveryMatrix sweeps a simulated crash across every
// durability-relevant filesystem operation of the workload — every WAL
// and page write, truncate, and fsync, including those inside Open,
// Checkpoint, and Close — under every commit configuration, with the
// crashing write either wholly lost or torn at 512 bytes, and recovers
// under both crash-image corners. Besides crashConfigs it sweeps
// groupcommit: sync-tiny-seg on a disk whose fsyncs are slow, so every
// force is made by a leader that stays on the disk while followers could
// park behind it.
func TestCrashRecoveryMatrix(t *testing.T) {
	tears := []int{-1, 512}
	modes := []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced}
	configs := append(crashConfigs[:len(crashConfigs):len(crashConfigs)],
		crashConfig{name: "groupcommit", sync: true, segBytes: 128, slowSync: 100 * time.Microsecond})
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var acks [3]bool
			sim := CrashSim{
				Cfg:      Config{Dir: "/db", SyncCommits: tc.sync, WALSegmentBytes: tc.segBytes},
				Workload: matrixWorkload(&acks),
			}
			n := sim.CountOps()
			if n < 10 {
				t.Fatalf("workload issued only %d filesystem ops", n)
			}
			for at := 1; at <= n; at++ {
				for _, tear := range tears {
					acks = [3]bool{}
					mfs := runToCrash(sim, at, tear, tc.slowSync)
					if !mfs.Crashed() {
						t.Fatalf("crash point %d/%d never fired", at, n)
					}
					for _, mode := range modes {
						ctx := testCtx(at, n, tear, mode)
						checkRecovered(t, mfs.CrashImage(mode), acks, tc.sync, ctx)
					}
				}
			}
		})
	}
}

// runToCrash is sim.RunToCrash on a disk whose fsyncs each take
// slowSync.
func runToCrash(sim CrashSim, at, tear int, slowSync time.Duration) *faultfs.MemFS {
	mfs := faultfs.NewMem()
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpAny, Nth: at, Action: faultfs.ActCrash, Keep: tear,
	}))
	sim.runOn(slowSyncFS{mfs, slowSync})
	return mfs
}

func testCtx(at, n, tear int, mode faultfs.CrashMode) string {
	torn := "lost"
	if tear >= 0 {
		torn = "torn"
	}
	return "crash at op " + itoa(at) + "/" + itoa(n) + " (" + torn + " write, " + mode.String() + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestRandomFaultTorture drives the workload under seeded random
// single-fault scripts — injected errors, short writes, torn writes,
// and crashes at arbitrary points — and asserts the same invariants.
// Non-crash faults leave a live filesystem that is reopened in place
// (the fault a deployed system would ride through); crashes go through
// both crash-image corners.
func TestRandomFaultTorture(t *testing.T) {
	var acks [3]bool
	sim := CrashSim{
		Cfg:      Config{Dir: "/db", SyncCommits: true},
		Workload: matrixWorkload(&acks),
	}
	n := sim.CountOps()
	for seed := int64(0); seed < 40; seed++ {
		acks = [3]bool{}
		mfs := sim.RunWithScript(faultfs.RandomScript(seed, n))
		if mfs.Crashed() {
			for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
				ctx := "seed " + itoa(int(seed)) + " (" + mode.String() + ")"
				checkRecovered(t, mfs.CrashImage(mode), acks, true, ctx)
			}
			continue
		}
		checkRecovered(t, mfs, acks, true, "seed "+itoa(int(seed))+" (no crash)")
	}
}
