package core

import (
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// The escrow crash-matrix workload: a bounded counter driven by logical
// delta records, with an aborted delta and a checkpoint wedged into the
// history, chosen so every recovered state identifies exactly one
// committed prefix:
//
//	T1: create 201 = counter(100), declare escrow [0, 10000]
//	T2: add(201, +5)                     -> 105
//	A:  add(201, +1000), then abort      -> unchanged (undo is the
//	    inverse delta, never a physical before-image)
//	    checkpoint
//	T3: add(201, -3), create 202 = "x"   -> 102 (mixes a logical delta
//	    and a physical create in one atomic transaction)
//
// The prefix values 100/105/102 are pairwise distinct, and 202's
// existence separates prefix 3, so a partial, doubled, or leaked delta
// (e.g. the aborted +1000) recovers to a value matching no prefix.
func escrowWorkload(acks *[3]bool) func(m *Manager) {
	return func(m *Manager) {
		acks[0] = runWorkloadTxn(m, createCounter201)
		acks[1] = runWorkloadTxn(m, func(tx *Tx) error { return tx.Add(201, 5) })
		runWorkloadTxn(m, func(tx *Tx) error { // A: always aborts
			if err := tx.Add(201, 1000); err != nil {
				return err
			}
			return errors.New("deliberate abort after reserving +1000")
		})
		m.Checkpoint() // may fail after the crash point
		acks[2] = runWorkloadTxn(m, func(tx *Tx) error {
			if err := tx.Add(201, -3); err != nil {
				return err
			}
			return tx.CreateAt(202, []byte("x"))
		})
	}
}

// The second escrow workload logs a delta whose base only a snapshot
// holds, and checkpoints again:
//
//	T1: create 201 = counter(100), declare escrow [0, 10000]
//	    checkpoint                       (the snapshot holds 100)
//	T2: add(201, +5)                     -> 105
//	    checkpoint                       (the snapshot holds 105)
//
// A crash before the second checkpoint's cutover leaves the old chain,
// +5 included, followed by a prefix of the new snapshot; its image of
// 105 must install, not add the delta again (110 matches no prefix).
func deltaOverCheckpointWorkload(acks *[3]bool) func(m *Manager) {
	return func(m *Manager) {
		acks[0] = runWorkloadTxn(m, createCounter201)
		m.Checkpoint()
		acks[1] = runWorkloadTxn(m, func(tx *Tx) error { return tx.Add(201, 5) })
		m.Checkpoint() // may fail after the crash point
	}
}

func createCounter201(tx *Tx) error {
	if err := tx.CreateAt(201, wal.EncodeCounter(100)); err != nil {
		return err
	}
	return tx.DeclareEscrow(201, 0, 10000)
}

// runWorkloadTxn initiates, begins, waits for and commits one workload
// transaction, reporting whether the commit was acknowledged.
func runWorkloadTxn(m *Manager, fn TxnFunc) bool {
	id, err := m.Initiate(fn)
	if err != nil {
		return false
	}
	if err := m.Begin(id); err != nil {
		return false
	}
	m.Wait(id)
	return m.Commit(id) == nil
}

// recoveredEscrowPrefix maps the recovered counter state back to the
// number of committed workload transactions it reflects, or -1 if it
// matches no prefix — a lost, partial, doubled, or leaked delta.
func recoveredEscrowPrefix(m *Manager) int {
	raw, ok := m.Cache().Read(201)
	_, ok202 := m.Cache().Read(202)
	if !ok {
		if ok202 {
			return -1
		}
		return 0
	}
	if len(raw) != 8 {
		return -1
	}
	switch v := wal.DecodeCounter(raw); {
	case v == 100 && !ok202:
		return 1
	case v == 105 && !ok202:
		return 2
	case v == 102 && ok202:
		return 3
	}
	return -1
}

func checkEscrowRecovered(t *testing.T, img *faultfs.MemFS, acks [3]bool, syncCommits bool, ctx string) {
	t.Helper()
	m, err := Open(Config{Dir: "/db", FS: img})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", ctx, err)
	}
	defer m.Close()
	r := recoveredEscrowPrefix(m)
	if r < 0 {
		raw, ok := m.Cache().Read(201)
		_, ok202 := m.Cache().Read(202)
		var v uint64
		if len(raw) == 8 {
			v = wal.DecodeCounter(raw)
		}
		t.Fatalf("%s: recovered counter matches no committed prefix: 201=%d(%v raw %q) 202 present=%v",
			ctx, v, ok, raw, ok202)
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

// TestEscrowCrashRecoveryMatrix sweeps a simulated crash across every
// durability-relevant filesystem operation of the escrow workload under
// the commit configurations of crashConfigs — including a segmented log
// rotating every 128 bytes, so crashes land inside segment rotation and
// checkpoint truncation as well as plain appends — with the crashing
// write either wholly lost or torn, recovering under both crash-image
// corners. The recovered counter must always equal the committed-prefix
// sum: never a partial transaction, never a doubled redo, never a leaked
// aborted delta. The -delta-over-checkpoint cells run the second workload.
func TestEscrowCrashRecoveryMatrix(t *testing.T) {
	tears := []int{-1, 512}
	modes := []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced}
	type cell struct {
		crashConfig
		workload func(*[3]bool) func(*Manager)
	}
	var cells []cell
	for _, tc := range crashConfigs {
		cells = append(cells, cell{tc, escrowWorkload})
	}
	for _, tc := range crashConfigs {
		tc.name += "-delta-over-checkpoint"
		cells = append(cells, cell{tc, deltaOverCheckpointWorkload})
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			var acks [3]bool
			sim := CrashSim{
				Cfg:      Config{Dir: "/db", SyncCommits: tc.sync, WALSegmentBytes: tc.segBytes},
				Workload: tc.workload(&acks),
			}
			n := sim.CountOps()
			if n < 10 {
				t.Fatalf("workload issued only %d filesystem ops", n)
			}
			for at := 1; at <= n; at++ {
				for _, tear := range tears {
					acks = [3]bool{}
					mfs := sim.RunToCrash(at, tear)
					if !mfs.Crashed() {
						t.Fatalf("crash point %d/%d never fired", at, n)
					}
					for _, mode := range modes {
						ctx := testCtx(at, n, tear, mode)
						checkEscrowRecovered(t, mfs.CrashImage(mode), acks, tc.sync, ctx)
					}
				}
			}
		})
	}
}

// TestEscrowRandomFaultTorture drives the escrow workload under seeded
// random single-fault scripts — injected errors, short writes, torn
// writes, and crashes at arbitrary points — and asserts the same
// committed-prefix invariants over the recovered counter.
func TestEscrowRandomFaultTorture(t *testing.T) {
	var acks [3]bool
	sim := CrashSim{
		Cfg:      Config{Dir: "/db", SyncCommits: true},
		Workload: escrowWorkload(&acks),
	}
	n := sim.CountOps()
	for seed := int64(0); seed < 40; seed++ {
		acks = [3]bool{}
		mfs := sim.RunWithScript(faultfs.RandomScript(seed, n))
		if mfs.Crashed() {
			for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
				ctx := "seed " + itoa(int(seed)) + " (" + mode.String() + ")"
				checkEscrowRecovered(t, mfs.CrashImage(mode), acks, true, ctx)
			}
			continue
		}
		checkEscrowRecovered(t, mfs, acks, true, "seed "+itoa(int(seed))+" (no crash)")
	}
}
