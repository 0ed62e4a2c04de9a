package wal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// randomWorkload drives a seeded random transaction mix — begins,
// creates, modifies, deletes, counter deltas, delegations, commits,
// aborts, undo installations, checkpoints — through a segmented log with
// a tiny rotation threshold, so the chain crosses many segment
// boundaries. Returns the MemFS holding the chain, the records appended
// since the last truncation, and the first LSN of that truncation's
// segment (1 for none): what an independent replay must agree with.
func randomWorkload(t testing.TB, seed int64, txns int, crash bool) (faultfs.FS, []*Record, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mfs := faultfs.NewMem()
	l, err := OpenSegmentedFS(mfs, "/db", SegmentedOptions{
		SegmentBytes: 512,
		// Crash runs use buffered mode so the tail is genuinely torn;
		// clean runs force every commit.
		Sync: !crash,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	base := uint64(1)
	app := func(r *Record) {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	var nextTID uint64 = 1
	live := []xid.TID{}
	for i := 0; i < txns; i++ {
		tid := xid.TID(nextTID)
		nextTID++
		app(&Record{Type: TBegin, TID: tid})
		nops := 1 + rng.Intn(4)
		for j := 0; j < nops; j++ {
			oid := xid.OID(1 + rng.Intn(40))
			switch rng.Intn(5) {
			case 0:
				app(&Record{Type: TUpdate, TID: tid, OID: oid, Kind: KindCreate,
					After: []byte(fmt.Sprintf("c%d-%d", tid, j))})
			case 1:
				app(&Record{Type: TUpdate, TID: tid, OID: oid, Kind: KindModify,
					Before: []byte("old"), After: []byte(fmt.Sprintf("m%d-%d", tid, j))})
			case 2:
				app(&Record{Type: TUpdate, TID: tid, OID: oid, Kind: KindDelete,
					Before: []byte("old")})
			case 3:
				app(&Record{Type: TUpdate, TID: tid, OID: oid, Kind: KindDelta,
					After: EncodeCounter(uint64(rng.Intn(100)))})
			case 4:
				app(&Record{Type: TUndo, TID: tid, OID: oid, Kind: KindModify,
					After: []byte(fmt.Sprintf("u%d-%d", tid, j))})
			}
		}
		// Occasionally delegate the pending ops to another live txn.
		if len(live) > 0 && rng.Intn(4) == 0 {
			to := live[rng.Intn(len(live))]
			app(&Record{Type: TDelegate, TID: tid, TID2: to})
		}
		switch rng.Intn(10) {
		case 0, 1:
			app(&Record{Type: TAbort, TID: tid})
		case 2:
			live = append(live, tid) // left dangling: a loser at the crash
		default:
			// Commit, sometimes as a group with a live partner.
			tids := []xid.TID{tid}
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				tids = append(tids, live[k])
				live = append(live[:k], live[k+1:]...)
			}
			app(&Record{Type: TCommit, TIDs: tids})
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(25) == 0 {
			// A retired checkpoint record, which both replayers ignore,
			// and sometimes a bare truncation (the snapshot a checkpoint
			// keeps is exercised by TestSnapshotPrefixRecoversSameState).
			app(&Record{Type: TCheckpoint})
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := l.Truncate(nil); err != nil {
					t.Fatal(err)
				}
				recs, base = nil, l.LastLSN()+1
			}
		}
	}
	if crash {
		// Leave the log unclosed and take the post-crash disk image:
		// the chain ends in a genuinely torn tail.
		return mfs.CrashImage(faultfs.DropUnsynced), recs, base
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return mfs, recs, base
}

// TestDifferentialRecovery: recovering a chain must produce exactly the
// state RecoverRecords builds from the records the workload appended
// since its last truncation, for seeded random workloads, clean and
// crashed chains. A crash keeps a prefix of the appends, so a crashed
// chain is compared with the records below the NextLSN it recovered. The
// opener, replaying in the scan that positions its writer, must agree.
func TestDifferentialRecovery(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, crash := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/crash=%v", seed, crash)
			t.Run(name, func(t *testing.T) {
				fsys, recs, base := randomWorkload(t, seed, 120, crash)
				st, err := RecoverDirFS(fsys, "/db", RecoverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for crash && len(recs) > 0 && recs[len(recs)-1].LSN >= st.NextLSN {
					recs = recs[:len(recs)-1]
				}
				ref := RecoverRecords(recs)
				ref.NextLSN = max(ref.NextLSN, base)
				diffStates(t, ref, st)
				opened, err := openReplay(fsys)
				if err != nil {
					t.Fatal(err)
				}
				diffStates(t, ref, opened)
			})
		}
	}
}

// openReplay opens the chain in /db with a Replayer on the opener's scan,
// closes it again, and returns the replayed state, its NextLSN pinned to
// where appends resume as RecoverDirFS pins it.
func openReplay(fsys faultfs.FS) (*State, error) {
	rp := NewReplayer()
	l, err := OpenScanFS(fsys, "/db", SegmentedOptions{}, rp.Apply)
	if err != nil {
		return nil, err
	}
	st := rp.Finish()
	st.NextLSN = max(st.NextLSN, l.LastLSN()+1)
	return st, l.Close()
}

// diffStates asserts two recovered states are identical, field by field,
// with readable output on mismatch.
func diffStates(t *testing.T, ref, got *State) {
	t.Helper()
	if got.NextLSN != ref.NextLSN {
		t.Errorf("NextLSN = %d, ref %d", got.NextLSN, ref.NextLSN)
	}
	if got.MaxTID != ref.MaxTID {
		t.Errorf("MaxTID = %d, ref %d", got.MaxTID, ref.MaxTID)
	}
	if !reflect.DeepEqual(got.Objects, ref.Objects) {
		t.Errorf("Objects diverge: %d vs %d entries", len(got.Objects), len(ref.Objects))
		for oid, img := range ref.Objects {
			if g, ok := got.Objects[oid]; !ok || string(g) != string(img) {
				t.Errorf("  oid %d: got %q, ref %q", oid, got.Objects[oid], img)
			}
		}
		for oid := range got.Objects {
			if _, ok := ref.Objects[oid]; !ok {
				t.Errorf("  oid %d: extra in the result", oid)
			}
		}
	}
	if !reflect.DeepEqual(got.InDoubt, ref.InDoubt) || !reflect.DeepEqual(got.InDoubtOps, ref.InDoubtOps) {
		t.Errorf("in-doubt state diverges: %v %v, ref %v %v", got.InDoubt, got.InDoubtOps, ref.InDoubt, ref.InDoubtOps)
	}
}
