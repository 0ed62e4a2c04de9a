package wal

import (
	"bytes"
	"testing"

	"repro/internal/xid"
)

func TestPrepareDecideRoundTrip(t *testing.T) {
	recs := []*Record{
		{Type: TPrepare, GID: 0xdeadbeef, TIDs: []xid.TID{3, 5, 8}},
		{Type: TPrepare, GID: 1, TIDs: []xid.TID{42}},
		{Type: TDecide, GID: 7, Commit: true},
		{Type: TDecide, GID: 7, Commit: false},
	}
	for i, r := range recs {
		got, err := unmarshal(r.marshal())
		if err != nil {
			t.Fatalf("rec %d (%v): unmarshal: %v", i, r.Type, err)
		}
		if got.Type != r.Type || got.GID != r.GID || got.Commit != r.Commit ||
			len(got.TIDs) != len(r.TIDs) {
			t.Fatalf("rec %d round trip mismatch: %+v vs %+v", i, got, r)
		}
		for j := range r.TIDs {
			if got.TIDs[j] != r.TIDs[j] {
				t.Fatalf("rec %d tid %d: %v vs %v", i, j, got.TIDs[j], r.TIDs[j])
			}
		}
	}
	// Truncated payloads must error, never partially decode.
	full := (&Record{Type: TPrepare, GID: 9, TIDs: []xid.TID{1, 2}}).marshal()
	for cut := 1; cut < len(full); cut++ {
		if _, err := unmarshal(full[:cut]); err == nil {
			t.Fatalf("truncated prepare at %d bytes decoded silently", cut)
		}
	}
}

// TestRecoverInDoubt: a prepared-but-undecided group is neither dropped nor
// committed — its updates are withheld as InDoubtOps for the opener.
func TestRecoverInDoubt(t *testing.T) {
	st := RecoverRecords([]*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 10, Kind: KindModify, Before: []byte("a"), After: []byte("b")},
		{LSN: 3, Type: TBegin, TID: 2},
		{LSN: 4, Type: TUpdate, TID: 2, OID: 11, Kind: KindCreate, After: []byte("c")},
		{LSN: 5, Type: TPrepare, GID: 77, TIDs: []xid.TID{1, 2}},
	})
	if len(st.Objects) != 0 {
		t.Fatalf("in-doubt updates leaked into Objects: %v", st.Objects)
	}
	if got := st.InDoubt[77]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("InDoubt[77] = %v, want [t1 t2]", got)
	}
	ops1 := st.InDoubtOps[1]
	if len(ops1) != 1 || ops1[0].OID != 10 || !bytes.Equal(ops1[0].After, []byte("b")) {
		t.Fatalf("InDoubtOps[1] = %+v", ops1)
	}
}

// TestRecoverPreparedThenDecided: a commit or abort record after the
// prepare resolves the doubt — commit installs, abort discards.
func TestRecoverPreparedThenDecided(t *testing.T) {
	base := []*Record{
		{LSN: 1, Type: TBegin, TID: 1},
		{LSN: 2, Type: TUpdate, TID: 1, OID: 10, Kind: KindModify, After: []byte("b")},
		{LSN: 3, Type: TPrepare, GID: 5, TIDs: []xid.TID{1}},
	}
	commit := append(append([]*Record(nil), base...),
		&Record{LSN: 4, Type: TCommit, TIDs: []xid.TID{1}})
	st := RecoverRecords(commit)
	if len(st.InDoubt) != 0 {
		t.Fatalf("decided group still in doubt: %v", st.InDoubt)
	}
	if !bytes.Equal(st.Objects[10], []byte("b")) {
		t.Fatalf("committed prepared update not installed: %v", st.Objects)
	}
	abort := append(append([]*Record(nil), base...),
		&Record{LSN: 4, Type: TAbort, TID: 1})
	st = RecoverRecords(abort)
	if len(st.InDoubt) != 0 || len(st.Objects) != 0 {
		t.Fatalf("aborted prepared txn left state: indoubt=%v objects=%v", st.InDoubt, st.Objects)
	}
}
