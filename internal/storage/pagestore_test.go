package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/xid"
)

func openTestStore(t *testing.T, dir string) *PageStore {
	t.Helper()
	s, err := OpenPageStore(dir, PageStoreOptions{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDeleteSmall(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	if err := s.Put(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(1)
	if err != nil || !ok || string(got) != "hello" {
		t.Fatalf("Get = %q,%v,%v", got, ok, err)
	}
	if _, ok, _ := s.Get(2); ok {
		t.Fatal("Get of absent oid returned ok")
	}
	if err := s.Put(1, []byte("hi")); err != nil { // shrink in place
		t.Fatal(err)
	}
	got, _, _ = s.Get(1)
	if string(got) != "hi" {
		t.Fatalf("after shrink Get = %q", got)
	}
	if err := s.Put(1, bytes.Repeat([]byte("x"), 100)); err != nil { // grow
		t.Fatal(err)
	}
	got, _, _ = s.Get(1)
	if len(got) != 100 {
		t.Fatalf("after grow len = %d", len(got))
	}
	existed, err := s.Delete(1)
	if err != nil || !existed {
		t.Fatalf("Delete = %v,%v", existed, err)
	}
	if existed, _ := s.Delete(1); existed {
		t.Fatal("second Delete reported existed")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 1; i <= 500; i++ {
		if err := s.Put(xid.OID(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if s2.Len() != 499 {
		t.Fatalf("reopened Len = %d, want 499", s2.Len())
	}
	for i := 1; i <= 500; i++ {
		got, ok, err := s2.Get(xid.OID(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if ok {
				t.Fatal("deleted object resurrected")
			}
			continue
		}
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("oid %d = %q,%v", i, got, ok)
		}
	}
}

func TestLargeObjectsBlobChains(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	big := make([]byte, 3*PageSize+123)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(big)
	if err := s.Put(9, big); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(9)
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("blob round trip failed: ok=%v err=%v len=%d", ok, err, len(got))
	}
	// Replace with a different big object; old chain pages must be reused.
	big2 := make([]byte, 2*PageSize)
	rnd.Read(big2)
	if err := s.Put(9, big2); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestStore(t, dir)
	defer s2.Close()
	got, ok, err = s2.Get(9)
	if err != nil || !ok || !bytes.Equal(got, big2) {
		t.Fatal("blob lost across reopen")
	}
	// Delete frees the chain; a new blob should not grow the file much.
	if _, err := s2.Delete(9); err != nil {
		t.Fatal(err)
	}
	before := fileSize(t, filepath.Join(dir, "store.dat"))
	if err := s2.Put(10, big2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	after := fileSize(t, filepath.Join(dir, "store.dat"))
	if after > before+PageSize {
		t.Fatalf("freed blob pages not reused: %d -> %d", before, after)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestCompactionReclaimsSpace(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	// Fill a page with records, delete every other one, then insert a
	// record that only fits after compaction.
	rec := bytes.Repeat([]byte("a"), 700)
	for i := 1; i <= 11; i++ { // 11*(700+16) ≈ 7876, nearly fills one page
		if err := s.Put(xid.OID(i), rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 11; i += 2 {
		if _, err := s.Delete(xid.OID(i)); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("b"), 3000)
	if err := s.Put(100, big); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(100)
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("record lost after compaction insert")
	}
	// Survivors intact after compaction moved them.
	for i := 2; i <= 10; i += 2 {
		got, ok, _ := s.Get(xid.OID(i))
		if !ok || !bytes.Equal(got, rec) {
			t.Fatalf("survivor %d damaged after compaction", i)
		}
	}
}

func TestManyObjectsSmallPool(t *testing.T) {
	// With an 8-frame pool, thousands of objects force constant eviction.
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	const n = 3000
	for i := 1; i <= n; i++ {
		if err := s.Put(xid.OID(i), []byte(fmt.Sprintf("%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		got, ok, err := s.Get(xid.OID(i))
		if err != nil || !ok || string(got) != fmt.Sprintf("%06d", i) {
			t.Fatalf("oid %d = %q,%v,%v", i, got, ok, err)
		}
	}
}

func TestDoubleWriteReplayFixesTornPage(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 1; i <= 50; i++ {
		s.Put(xid.OID(i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Capture a new batch in the journal, then simulate a crash after the
	// journal write but with a torn in-place write: corrupt a data page
	// directly while leaving the journal intact.
	for i := 1; i <= 50; i++ {
		s.Put(xid.OID(i), bytes.Repeat([]byte{byte(i + 100)}, 64))
	}
	s.mu.Lock()
	var dirty []*frame
	for _, fr := range s.pool.frames {
		if fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	for _, fr := range dirty {
		sealPage(fr.data)
	}
	if err := s.pool.dw.capture(dirty); err != nil {
		t.Fatal(err)
	}
	s.mu.Unlock()
	// Tear page 1 on disk (half-written garbage), bypassing the store.
	s.f.WriteAt(bytes.Repeat([]byte{0xAB}, PageSize/2), PageSize)
	s.f.Sync()
	s.f.Close() // abandon without flushing frames ("crash")
	s.dw.close()

	s2 := openTestStore(t, dir) // must replay the journal
	defer s2.Close()
	for i := 1; i <= 50; i++ {
		got, ok, err := s2.Get(xid.OID(i))
		if err != nil || !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 100)}, 64)) {
			t.Fatalf("oid %d not recovered from double-write journal: %v %v", i, ok, err)
		}
	}
}

// TestSyncThroughStampsHeader: the checkpoint stamp survives a reopen and
// never moves back, whether a later sync carries no stamp or a lower one.
func TestSyncThroughStampsHeader(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if got := s.CheckpointLSN(); got != 0 {
		t.Fatalf("fresh store stamped %d", got)
	}
	s.Put(1, []byte("x"))
	if err := s.SyncThrough(42); err != nil {
		t.Fatal(err)
	}
	s.Put(2, []byte("y"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncThrough(7); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestStore(t, dir)
	defer s2.Close()
	if got := s2.CheckpointLSN(); got != 42 {
		t.Fatalf("reopened stamp = %d, want 42", got)
	}
}

func TestTornPageWithoutJournalDetected(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.Put(1, []byte("x"))
	s.Close()
	// Corrupt the data page and empty the journal.
	f, _ := os.OpenFile(filepath.Join(dir, "store.dat"), os.O_WRONLY, 0)
	f.WriteAt([]byte{0xFF, 0xEE, 0xDD}, PageSize+100)
	f.Close()
	os.Truncate(filepath.Join(dir, "store.dw"), 0)
	if _, err := OpenPageStore(dir, PageStoreOptions{PoolPages: 8}); err == nil {
		t.Fatal("open of corrupted store succeeded; checksum must catch it")
	}
}

// TestQuickStoreMatchesMap drives random Put/Delete/Get against a reference
// map, including occasional large values.
func TestQuickStoreMatchesMap(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	ref := map[xid.OID][]byte{}
	f := func(oid8, op, size uint8, fill byte) bool {
		oid := xid.OID(oid8%32) + 1
		switch op % 3 {
		case 0, 1:
			n := int(size) * 40 // up to ~10KB, crossing the blob threshold
			val := bytes.Repeat([]byte{fill}, n)
			if err := s.Put(oid, val); err != nil {
				return false
			}
			ref[oid] = val
		case 2:
			delete(ref, oid)
			if _, err := s.Delete(oid); err != nil {
				return false
			}
		}
		got, ok, err := s.Get(oid)
		if err != nil {
			return false
		}
		want, wok := ref[oid]
		return ok == wok && (!ok || bytes.Equal(got, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", s.Len(), len(ref))
	}
}

func TestForEachVisitsAll(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	defer s.Close()
	want := map[xid.OID]string{}
	for i := 1; i <= 20; i++ {
		v := fmt.Sprintf("v%d", i)
		s.Put(xid.OID(i), []byte(v))
		want[xid.OID(i)] = v
	}
	got := map[xid.OID]string{}
	err := s.ForEach(func(oid xid.OID, data []byte) error {
		got[oid] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ForEach[%v] = %q, want %q", k, got[k], v)
		}
	}
}
