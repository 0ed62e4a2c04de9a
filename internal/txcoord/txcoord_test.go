package txcoord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/xid"
)

func openCoord(t *testing.T, mfs *faultfs.MemFS) *Coordinator {
	t.Helper()
	c, err := Open(mfs, "coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func memManager(t *testing.T) *core.Manager {
	t.Helper()
	m, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// done initiates+begins fn and waits for its body to finish, leaving the
// transaction completed and ready to prepare.
func done(t *testing.T, m *core.Manager, fn core.TxnFunc) xid.TID {
	t.Helper()
	id, err := m.Initiate(fn)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(id); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestVerdictDurableAcrossReopen(t *testing.T) {
	mfs := faultfs.NewMem()
	c := openCoord(t, mfs)
	// An empty member list is a vacuous all-yes: the round records a
	// durable commit verdict.
	if ok, err := c.CommitGroup(context.Background(), 7, nil); err != nil || !ok {
		t.Fatalf("CommitGroup = %v, %v", ok, err)
	}
	// Resolve on an undecided group forces a durable abort.
	if commit, err := c.Resolve(9); err != nil || commit {
		t.Fatalf("Resolve(9) = %v, %v, want forced abort", commit, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openCoord(t, mfs)
	if commit, decided := c2.Verdict(7); !decided || !commit {
		t.Fatalf("group 7 after reopen: commit=%v decided=%v", commit, decided)
	}
	if commit, decided := c2.Verdict(9); !decided || commit {
		t.Fatalf("group 9 after reopen: commit=%v decided=%v", commit, decided)
	}
	// The forced abort is final: a later commit round loses to it.
	if ok, err := c2.CommitGroup(context.Background(), 9, nil); ok || err == nil {
		t.Fatalf("CommitGroup after forced abort = %v, %v", ok, err)
	}
	// And Resolve keeps agreeing with itself.
	if commit, err := c2.Resolve(7); err != nil || !commit {
		t.Fatalf("Resolve(7) = %v, %v, want commit", commit, err)
	}
}

// fakeMember records the protocol a member observes.
type fakeMember struct {
	prepared  atomic.Int64
	decides   atomic.Int64
	gotCommit atomic.Bool
	voteErr   error
	failFirst int32 // Decide failures to inject before succeeding
	fails     atomic.Int32
}

func (f *fakeMember) member(name string) Member {
	return Member{
		Name: name,
		TIDs: []xid.TID{1},
		Prepare: func(ctx context.Context, gid uint64, tids []xid.TID) error {
			f.prepared.Add(1)
			return f.voteErr
		},
		Decide: func(ctx context.Context, gid uint64, commit bool) error {
			if f.fails.Add(1) <= f.failFirst {
				return fmt.Errorf("transient delivery failure")
			}
			f.decides.Add(1)
			f.gotCommit.Store(commit)
			return nil
		},
	}
}

func TestCommitGroupVoting(t *testing.T) {
	mfs := faultfs.NewMem()
	c := openCoord(t, mfs)
	yes1, yes2 := &fakeMember{}, &fakeMember{}
	ok, err := c.CommitGroup(context.Background(), 11, []Member{yes1.member("a"), yes2.member("b")})
	if err != nil || !ok {
		t.Fatalf("all-yes round = %v, %v", ok, err)
	}
	if !yes1.gotCommit.Load() || !yes2.gotCommit.Load() {
		t.Fatal("commit verdict not delivered to every member")
	}

	no := &fakeMember{voteErr: errors.New("load shed")}
	yes3 := &fakeMember{}
	ok, err = c.CommitGroup(context.Background(), 12, []Member{yes3.member("a"), no.member("b")})
	if ok || err == nil {
		t.Fatalf("one-no round = %v, %v, want abort", ok, err)
	}
	if yes3.gotCommit.Load() {
		t.Fatal("yes voter was told commit despite a no vote")
	}
	if yes3.decides.Load() != 1 {
		t.Fatal("abort verdict not delivered to the yes voter")
	}
	if commit, decided := c.Verdict(12); !decided || commit {
		t.Fatalf("group 12 verdict: commit=%v decided=%v, want durable abort", commit, decided)
	}
}

func TestDeliveryRetries(t *testing.T) {
	mfs := faultfs.NewMem()
	c := openCoord(t, mfs)
	flaky := &fakeMember{failFirst: 2}
	if ok, err := c.CommitGroup(context.Background(), 13, []Member{flaky.member("flaky")}); err != nil || !ok {
		t.Fatalf("round = %v, %v", ok, err)
	}
	if flaky.decides.Load() != 1 {
		t.Fatalf("delivery count = %d, want 1 after retries", flaky.decides.Load())
	}
}

// TestNoVoterDeliveryShortCircuit: a participant that voted no has
// neither prepared state nor a recorded verdict, so abort-verdict
// delivery to it reports ErrUnknownGroup — which is an ack (nothing left
// to decide there), not a failure to retry through the backoff schedule.
func TestNoVoterDeliveryShortCircuit(t *testing.T) {
	c := openCoord(t, faultfs.NewMem())
	m := memManager(t)
	id := done(t, m, func(tx *core.Tx) error {
		_, err := tx.Create([]byte("doomed"))
		return err
	})
	if err := m.Abort(id); err != nil {
		t.Fatal(err)
	}
	var decides atomic.Int64
	mb := Local("m", m, id)
	inner := mb.Decide
	mb.Decide = func(ctx context.Context, gid uint64, commit bool) error {
		decides.Add(1)
		return inner(ctx, gid, commit)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok, err := c.CommitGroup(ctx, 19, []Member{mb})
	if ok || err == nil {
		t.Fatalf("round with aborted member = %v, %v, want abort", ok, err)
	}
	if got := decides.Load(); got != 1 {
		t.Fatalf("deliveries to no-voter = %d, want 1 (ErrUnknownGroup is an ack)", got)
	}
}

// TestRetireAckedCompactsLog: with RetireAcked on, a decision every
// member acknowledged is forgotten, and compaction durably drops it from
// the decision log; an unacknowledged decision survives both.
func TestRetireAckedCompactsLog(t *testing.T) {
	mfs := faultfs.NewMem()
	c := openCoord(t, mfs)
	c.RetireAcked = true

	acker := &fakeMember{}
	if ok, err := c.CommitGroup(context.Background(), 31, []Member{acker.member("acker")}); err != nil || !ok {
		t.Fatalf("acked round = %v, %v", ok, err)
	}
	if _, decided := c.Verdict(31); decided {
		t.Fatal("fully-acknowledged decision was not retired")
	}

	deaf := &fakeMember{failFirst: 1 << 30} // never acks
	if ok, err := c.CommitGroup(context.Background(), 32, []Member{deaf.member("deaf")}); err != nil || !ok {
		t.Fatalf("unacked round = %v, %v", ok, err)
	}
	if commit, decided := c.Verdict(32); !decided || !commit {
		t.Fatalf("unacknowledged decision retired early: commit=%v decided=%v", commit, decided)
	}

	// The compacted log is the durable truth: the retired decision is
	// gone after a restart, the unacknowledged one intact.
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openCoord(t, mfs)
	if _, decided := c2.Verdict(31); decided {
		t.Fatal("retired decision resurrected from the compacted log")
	}
	if commit, decided := c2.Verdict(32); !decided || !commit {
		t.Fatalf("live decision lost by compaction: commit=%v decided=%v", commit, decided)
	}
}

// TestRetireAckedAutoCompacts: compactEvery retirements compact the
// decision log on their own, with no call to Compact. After a restart
// every retired decision is gone and the unacknowledged one is intact.
func TestRetireAckedAutoCompacts(t *testing.T) {
	mfs := faultfs.NewMem()
	c := openCoord(t, mfs)
	c.RetireAcked = true
	ctx := context.Background()
	deaf := &fakeMember{failFirst: 1 << 30} // never acks
	if ok, err := c.CommitGroup(ctx, 1, []Member{deaf.member("deaf")}); err != nil || !ok {
		t.Fatalf("unacked round = %v, %v", ok, err)
	}
	acker := &fakeMember{}
	for gid := uint64(2); gid < 2+compactEvery; gid++ {
		if ok, err := c.CommitGroup(ctx, gid, []Member{acker.member("acker")}); err != nil || !ok {
			t.Fatalf("acked round %d = %v, %v", gid, ok, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := openCoord(t, mfs)
	for gid := uint64(2); gid < 2+compactEvery; gid++ {
		if _, decided := c2.Verdict(gid); decided {
			t.Fatalf("retired decision %d survived: no automatic compaction after %d retirements", gid, compactEvery)
		}
	}
	if commit, decided := c2.Verdict(1); !decided || !commit {
		t.Fatalf("live decision lost by compaction: commit=%v decided=%v", commit, decided)
	}
}

func TestCommitGroupLocalManagers(t *testing.T) {
	c := openCoord(t, faultfs.NewMem())
	m1, m2 := memManager(t), memManager(t)
	var o1, o2 xid.OID
	id1 := done(t, m1, func(tx *core.Tx) error {
		var err error
		o1, err = tx.Create([]byte("left"))
		return err
	})
	id2 := done(t, m2, func(tx *core.Tx) error {
		var err error
		o2, err = tx.Create([]byte("right"))
		return err
	})
	gid := c.NewGID()
	ok, err := c.CommitGroup(context.Background(), gid,
		[]Member{Local("m1", m1, id1), Local("m2", m2, id2)})
	if err != nil || !ok {
		t.Fatalf("round = %v, %v", ok, err)
	}
	if got := m1.StatusOf(id1); got != xid.StatusCommitted {
		t.Fatalf("m1 txn = %v, want committed", got)
	}
	if got := m2.StatusOf(id2); got != xid.StatusCommitted {
		t.Fatalf("m2 txn = %v, want committed", got)
	}
	if _, present := m1.Cache().Read(o1); !present {
		t.Fatal("m1 payload missing")
	}
	if _, present := m2.Cache().Read(o2); !present {
		t.Fatal("m2 payload missing")
	}

	// A member that already aborted drags the whole cross-node group down.
	id3 := done(t, m1, func(tx *core.Tx) error {
		_, err := tx.Create([]byte("doomed"))
		return err
	})
	id4 := done(t, m2, func(tx *core.Tx) error {
		var err error
		o2, err = tx.Create([]byte("survivor?"))
		return err
	})
	if err := m1.Abort(id3); err != nil {
		t.Fatal(err)
	}
	gid2 := c.NewGID()
	ok, err = c.CommitGroup(context.Background(), gid2,
		[]Member{Local("m1", m1, id3), Local("m2", m2, id4)})
	if ok || err == nil {
		t.Fatalf("round with aborted member = %v, %v", ok, err)
	}
	if got := m2.StatusOf(id4); got != xid.StatusAborted {
		t.Fatalf("m2 txn after cross-node abort = %v, want aborted", got)
	}
	if _, present := m2.Cache().Read(o2); present {
		t.Fatal("aborted payload visible on m2")
	}
	if got := m1.InDoubt(); len(got) != 0 {
		t.Fatalf("m1 in doubt = %v, want none", got)
	}
	if got := m2.InDoubt(); len(got) != 0 {
		t.Fatalf("m2 in doubt = %v, want none", got)
	}
}

func TestResolveInDoubt(t *testing.T) {
	c := openCoord(t, faultfs.NewMem())
	m := memManager(t)

	// Group A: prepared, then the coordinator decides commit but the
	// delivery is "lost" (we never call Decide on the manager).
	idA := done(t, m, func(tx *core.Tx) error {
		_, err := tx.Create([]byte("A"))
		return err
	})
	if err := m.PrepareCtx(context.Background(), 21, idA); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.CommitGroup(context.Background(), 21, nil); err != nil || !ok {
		t.Fatalf("decide 21 = %v, %v", ok, err)
	}
	// Group B: prepared but the coordinator never decided — presumed abort.
	idB := done(t, m, func(tx *core.Tx) error {
		_, err := tx.Create([]byte("B"))
		return err
	})
	if err := m.PrepareCtx(context.Background(), 22, idB); err != nil {
		t.Fatal(err)
	}

	if err := ResolveInDoubt(m, c.Resolve); err != nil {
		t.Fatal(err)
	}
	if got := m.StatusOf(idA); got != xid.StatusCommitted {
		t.Fatalf("group 21 member = %v, want committed", got)
	}
	if got := m.StatusOf(idB); got != xid.StatusAborted {
		t.Fatalf("group 22 member = %v, want aborted", got)
	}
	if got := m.InDoubt(); len(got) != 0 {
		t.Fatalf("in doubt after resolution = %v", got)
	}
	// Multi-shot: nothing left, still fine.
	if err := ResolveInDoubt(m, c.Resolve); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesRetiredCoordLog: a coordinator directory holding the
// retired single-file coord.log is refused, with the file named; opening
// around it would forget every decision it holds.
func TestOpenRefusesRetiredCoordLog(t *testing.T) {
	mfs := faultfs.NewMem()
	f, err := mfs.OpenFile("coord/coord.log", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(mfs, "coord")
	if !errors.Is(err, wal.ErrRetiredFormat) || !strings.Contains(err.Error(), "coord.log") {
		t.Fatalf("Open = %v, want ErrRetiredFormat naming coord.log", err)
	}
}

// compactWorld opens a coordinator on a fresh filesystem holding live
// decisions (unacknowledged rounds and forced aborts) and retired ones
// (fully acknowledged rounds, commit and abort), too few to trigger an
// automatic compaction, so the caller's Compact is the only one.
func compactWorld(t *testing.T) (mfs *faultfs.MemFS, c *Coordinator, live, retired map[uint64]bool) {
	t.Helper()
	mfs = faultfs.NewMem()
	c, err := Open(mfs, "coord")
	if err != nil {
		t.Fatal(err)
	}
	c.RetireAcked = true
	live, retired = make(map[uint64]bool), make(map[uint64]bool)
	ctx := context.Background()
	for gid := uint64(1); gid <= 12; gid++ {
		switch gid % 4 {
		case 0: // acknowledged commit: retired
			c.CommitGroup(ctx, gid, []Member{(&fakeMember{}).member("a")}) //nolint:errcheck
			retired[gid] = true
		case 1: // acknowledged abort: retired
			no := &fakeMember{voteErr: errors.New("no")}
			c.CommitGroup(ctx, gid, []Member{no.member("a")}) //nolint:errcheck
			retired[gid] = false
		case 2: // unacknowledged commit: live
			deaf := &fakeMember{failFirst: 1 << 30}
			c.CommitGroup(ctx, gid, []Member{deaf.member("a")}) //nolint:errcheck
			live[gid] = true
		case 3: // forced abort: live
			if _, err := c.Resolve(gid); err != nil {
				t.Fatal(err)
			}
			live[gid] = false
		}
	}
	for gid, want := range live {
		if commit, decided := c.Verdict(gid); !decided || commit != want {
			t.Fatalf("setup: live group %d = %v/%v", gid, commit, decided)
		}
	}
	for gid := range retired {
		if _, decided := c.Verdict(gid); decided {
			t.Fatalf("setup: group %d not retired", gid)
		}
	}
	return mfs, c, live, retired
}

// checkVerdicts opens a coordinator on fsys and asserts every live
// decision kept its verdict and every retired one is absent or carries
// its original verdict.
func checkVerdicts(t *testing.T, what string, fsys faultfs.FS, live, retired map[uint64]bool) {
	t.Helper()
	c, err := Open(fsys, "coord")
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	defer c.Close()
	for gid, want := range live {
		if commit, decided := c.Verdict(gid); !decided || commit != want {
			t.Fatalf("%s: live group %d = commit %v decided %v, want commit %v", what, gid, commit, decided, want)
		}
	}
	for gid, want := range retired {
		if commit, decided := c.Verdict(gid); decided && commit != want {
			t.Fatalf("%s: retired group %d came back as commit %v, want %v", what, gid, commit, want)
		}
	}
}

// TestCompactCrashSweep crashes at every filesystem operation Compact
// performs. Whichever crash image a reboot finds, the reopened coordinator
// holds every live verdict, and a retired decision is gone or unchanged.
func TestCompactCrashSweep(t *testing.T) {
	swept := 0
	for k := 1; ; k++ {
		mfs, c, live, retired := compactWorld(t)
		mfs.SetScript(faultfs.NewScript(faultfs.Rule{Op: faultfs.OpAny, Nth: k, Action: faultfs.ActCrash}))
		err := c.Compact()
		crashed := mfs.Crashed()
		mfs.SetScript(nil)
		c.Close()
		if !crashed {
			if err != nil {
				t.Fatalf("uncrashed Compact: %v", err)
			}
			// k is past the last operation: the compaction completed
			// and dropped every retired decision.
			checkVerdicts(t, "completed", mfs, live, nil)
			c2 := openCoord(t, mfs)
			for gid := range retired {
				if _, decided := c2.Verdict(gid); decided {
					t.Fatalf("retired group %d survived a completed compaction", gid)
				}
			}
			break
		}
		if err == nil {
			t.Fatalf("op %d: Compact succeeded on a crashed filesystem", k)
		}
		swept++
		for _, mode := range []faultfs.CrashMode{faultfs.KeepAll, faultfs.DropUnsynced} {
			checkVerdicts(t, fmt.Sprintf("crash at op %d, %v", k, mode), mfs.CrashImage(mode), live, retired)
		}
	}
	if swept < 10 {
		t.Fatalf("swept %d crash points; Compact performs more operations than that", swept)
	}
}

// TestCompactErrorSweep fails each filesystem operation Compact performs
// in turn. The failed Compact reports the error, the live verdicts still
// answer, and the next round's decision is durable: it survives a crash
// that drops everything unsynced.
func TestCompactErrorSweep(t *testing.T) {
	swept := 0
	for k := 1; ; k++ {
		mfs, c, live, retired := compactWorld(t)
		mfs.SetScript(faultfs.NewScript(faultfs.Rule{Op: faultfs.OpAny, Nth: k, Action: faultfs.ActError}))
		err := c.Compact()
		mfs.SetScript(nil)
		if err == nil {
			c.Close()
			break // k is past the last operation
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("op %d: Compact = %v, want the injected fault", k, err)
		}
		swept++
		for gid, want := range live {
			if commit, err := c.Resolve(gid); err != nil || commit != want {
				t.Fatalf("op %d: live group %d resolves %v, %v; want %v", k, gid, commit, err, want)
			}
		}
		deaf := &fakeMember{failFirst: 1 << 30}
		if ok, err := c.CommitGroup(context.Background(), 100, []Member{deaf.member("a")}); err != nil || !ok {
			t.Fatalf("op %d: round after failed Compact = %v, %v", k, ok, err)
		}
		live[100] = true
		checkVerdicts(t, fmt.Sprintf("error at op %d", k), mfs.CrashImage(faultfs.DropUnsynced), live, retired)
		c.Close()
	}
	if swept < 10 {
		t.Fatalf("swept %d failure points; Compact performs more operations than that", swept)
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

// TestOpenReadsChainOnce: Open reloads the verdicts and positions the
// decision log's writer in one scan, so it reads no more bytes from the
// segment files than the chain holds. The chain is a compacted segment
// followed by the decisions recorded after the compaction.
func TestOpenReadsChainOnce(t *testing.T) {
	mfs := faultfs.NewMem()
	c, err := Open(mfs, "coord")
	if err != nil {
		t.Fatal(err)
	}
	for gid := uint64(1); gid <= 40; gid++ {
		if _, err := c.Resolve(gid); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	for gid := uint64(41); gid <= 80; gid++ {
		if _, err := c.Resolve(gid); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var size int64
	for seq := 1; seq < 100; seq++ {
		if img, ok := mfs.ReadImage(fmt.Sprintf("coord/decisions/wal-%06d.seg", seq)); ok {
			size += int64(len(img))
		}
	}
	var read int64
	c, err = Open(segReads{mfs, &read}, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for gid := uint64(1); gid <= 80; gid++ {
		if commit, decided := c.Verdict(gid); !decided || commit {
			t.Fatalf("gid %d: verdict (commit=%v, decided=%v), want a recorded abort", gid, commit, decided)
		}
	}
	if read == 0 || read > size {
		t.Fatalf("Open read %d bytes from a %d-byte chain, want each byte once", read, size)
	}
}
