// The multi-node chaos matrix: two assetd participants (durable managers
// behind real servers, dialed through faultnet fabrics) plus a durable
// coordinator, driven through the full distributed commit protocol while
// each cell injects one failure — coordinator crash before/after the
// decision-log write, a partitioned participant, duplicated and
// reordered verdict delivery, lease expiry mid-prepare, and a
// participant crash+restart. Every cell ends with the same three
// assertions: the transfer is all-or-nothing across nodes, the escrow
// counters conserve exactly, and no group lingers in doubt once
// recovery + verdict query have run.
package txcoord_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/txcoord"
	"repro/internal/xid"
)

const nodeSeed = 100 // each node's counter starts here; the invariant is 2×this

// resolverBox is the verdict service the servers are wired to: a level of
// indirection so a restarted coordinator incarnation can take over
// without restarting the participant servers.
type resolverBox struct {
	mu sync.Mutex
	r  server.VerdictResolver
}

func (b *resolverBox) Resolve(gid uint64) (bool, error) {
	b.mu.Lock()
	r := b.r
	b.mu.Unlock()
	return r.Resolve(gid)
}

func (b *resolverBox) set(r server.VerdictResolver) {
	b.mu.Lock()
	b.r = r
	b.mu.Unlock()
}

// distNode is one participant: a durable manager on a crashable memfs,
// served over its own faultnet fabric.
type distNode struct {
	name   string
	mem    *faultfs.MemFS
	m      *core.Manager
	srv    *server.Server
	fabric *faultnet.Network
	oid    xid.OID
}

func startNode(t *testing.T, name string, mem *faultfs.MemFS, fabric *faultnet.Network, box *resolverBox) *distNode {
	t.Helper()
	m, err := core.Open(core.Config{Dir: "db", FS: mem, SyncCommits: true})
	if err != nil {
		t.Fatalf("%s: Open: %v", name, err)
	}
	lis, err := fabric.Listen("assetd")
	if err != nil {
		t.Fatalf("%s: Listen: %v", name, err)
	}
	srv := server.Serve(m, lis, server.Config{LeaseTTL: 150 * time.Millisecond, Verdicts: box})
	return &distNode{name: name, mem: mem, m: m, srv: srv, fabric: fabric}
}

// crash closes the node and returns the disk image a restart sees: every
// unsynced write gone.
func (n *distNode) crash() *faultfs.MemFS {
	n.srv.Close()
	img := n.mem.CrashImage(faultfs.DropUnsynced)
	n.m.Close() //nolint:errcheck
	return img
}

type distWorld struct {
	t        *testing.T
	coordMem *faultfs.MemFS
	coord    *txcoord.Coordinator
	box      *resolverBox
	a, b     *distNode
}

func newDistWorld(t *testing.T) *distWorld {
	t.Helper()
	coordMem := faultfs.NewMem()
	coord, err := txcoord.Open(coordMem, "coord")
	if err != nil {
		t.Fatal(err)
	}
	box := &resolverBox{r: coord}
	w := &distWorld{t: t, coordMem: coordMem, coord: coord, box: box}
	for _, nm := range []string{"a", "b"} {
		fabric := faultnet.New()
		t.Cleanup(fabric.Close)
		n := startNode(t, nm, faultfs.NewMem(), fabric, box)
		t.Cleanup(func() {
			n.srv.Close()
			n.m.Close() //nolint:errcheck
		})
		if err := n.m.Run(context.Background(), core.RunOptions{}, func(tx *core.Tx) error {
			oid, err := tx.Create(counterBytes(nodeSeed))
			if err != nil {
				return err
			}
			n.oid = oid
			return tx.DeclareEscrow(oid, 0, 10*nodeSeed)
		}); err != nil {
			t.Fatalf("%s: seed: %v", nm, err)
		}
		if nm == "a" {
			w.a = n
		} else {
			w.b = n
		}
	}
	t.Cleanup(func() { w.coord.Close() }) //nolint:errcheck
	return w
}

func counterBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// dial connects a client to a node with chaos-compressed timers.
func (w *distWorld) dial(n *distNode) *client.Client {
	w.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cli, err := client.Dial(ctx, client.Options{
		Dial: func(ctx context.Context) (net.Conn, error) {
			return n.fabric.DialContext(ctx, "assetd")
		},
		RetransmitEvery:  4 * time.Millisecond,
		HeartbeatEvery:   20 * time.Millisecond,
		ProbeTimeout:     25 * time.Millisecond,
		HandshakeTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		w.t.Fatalf("%s: dial: %v", n.name, err)
	}
	w.t.Cleanup(func() { cli.Close() }) //nolint:errcheck
	return cli
}

// buildHalf runs one side of the transfer as an interactive session txn:
// initiated, begun, delta applied — NOT committed. The interactive body
// stays open; the server's prepare path finishes it when the vote is
// requested. The client session must stay alive (unless the cell is
// specifically about killing it).
func (w *distWorld) buildHalf(cli *client.Client, n *distNode, delta int64) xid.TID {
	w.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tid, err := cli.Initiate(ctx)
	if err != nil {
		w.t.Fatalf("%s: initiate: %v", n.name, err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		w.t.Fatalf("%s: begin: %v", n.name, err)
	}
	if err := cli.Tx(tid).Add(ctx, n.oid, delta); err != nil {
		w.t.Fatalf("%s: add: %v", n.name, err)
	}
	return tid
}

// transfer builds the canonical cross-node move of k: -k on node a, +k on
// node b, each in its own application session. Returns the tids and the
// coordinator-side sessions used for prepare/decide traffic.
type transfer struct {
	k          int64
	tidA, tidB xid.TID
	appA, appB *client.Client // application sessions (owners of the txns)
	coA, coB   *client.Client // coordinator sessions (prepare/decide/query)
}

func (w *distWorld) buildTransfer(k int64) *transfer {
	w.t.Helper()
	tr := &transfer{k: k}
	tr.appA, tr.appB = w.dial(w.a), w.dial(w.b)
	tr.coA, tr.coB = w.dial(w.a), w.dial(w.b)
	tr.tidA = w.buildHalf(tr.appA, w.a, -k)
	tr.tidB = w.buildHalf(tr.appB, w.b, +k)
	return tr
}

// members returns the real wire-backed members for a commit round.
func (w *distWorld) members(tr *transfer) []txcoord.Member {
	return []txcoord.Member{
		txcoord.Remote("a", tr.coA, tr.tidA),
		txcoord.Remote("b", tr.coB, tr.tidB),
	}
}

// lostDecide wraps members so verdict delivery silently fails — the
// coordinator decides durably but nobody hears (a total delivery-phase
// partition). Prepares still ride the real wire.
func lostDecide(ms []txcoord.Member) []txcoord.Member {
	out := make([]txcoord.Member, len(ms))
	for i, m := range ms {
		m.Decide = func(ctx context.Context, gid uint64, commit bool) error {
			return fmt.Errorf("verdict lost in transit")
		}
		out[i] = m
	}
	return out
}

// settle waits for both nodes to quiesce and then asserts the matrix
// invariants: all-or-nothing across nodes, exact conservation, no group
// in doubt, and clean lock tables.
func (w *distWorld) settle(tr *transfer, wantCommit bool) {
	w.t.Helper()
	for _, n := range []*distNode{w.a, w.b} {
		waitQuiesce(w.t, n)
	}
	stA, stB := w.a.m.StatusOf(tr.tidA), w.b.m.StatusOf(tr.tidB)
	want := xid.StatusAborted
	if wantCommit {
		want = xid.StatusCommitted
	}
	if stA != want || stB != want {
		w.t.Fatalf("all-or-nothing violated: a=%v b=%v, want both %v", stA, stB, want)
	}
	va, vb := counterOn(w.t, w.a), counterOn(w.t, w.b)
	if va+vb != 2*nodeSeed {
		w.t.Fatalf("conservation violated: a=%d b=%d sum=%d, want %d", va, vb, va+vb, 2*nodeSeed)
	}
	wantA, wantB := uint64(nodeSeed), uint64(nodeSeed)
	if wantCommit {
		wantA -= uint64(tr.k)
		wantB += uint64(tr.k)
	}
	if va != wantA || vb != wantB {
		w.t.Fatalf("counters a=%d b=%d, want %d/%d", va, vb, wantA, wantB)
	}
	if d := w.a.m.InDoubt(); len(d) != 0 {
		w.t.Fatalf("node a still in doubt: %v", d)
	}
	if d := w.b.m.InDoubt(); len(d) != 0 {
		w.t.Fatalf("node b still in doubt: %v", d)
	}
}

func waitQuiesce(t *testing.T, n *distNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := 0
		for _, info := range n.m.Transactions() {
			switch info.Status {
			case xid.StatusCommitted, xid.StatusAborted:
			default:
				live++
			}
		}
		if live == 0 {
			if bad := n.m.LockManager().CheckInvariants(); len(bad) == 0 {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: lock invariants violated: %v", n.name, bad)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("%s: %d transactions still live: %+v", n.name, live, n.m.Transactions())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func counterOn(t *testing.T, n *distNode) uint64 {
	t.Helper()
	var v uint64
	if err := n.m.Run(context.Background(), core.RunOptions{}, func(tx *core.Tx) error {
		var err error
		v, err = tx.ReadCounter(n.oid)
		return err
	}); err != nil {
		t.Fatalf("%s: read counter: %v", n.name, err)
	}
	return v
}

// resolveOverWire drives a node's in-doubt groups through the wire-level
// recovery protocol: QueryVerdict (which forces presumed abort for
// undecided groups) then Decide, both on a live client session.
func resolveOverWire(t *testing.T, cli *client.Client, n *distNode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, gid := range n.m.InDoubt() {
		commit, err := cli.QueryVerdict(ctx, gid)
		if err != nil {
			t.Fatalf("%s: query verdict %d: %v", n.name, gid, err)
		}
		if err := cli.Decide(ctx, gid, commit); err != nil {
			t.Fatalf("%s: deliver verdict %d: %v", n.name, gid, err)
		}
	}
}

// --- The matrix ---

// Fault-free round: both halves commit, the transfer lands exactly once.
func TestDistCommitClean(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok, err := w.coord.CommitGroup(ctx, w.coord.NewGID(), w.members(tr))
	if err != nil || !ok {
		t.Fatalf("CommitGroup = %v, %v", ok, err)
	}
	w.settle(tr, true)
}

// One participant's half is already dead: the whole cross-node group
// aborts, nothing moves on either node.
func TestDistAbortVote(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.appB.Abort(ctx, tr.tidB); err != nil {
		t.Fatalf("abort b half: %v", err)
	}
	ok, err := w.coord.CommitGroup(ctx, w.coord.NewGID(), w.members(tr))
	if ok || err == nil {
		t.Fatalf("CommitGroup = %v, %v, want abort", ok, err)
	}
	w.settle(tr, false)
}

// Coordinator crashes after collecting votes but BEFORE the decision-log
// write: the restarted incarnation has no verdict, so recovery resolves
// as presumed abort — both prepared halves roll back.
func TestDistCoordCrashBeforeDecision(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gid := w.coord.NewGID()
	if err := tr.coA.Prepare(ctx, gid, tr.tidA); err != nil {
		t.Fatalf("prepare a: %v", err)
	}
	if err := tr.coB.Prepare(ctx, gid, tr.tidB); err != nil {
		t.Fatalf("prepare b: %v", err)
	}
	// Crash: no decision was appended, and the crash image proves it.
	w.coord.Close() //nolint:errcheck
	coord2, err := txcoord.Open(w.coordMem.CrashImage(faultfs.DropUnsynced), "coord")
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	t.Cleanup(func() { coord2.Close() }) //nolint:errcheck
	w.box.set(coord2)
	if _, decided := coord2.Verdict(gid); decided {
		t.Fatal("undelivered decision survived the crash")
	}
	// Both nodes are in doubt; wire recovery forces the abort.
	if d := w.a.m.InDoubt(); len(d) != 1 || d[0] != gid {
		t.Fatalf("node a in doubt = %v, want [%d]", d, gid)
	}
	resolveOverWire(t, tr.coA, w.a)
	resolveOverWire(t, tr.coB, w.b)
	w.settle(tr, false)
}

// Coordinator crashes AFTER the decision-log write but before any
// delivery: the verdict is durable, so recovery commits both halves.
func TestDistCoordCrashAfterDecision(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gid := w.coord.NewGID()
	// Real prepares over the wire; delivery is lost (the crash eats it).
	ok, err := w.coord.CommitGroup(ctx, gid, lostDecide(w.members(tr)))
	if err != nil || !ok {
		t.Fatalf("CommitGroup = %v, %v", ok, err)
	}
	w.coord.Close() //nolint:errcheck
	coord2, err := txcoord.Open(w.coordMem.CrashImage(faultfs.DropUnsynced), "coord")
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	t.Cleanup(func() { coord2.Close() }) //nolint:errcheck
	w.box.set(coord2)
	if commit, decided := coord2.Verdict(gid); !decided || !commit {
		t.Fatalf("durable verdict lost: commit=%v decided=%v", commit, decided)
	}
	resolveOverWire(t, tr.coA, w.a)
	resolveOverWire(t, tr.coB, w.b)
	w.settle(tr, true)
}

// One participant is partitioned away exactly when the verdict goes out:
// the other commits immediately, the partitioned one stays prepared (in
// doubt) until the partition heals and it queries the verdict.
func TestDistPartitionedParticipantDecide(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gid := w.coord.NewGID()
	ms := w.members(tr)
	// Node b's delivery hits a partition that never heals on its own: the
	// fabric cuts the connection at the next message and the decide call
	// times out.
	realDecideB := ms[1].Decide
	ms[1].Decide = func(_ context.Context, gid uint64, commit bool) error {
		w.b.fabric.SetScript(faultnet.NewScript(faultnet.Rule{Kind: faultnet.Partition}))
		short, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
		defer cancel()
		return realDecideB(short, gid, commit)
	}
	ok, err := w.coord.CommitGroup(ctx, gid, ms)
	if err != nil || !ok {
		t.Fatalf("CommitGroup = %v, %v", ok, err)
	}
	// Node a heard the verdict; node b is marooned in doubt.
	if got := w.a.m.StatusOf(tr.tidA); got != xid.StatusCommitted {
		t.Fatalf("node a status = %v, want committed", got)
	}
	if got := w.b.m.StatusOf(tr.tidB); got != xid.StatusPrepared {
		t.Fatalf("node b status = %v, want still prepared", got)
	}
	// Heal. The client's probe machinery declares the dead connection and
	// redials; the idempotent recovery protocol finishes the job.
	w.b.fabric.SetScript(nil)
	resolveOverWire(t, tr.coB, w.b)
	w.settle(tr, true)
}

// Verdict delivery is duplicated by the network and a stale prepare
// arrives after the verdict (reordering): every duplicate is an ack, the
// transfer lands exactly once, and the stale prepare is cleanly refused.
func TestDistDupReorderedDecide(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gid := w.coord.NewGID()
	if err := tr.coA.Prepare(ctx, gid, tr.tidA); err != nil {
		t.Fatalf("prepare a: %v", err)
	}
	if err := tr.coB.Prepare(ctx, gid, tr.tidB); err != nil {
		t.Fatalf("prepare b: %v", err)
	}
	// Every message on node a's fabric is duplicated during delivery: the
	// session layer's at-most-once table absorbs the copies.
	w.a.fabric.SetScript(faultnet.NewScript(faultnet.Rule{Kind: faultnet.Dup, Nth: 0}))
	ok, err := w.coord.CommitGroup(ctx, gid, w.members(tr))
	if err != nil || !ok {
		t.Fatalf("CommitGroup = %v, %v", ok, err)
	}
	w.a.fabric.SetScript(nil)
	// Application-level duplicates: the verdict again, twice more.
	if err := tr.coA.Decide(ctx, gid, true); err != nil {
		t.Fatalf("dup decide a: %v", err)
	}
	if err := tr.coB.Decide(ctx, gid, true); err != nil {
		t.Fatalf("dup decide b: %v", err)
	}
	// A reordered (stale) prepare arriving after the verdict must be
	// refused with the committed identity, not re-prepare anything.
	if err := tr.coA.Prepare(ctx, gid, tr.tidA); !errors.Is(err, core.ErrAlreadyCommitted) {
		t.Fatalf("stale prepare after commit = %v, want ErrAlreadyCommitted", err)
	}
	// The contradictory verdict is refused too.
	if err := tr.coB.Decide(ctx, gid, false); err == nil {
		t.Fatal("contradictory verdict accepted")
	}
	w.settle(tr, true)
}

// The application session dies mid-prepare: its lease expires between
// the prepare and the verdict. A prepared transaction must survive lease
// expiry — no unilateral abort — and commit when the verdict lands.
func TestDistLeaseExpiryMidPrepare(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gid := w.coord.NewGID()
	if err := tr.coA.Prepare(ctx, gid, tr.tidA); err != nil {
		t.Fatalf("prepare a: %v", err)
	}
	if err := tr.coB.Prepare(ctx, gid, tr.tidB); err != nil {
		t.Fatalf("prepare b: %v", err)
	}
	// Kill node a's application session and let its lease lapse.
	tr.appA.Close()                    //nolint:errcheck
	time.Sleep(400 * time.Millisecond) // >> LeaseTTL (150ms)
	if got := w.a.m.StatusOf(tr.tidA); got != xid.StatusPrepared {
		t.Fatalf("prepared txn after lease expiry = %v, want still prepared", got)
	}
	if err := tr.coA.Decide(ctx, gid, true); err != nil {
		t.Fatalf("decide a: %v", err)
	}
	if err := tr.coB.Decide(ctx, gid, true); err != nil {
		t.Fatalf("decide b: %v", err)
	}
	w.settle(tr, true)
}

// A participant crashes after voting yes and restarts from its crash
// image: the TPrepare record resurrects the group in doubt, holding
// locks, and the wire-level verdict query completes the commit with the
// redo images recovered from the log.
func TestDistParticipantCrashRestart(t *testing.T) {
	w := newDistWorld(t)
	tr := w.buildTransfer(30)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gid := w.coord.NewGID()
	// Votes collected over the real wire; the verdict is durable at the
	// coordinator but reaches nobody.
	ok, err := w.coord.CommitGroup(ctx, gid, lostDecide(w.members(tr)))
	if err != nil || !ok {
		t.Fatalf("CommitGroup = %v, %v", ok, err)
	}
	// Node b dies and comes back from the crash image.
	img := w.b.crash()
	n2 := startNode(t, "b2", img, w.b.fabric, w.box)
	t.Cleanup(func() {
		n2.srv.Close()
		n2.m.Close() //nolint:errcheck
	})
	n2.oid = w.b.oid
	w.b = n2
	if d := n2.m.InDoubt(); len(d) != 1 || d[0] != gid {
		t.Fatalf("restarted node in doubt = %v, want [%d]", d, gid)
	}
	// Fresh session to the new incarnation; recovery is multi-shot and
	// idempotent, so a second pass is a no-op.
	cli2 := w.dial(n2)
	resolveOverWire(t, cli2, n2)
	resolveOverWire(t, cli2, n2)
	resolveOverWire(t, tr.coA, w.a)
	w.settle(tr, true)
}
