// Package txcoord implements the coordinator half of ASSET's distributed
// group commit: two-phase commit over the GC dependencies of transactions
// spread across several managers (§3.1.2 scaled out — "both or neither"
// across nodes instead of within one).
//
// The protocol against each participant (core.Manager, usually reached
// through a client session):
//
//  1. Prepare: the participant drives the GC closure of its members to
//     completion, forces a TPrepare record, and moves them to the
//     prepared state — the yes vote. From then on no unilateral abort
//     (lease expiry, watchdog, crash) can touch them.
//  2. The coordinator collects the votes and records the verdict —
//     commit iff every vote was yes — in its own durable decision log
//     (a wal.SegmentedLog under <dir>/decisions) BEFORE releasing it to
//     anyone.
//  3. Decide: the verdict is delivered to every participant,
//     best-effort. Delivery may fail or duplicate freely: participants
//     apply verdicts idempotently, and a participant that restarts in
//     doubt queries the coordinator (Resolve) until it learns the truth.
//
// Resolve is presumed abort with teeth: asking about an undecided group
// FORCES a durable abort decision, so the answer is final either way —
// the "always learn the verdict, never guess" property. The decision
// log is the one source of truth; losing it loses the system's memory,
// so it is synced on every decision.
package txcoord

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Coordinator owns a durable decision log and runs commit rounds over it.
type Coordinator struct {
	// The coordinator latch is the outermost in the system — ordered
	// before even the networked tier's — and is held only around the
	// decision map and log append, never across a participant call.
	//asset:latch order=1
	mu      sync.Mutex
	fsys    faultfs.FS
	path    string // the decision chain's directory
	log     *wal.SegmentedLog
	decided map[uint64]bool
	retired int // decisions forgotten since the last compaction

	// RetireAcked makes CommitGroup forget a decision once every member
	// acknowledged its delivery, bounding the decided map (Compact bounds
	// the log). Standard presumed-abort garbage collection: with all acks
	// in, no participant can ever be in doubt about the group again, so
	// nobody protocol-bound will ask. Enable it ONLY when every
	// participant of every round is listed as a Member of that round — a
	// participant prepared out-of-band still relies on Resolve, and
	// resolving a forgotten commit re-answers presumed abort.
	RetireAcked bool
}

const (
	// deliverAttempts is how many times CommitGroup tries to deliver the
	// verdict to each participant before leaving it to recovery-time
	// Resolve; deliverBackoff is the pause before the second try, doubled
	// before each later one.
	deliverAttempts = 3
	deliverBackoff  = 10 * time.Millisecond
	// compactEvery is how many retired decisions trigger an automatic log
	// compaction; Compact runs one at any time.
	compactEvery = 1024
)

// Open opens (creating if needed) the decision log in dir: a segment
// chain in dir/decisions, so that a database sharing dir keeps a chain
// of its own. A nil fsys means the real filesystem. Every verdict
// previously recorded is reloaded; a torn tail (crash mid-append)
// cleanly drops the unwritten decision — which is exactly a coordinator
// that crashed before deciding, and resolves as presumed abort. A dir
// holding a coord.log, the retired single-file decision log, is refused
// with an error wrapping wal.ErrRetiredFormat.
func Open(fsys faultfs.FS, dir string) (*Coordinator, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	retired := filepath.Join(dir, "coord.log")
	if f, err := fsys.OpenFile(retired, os.O_RDONLY, 0); err == nil {
		f.Close()
		return nil, fmt.Errorf("txcoord: %w: %s is a single-file decision log", wal.ErrRetiredFormat, retired)
	}
	path := filepath.Join(dir, "decisions")
	if err := fsys.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("txcoord: mkdir %s: %w", path, err)
	}
	// The decisions directory's own entry must be durable before a
	// decision forced into it is released.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("txcoord: sync %s: %w", dir, err)
	}
	decided := make(map[uint64]bool)
	log, err := openLog(fsys, path, func(r *wal.Record) error {
		if r.Type == wal.TDecide {
			if _, ok := decided[r.GID]; !ok { // first writer won
				decided[r.GID] = r.Commit
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Coordinator{fsys: fsys, path: path, log: log, decided: decided}, nil
}

// openLog opens the decision chain in dir, forcing every append, and
// hands each record it holds to fn (when non-nil) in the same scan.
func openLog(fsys faultfs.FS, dir string, fn func(*wal.Record) error) (*wal.SegmentedLog, error) {
	log, err := wal.OpenScanFS(fsys, dir, wal.SegmentedOptions{Sync: true}, fn)
	if err != nil {
		return nil, fmt.Errorf("txcoord: open %s: %w", dir, err)
	}
	return log, nil
}

// Close closes the decision log.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Close()
}

// NewGID mints a fresh nonzero group id. Random rather than sequential:
// a gid handed to participants before the coordinator crashed never
// reaches the decision log, so a restart cannot safely reuse a counter.
func (c *Coordinator) NewGID() uint64 {
	return rand.Uint64() | 1
}

// Verdict reports the recorded verdict for gid without forcing one.
func (c *Coordinator) Verdict(gid uint64) (commit, decided bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	commit, decided = c.decided[gid]
	return commit, decided
}

// decide records the verdict for gid durably and returns the winning
// one. First writer wins: a racing Resolve (forced abort) and commit
// round serialize here, and exactly one verdict ever exists. The verdict
// is on disk before it is returned — nothing downstream can observe a
// decision a crash could unmake.
func (c *Coordinator) decide(gid uint64, commit bool) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.decided[gid]; ok {
		return v, nil
	}
	if _, err := c.log.Append(&wal.Record{Type: wal.TDecide, GID: gid, Commit: commit}); err != nil {
		return false, fmt.Errorf("txcoord: append decision for group %d: %w", gid, err)
	}
	if err := c.log.Flush(); err != nil {
		return false, fmt.Errorf("txcoord: force decision for group %d: %w", gid, err)
	}
	c.decided[gid] = commit
	return commit, nil
}

// Resolve answers "did group gid commit?" from durable state, forcing a
// durable abort decision for a group never decided (presumed abort).
// This is the recovery oracle: an in-doubt participant may ask any
// number of times, across any number of coordinator restarts, and every
// answer agrees. It also implements server.VerdictResolver.
func (c *Coordinator) Resolve(gid uint64) (commit bool, err error) {
	return c.decide(gid, false)
}

// retire forgets a fully-acknowledged decision. Every participant has
// durably applied (or never held) the verdict, so no protocol party is
// left to ask about gid and the entry is dead weight. The forget is
// in-memory — a restart resurrects retired decisions from the log until a
// compaction rewrites it, which is merely over-retention, never loss.
func (c *Coordinator) retire(gid uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.decided[gid]; !ok {
		return
	}
	delete(c.decided, gid)
	c.retired++
	if c.retired >= compactEvery {
		// Best-effort: a failed auto-compaction leaves the live decisions
		// on disk and the log reopened; the next retirement tries again.
		if err := c.compactLocked(); err == nil {
			c.retired = 0
		}
	}
}

// Compact rewrites the decision log to hold exactly the still-live
// decisions, durably dropping retired ones and bounding the log's
// otherwise append-only growth. Crash-safe: the chain's truncation
// writes and fsyncs the live decisions into a fresh segment before its
// manifest cutover, so every point of failure leaves a chain holding at
// least the live decisions. A failed compaction poisons the chain like
// any failed force; Compact then reopens it once, so the coordinator
// keeps answering, and returns the failure.
func (c *Coordinator) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.compactLocked(); err != nil {
		return err
	}
	c.retired = 0
	return nil
}

// compactLocked truncates the decision chain down to one TDecide per
// decided group, reopening it if the truncation fails. Caller holds c.mu.
func (c *Coordinator) compactLocked() error {
	gids := make([]uint64, 0, len(c.decided))
	for gid := range c.decided {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	err := c.log.Truncate(func(emit func(*wal.Record) error) error {
		for _, gid := range gids {
			if err := emit(&wal.Record{Type: wal.TDecide, GID: gid, Commit: c.decided[gid]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		return nil
	}
	err = fmt.Errorf("txcoord: compact: %w", err)
	_ = c.log.Close() // poisoned: the reopen below rereads what reached the disk
	log, rerr := openLog(c.fsys, c.path, nil)
	if rerr != nil {
		return errors.Join(err, rerr)
	}
	c.log = log
	return err
}

// Member is one participant's stake in a commit round: the transactions
// it contributes and how to reach it. The closures are usually a
// client session's Prepare/Decide (see Remote) or a co-located
// manager's (see Local).
type Member struct {
	Name    string
	TIDs    []xid.TID
	Prepare func(ctx context.Context, gid uint64, tids []xid.TID) error
	Decide  func(ctx context.Context, gid uint64, commit bool) error
}

// Remote binds a client session's participant surface to a member.
type remoteSession interface {
	Prepare(ctx context.Context, gid uint64, tids ...xid.TID) error
	Decide(ctx context.Context, gid uint64, commit bool) error
}

// Remote adapts a connected client session into a Member contributing
// tids. (client.Client satisfies the session interface.)
func Remote(name string, cli remoteSession, tids ...xid.TID) Member {
	return Member{
		Name: name,
		TIDs: tids,
		Prepare: func(ctx context.Context, gid uint64, tids []xid.TID) error {
			return cli.Prepare(ctx, gid, tids...)
		},
		Decide: func(ctx context.Context, gid uint64, commit bool) error {
			return cli.Decide(ctx, gid, commit)
		},
	}
}

// Local adapts a co-located manager into a Member contributing tids —
// no RPC hop, same protocol.
func Local(name string, m *core.Manager, tids ...xid.TID) Member {
	return Member{
		Name: name,
		TIDs: tids,
		Prepare: func(ctx context.Context, gid uint64, tids []xid.TID) error {
			return m.PrepareCtx(ctx, gid, tids...)
		},
		Decide: func(ctx context.Context, gid uint64, commit bool) error {
			return m.Decide(gid, commit)
		},
	}
}

// CommitGroup runs one full commit round for gid over the members:
// parallel prepares, a durable verdict (commit iff every vote was yes),
// then best-effort parallel delivery. It returns whether the group
// committed; a non-nil error with commit=false carries the vote (or
// log) failure. Verdict delivery failures are NOT errors — a
// participant that missed the verdict holds its group in doubt and
// learns the truth from Resolve after its restart or retry. Each phase
// runs its last member on the calling goroutine and the others on
// goroutines of their own, so a two-member round spawns one per phase.
//
// Decide-before-release: the durable decision (decide forces the
// coordinator log) must dominate every verdict delivery, spawned or not.
//
//asset:durable before=deliver
func (c *Coordinator) CommitGroup(ctx context.Context, gid uint64, members []Member) (bool, error) {
	if gid == 0 {
		return false, fmt.Errorf("txcoord: zero group id")
	}
	r := newRound(ctx, gid, len(members))
	defer r.recycle()
	last := len(members) - 1
	// Phase 1: collect votes in parallel. Any error is a no vote.
	r.wg.Add(len(members))
	for i, mb := range members {
		if i < last {
			//asset:goroutine joined-by=waitgroup
			go r.prepare(i, mb)
		} else {
			r.prepare(i, mb)
		}
	}
	r.wg.Wait()
	var voteErr error
	for _, err := range r.votes {
		if err != nil {
			voteErr = err
			break
		}
	}
	// Phase 2: the commit point. decide() may lose to a Resolve that
	// already forced an abort — the durable log arbitrates.
	verdict, err := c.decide(gid, voteErr == nil)
	if err != nil {
		// No verdict was released; participants stay prepared and will
		// resolve (as presumed abort) against whatever log state survived.
		return false, err
	}
	// Phase 3: deliver the verdict, best-effort with bounded retries.
	r.verdict = verdict
	r.wg.Add(len(members))
	for i, mb := range members {
		if i < last {
			//asset:goroutine joined-by=waitgroup
			go r.deliver(i, mb)
		} else {
			r.deliver(i, mb)
		}
	}
	r.wg.Wait()
	if c.RetireAcked && !slices.Contains(r.acked, false) {
		c.retire(gid)
	}
	if !verdict {
		if voteErr != nil {
			return false, voteErr
		}
		return false, fmt.Errorf("txcoord: group %d aborted by a prior forced decision", gid)
	}
	return true, nil
}

// round is one CommitGroup's state, shared with the goroutines it spawns:
// the votes, the acks, and the wait group that joins each phase. Rounds
// are recycled, so a round allocates none of them. The members travel as
// arguments, not in the round, so the caller's slice of them does not
// escape.
type round struct {
	wg      sync.WaitGroup
	ctx     context.Context
	gid     uint64
	votes   []error
	acked   []bool
	verdict bool
}

var rounds = sync.Pool{New: func() any { return new(round) }}

func newRound(ctx context.Context, gid uint64, n int) *round {
	r := rounds.Get().(*round)
	r.ctx, r.gid = ctx, gid
	if cap(r.votes) < n {
		r.votes, r.acked = make([]error, n), make([]bool, n)
	} else {
		r.votes, r.acked = r.votes[:n], r.acked[:n]
	}
	return r
}

// recycle drops what the round holds of its caller and pools it; each
// phase has waited for its goroutines.
func (r *round) recycle() {
	clear(r.votes)
	clear(r.acked)
	r.ctx = nil
	rounds.Put(r)
}

// prepare asks member i, mb, for its vote and records a no.
func (r *round) prepare(i int, mb Member) {
	defer r.wg.Done()
	if err := mb.Prepare(r.ctx, r.gid, mb.TIDs); err != nil {
		r.votes[i] = fmt.Errorf("txcoord: %s voted no: %w", mb.Name, err)
	}
}

// deliver hands the verdict to member i, mb, retrying after a backoff,
// and records whether it was acknowledged. The backoff is one timer,
// stopped however the delivery ends.
func (r *round) deliver(i int, mb Member) {
	defer r.wg.Done()
	var wait *time.Timer
	defer func() {
		if wait != nil {
			wait.Stop()
		}
	}()
	for try := 0; try < deliverAttempts; try++ {
		err := mb.Decide(r.ctx, r.gid, r.verdict)
		if err == nil || errors.Is(err, core.ErrUnknownGroup) {
			// ErrUnknownGroup is an ack, not a failure: nothing is
			// left to decide there. The participant voted no (so an
			// abort verdict finds neither prepared state nor a
			// recorded verdict), or it already applied the verdict
			// and has since restarted or pruned it.
			r.acked[i] = true
			return
		}
		if r.ctx.Err() != nil {
			return
		}
		if wait == nil {
			wait = time.NewTimer(deliverBackoff << uint(try))
		} else {
			wait.Reset(deliverBackoff << uint(try))
		}
		select {
		case <-wait.C:
		case <-r.ctx.Done():
			return
		}
	}
}

// ResolveInDoubt drives every in-doubt group of a restarted participant
// to resolution: the resolver (a coordinator's Resolve, locally or over
// a session's QueryVerdict) supplies the verdict and the manager applies
// it. Multi-shot: safe to call again after a partial failure.
func ResolveInDoubt(m *core.Manager, resolve func(gid uint64) (bool, error)) error {
	for _, gid := range m.InDoubt() {
		commit, err := resolve(gid)
		if err != nil {
			return fmt.Errorf("txcoord: resolving group %d: %w", gid, err)
		}
		if err := m.Decide(gid, commit); err != nil {
			return fmt.Errorf("txcoord: applying verdict for group %d: %w", gid, err)
		}
	}
	return nil
}
