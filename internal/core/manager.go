// Package core implements the ASSET transaction primitives of §2 of the
// paper — initiate, begin, commit, wait, abort, self, parent, delegate,
// permit, and form_dependency — on top of the lock manager, dependency
// graph, write-ahead log, and shared object cache. The package asset at the
// module root re-exports the public surface.
package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dep"
	"repro/internal/faultfs"
	"repro/internal/htab"
	"repro/internal/lock"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/waitgraph"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Config configures a Manager.
//
// Every commit, prepare and verdict record reaches the log one way: the
// committer appends it, releases the manager mutex and parks on the log's
// force. Committers that arrive while a force is on the disk share the
// next one, so forces per commit fall as load rises (the durable log's
// cohort protocol; it complements the paper's GC groups, which share a
// commit record).
type Config struct {
	// Dir, when non-empty, makes the database durable: the write-ahead
	// log's segment chain lives there, a checkpoint rewrites it to start
	// with an image of every object, and Open recovers by replaying it.
	// When empty the manager is purely in-memory.
	Dir string
	// SyncCommits forces an fsync on every commit record (durable mode
	// only). Off, commits are buffered and only checkpoints force.
	SyncCommits bool
	// Deprecated: GroupCommit is ignored; every commit takes the one
	// path described on Config.
	GroupCommit bool
	// WALSegmentBytes sets the segmented log's rotation threshold
	// (durable mode only). 0 picks the default (16 MiB). Small values
	// are useful to tests that need to cross many rotation boundaries.
	WALSegmentBytes int64
	// LockShards sets the number of lock-table shards (rounded up to a
	// power of two). 0 picks the default (64); 1 degenerates to a single
	// global lock-table latch, the pre-sharding behaviour.
	LockShards int
	// TxnDeadline bounds the lifetime of every transaction: the watchdog
	// reaper aborts (with ErrTxnDeadline) any transaction still live that
	// long after initiation. 0 disables the watchdog. A context bound to
	// one transaction (TxnOptions.Ctx, BeginCtx, Run's ctx) bounds it more
	// tightly.
	TxnDeadline time.Duration
	// MaxLive bounds transactions admitted past begin — the running set
	// that actually holds locks. When the gate is full, begin queues
	// (deadline-aware, see AdmitTimeout) and sheds with ErrOverload rather
	// than letting the lock table collapse under contention. 0 = no gate.
	MaxLive int
	// AdmitTimeout is how long begin may queue for an admission slot when
	// the MaxLive gate is full. The wait is additionally capped by the
	// transaction's deadline and context. 0 means shed immediately unless
	// a deadline or context bounds the wait.
	AdmitTimeout time.Duration
	// Deprecated: ReapTerminated is ignored; every terminated
	// transaction's descriptor is dropped at once, and its outcome stays
	// answerable by tid from the manager's outcome ring.
	ReapTerminated bool
	// FS, when non-nil, replaces the OS filesystem for every durable file
	// (the WAL's segments and manifest). Used by the fault-injection and
	// crash-simulation tests; nil means the real filesystem.
	FS faultfs.FS
}

// retention bounds what the manager remembers of what is over: the
// outcomes of terminated transactions, answerable by tid (see outcome), and
// the decided distributed-commit groups, for idempotent verdict
// redelivery. Beyond it the oldest are forgotten: a by-tid primitive on a
// forgotten transaction reports ErrUnknownTxn, and a duplicate Decide for a
// forgotten group ErrUnknownGroup — which coordinators treat as already
// delivered.
const retention = 4096

// outcome is what a by-tid primitive reads of a transaction: its status
// and, aborting or aborted, its reason. It is also the slot of the
// manager's outcome ring, which holds a terminated transaction's outcome
// once its descriptor has left the table, at index tid % retention: 32
// bytes, so the ring costs 128 KiB a manager and nothing a termination.
// A slot keeps the newest terminated tid of its residue, so a tid is
// forgotten once a tid a multiple of retention newer has terminated,
// whether before it or after: a long-lived transaction never evicts the
// outcome of a younger one.
type outcome struct {
	tid    xid.TID
	st     xid.Status
	reason error
}

// err is what a wait on the transaction reports once its body is done:
// nil unless it aborted, and then abortedErr of its reason.
func (o outcome) err() error {
	if o.st != xid.StatusAborted && o.st != xid.StatusAborting {
		return nil
	}
	return abortedErr(o.reason)
}

// abortedErr is what a transaction that aborted reports: its abort reason,
// or ErrAborted if none was recorded.
func abortedErr(reason error) error {
	if reason == nil {
		return ErrAborted
	}
	return reason
}

// Stats are cumulative manager counters, used by the benchmark harness.
type Stats struct {
	Commits   uint64 // committed transactions
	Aborts    uint64 // aborted transactions
	Deadlocks uint64 // deadlock victims
	LogForces uint64 // log flushes issued by commits
	GroupSize uint64 // sum of group sizes over group commits (avg = /Commits)
	Reaped    uint64 // transactions aborted by the watchdog (ErrTxnDeadline)
	Expired   uint64 // aborts caused by context deadline expiry
	Cancelled uint64 // aborts caused by context cancellation
	Overloads uint64 // transactions shed by admission control (ErrOverload)
	Retries   uint64 // re-executions performed by Run
}

// Manager is the ASSET transaction manager.
type Manager struct {
	cfg Config

	// The manager mutex is the outermost lock of the system: it may be held
	// while calling into the lock manager (Delegate, Permit), so it orders
	// before every latch below.
	//asset:latch order=10
	mu sync.Mutex

	txns    *htab.Map[*txn]            // the chained hash table of TDs (§4.1)
	ended   [retention]outcome         // the outcome ring, guarded by mu
	free    pool.Shared[txn, *txn]     // recycled TDs
	wakers  pool.Shared[waker, *waker] // wake channels between waits (await)
	nextTID atomic.Uint64
	// tidFloor is the durable tid floor (see setTIDFloorLocked): no tid at
	// or above it is handed out before a higher floor is durable. Written
	// under mu; MaxUint64 for a manager with no log.
	tidFloor atomic.Uint64
	live     atomic.Int64 // non-terminated transactions, for Checkpoint's quiescence

	locks *lock.Manager
	deps  *dep.Graph
	waits *waitgraph.Graph
	cache *storage.Cache

	// log is the durable log; nil for a manager opened without Dir. seq
	// numbers every append, so undo records keep log order without the
	// log's LSNs. rec is the record a checkpoint's snapshot streams its
	// records through (an append builds its record on its own stack), and
	// tidBuf and ctr what a commit record's tid list and a delta record's
	// image point into: the log keeps no record or slice past Append, so
	// under mu they can be overwritten by the next append.
	log    *wal.SegmentedLog
	seq    uint64
	rec    wal.Record
	tidBuf []xid.TID
	ctr    [8]byte

	// Distributed-commit participant state, guarded by mu. prepared maps a
	// group id to its local members (runtime-prepared or recovered in
	// doubt), in lists spareTIDLists keeps for the next vote once the group
	// is decided; verdicts remembers decided groups so retransmitted votes
	// and verdicts stay idempotent, with verdictOrder the FIFO pruning
	// order bounding it to retention; preparing gates the window in which
	// a vote's TPrepare force or a verdict's TCommit force has released
	// mu — duplicate votes and verdicts wait it out on a channel the first
	// of them makes (awaitGateLocked). inDoubtRedo holds the withheld
	// after-images of each transaction recovered in doubt (prepared in the
	// WAL, verdict unknown): installed on a commit verdict, discarded on
	// abort. Ordinary transactions have none: their updates live in the
	// cache and roll back via undo.
	prepared      map[uint64][]xid.TID
	spareTIDLists [][]xid.TID
	verdicts      map[uint64]bool
	verdictOrder  []uint64
	preparing     map[uint64]chan struct{}
	inDoubtRedo   map[xid.TID][]wal.RedoOp

	closed atomic.Bool
	// closeCh closes when Close begins, waking admission queuers and
	// stopping the watchdog.
	closeCh chan struct{}
	// admit is the MaxLive admission gate (nil when unbounded): a begin
	// deposits a token to enter, commit/abort withdraws it.
	admit chan struct{}
	// The watchdog reaper starts lazily, on the first transaction that
	// carries a deadline; watchdogDone closes when it exits.
	watchdogOnce sync.Once
	watchdogOn   atomic.Bool
	watchdogDone chan struct{}

	stats struct {
		commits, aborts, deadlocks, logForces, groupSize atomic.Uint64
		reaped, expired, cancelled, overloads, retries   atomic.Uint64
	}
}

// Open creates a Manager. With cfg.Dir set it opens (or creates) the
// durable database there and recovers committed state from the log;
// otherwise everything is in-memory.
func Open(cfg Config) (*Manager, error) {
	m := &Manager{
		cfg:          cfg,
		deps:         dep.New(),
		waits:        waitgraph.New(),
		cache:        storage.NewCache(),
		txns:         htab.New[*txn](0),
		prepared:     make(map[uint64][]xid.TID),
		inDoubtRedo:  make(map[xid.TID][]wal.RedoOp),
		verdicts:     make(map[uint64]bool),
		preparing:    make(map[uint64]chan struct{}),
		closeCh:      make(chan struct{}),
		watchdogDone: make(chan struct{}),
	}
	if cfg.MaxLive > 0 {
		m.admit = make(chan struct{}, cfg.MaxLive)
	}
	m.locks = lock.New(m.waits, lock.Options{
		OnVictim: func(t xid.TID) {
			m.mu.Lock()
			if vt, ok := m.txns.Get(uint64(t)); ok {
				m.abortLocked(vt, fmt.Errorf("%w: chosen as deadlock victim: %w", ErrAborted, ErrDeadlock))
			}
			m.mu.Unlock()
		},
		Shards:       cfg.LockShards,
		EagerClosure: true,
	})

	if cfg.Dir == "" {
		m.tidFloor.Store(math.MaxUint64)
		return m, nil
	}

	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	// A database older than the snapshot segment kept its checkpoint in a
	// page store the log no longer covers: opening around it would
	// recover an empty or partial database.
	retired := filepath.Join(cfg.Dir, "pages")
	if f, err := fsys.OpenFile(retired, os.O_RDONLY, 0); err == nil {
		f.Close()
		return nil, fmt.Errorf("core: %w: %s is a page store", wal.ErrRetiredFormat, retired)
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// The log is a segmented chain that starts with the last checkpoint's
	// images; the one scan that positions the writer replays it from empty.
	rp := wal.NewReplayer()
	log, err := wal.OpenScanFS(fsys, cfg.Dir, wal.SegmentedOptions{
		SegmentBytes: cfg.WALSegmentBytes,
		Sync:         cfg.SyncCommits,
	}, rp.Apply)
	if err != nil {
		return nil, err
	}
	st := rp.Finish()
	var maxOID xid.OID
	for oid, data := range st.Objects {
		m.cache.Install(oid, data)
		maxOID = max(maxOID, oid)
	}
	// An in-doubt transaction's created OIDs are not in st.Objects (their
	// images are withheld), so fold them into the allocator's floor before
	// SetNextOID or a new create could collide.
	for _, ops := range st.InDoubtOps {
		for _, op := range ops {
			maxOID = max(maxOID, op.OID)
		}
	}
	m.cache.SetNextOID(maxOID)
	m.nextTID.Store(uint64(st.MaxTID))
	if err := m.installInDoubt(st); err != nil {
		log.Close()
		return nil, err
	}
	m.log = log
	m.mu.Lock()
	err = m.setTIDFloorLocked(st.MaxTID + tidBlock)
	m.mu.Unlock()
	if err != nil {
		log.Close()
		return nil, err
	}
	return m, nil
}

// tidBlock is how far each durable tid floor reaches past the tids issued
// before it: a manager forces one floor record when it opens and one more
// every tidBlock tids.
const tidBlock = 1 << 20

// setTIDFloorLocked makes floor the durable tid floor: a TBegin naming it,
// forced. A tid that reached no durable record before a crash — an
// initiated transaction, a reader, a writer whose records were not yet
// forced — is below the floor, and recovery, which continues from the
// largest tid any record names, never issues it again. Caller holds m.mu.
func (m *Manager) setTIDFloorLocked(floor xid.TID) error {
	rec := wal.Record{Type: wal.TBegin, TID: floor}
	if _, err := m.log.Append(&rec); err != nil {
		return err
	}
	if err := m.log.Sync(); err != nil {
		return err
	}
	m.tidFloor.Store(uint64(floor))
	return nil
}

// raiseTIDFloor is initiateOpts's slow path: id reached the durable floor,
// so a new floor a block past it is forced before id is handed out. Once
// every tidBlock tids; an initiator that finds the floor raised meanwhile
// has nothing to do.
//
//go:noinline
func (m *Manager) raiseTIDFloor(id xid.TID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint64(id) < m.tidFloor.Load() {
		return nil
	}
	return m.setTIDFloorLocked(id + tidBlock)
}

// Close shuts the manager down gracefully: every live transaction is
// aborted with a reason wrapping ErrClosed — which wakes waiters parked on
// lock-shard conds (their waits are cancelled), dependency and commit waits
// (done/term close), and admission queuers — then the watchdog is drained
// and the log flushed and closed. In-flight commit groups that already
// appended their commit record are allowed to finish; recovery treats
// everything else as a loser.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	close(m.closeCh)
	var live []xid.TID
	m.txns.Range(func(id uint64, _ *txn) bool {
		live = append(live, xid.TID(id))
		return true
	})
	var committing []*txn
	m.mu.Lock()
	for _, id := range live {
		t, ok := m.txns.Get(uint64(id))
		if !ok {
			continue // terminated and reaped since the listing
		}
		switch st := t.st(); {
		case st == xid.StatusCommitting:
			t.pin()
			committing = append(committing, t)
		case !st.Terminated():
			m.abortLocked(t, fmt.Errorf("%w: %w", ErrAborted, ErrClosed))
		}
	}
	m.mu.Unlock()
	// A committing group is past its commit record and its driver is off
	// the mutex, parked on the log's force, so wait for the outcome
	// instead of yanking the log from under the force.
	for _, t := range committing {
		m.await(t, &t.term, nil, nil, nil)
		m.unpin(t)
	}
	if m.watchdogOn.Load() {
		<-m.watchdogDone
	}
	if m.log == nil {
		return nil
	}
	err := m.log.Flush()
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Commits:   m.stats.commits.Load(),
		Aborts:    m.stats.aborts.Load(),
		Deadlocks: m.stats.deadlocks.Load(),
		LogForces: m.stats.logForces.Load(),
		GroupSize: m.stats.groupSize.Load(),
		Reaped:    m.stats.reaped.Load(),
		Expired:   m.stats.expired.Load(),
		Cancelled: m.stats.cancelled.Load(),
		Overloads: m.stats.overloads.Load(),
		Retries:   m.stats.retries.Load(),
	}
}

// StatusOf returns the status of t, and StatusAborted for a tid the
// manager does not know (see LookupStatus).
func (m *Manager) StatusOf(t xid.TID) xid.Status {
	st, _ := m.LookupStatus(t)
	return st
}

// LookupStatus returns the status of t and whether the manager knows t: a
// live transaction's status, read mutex-free under the descriptor table's
// shard latch while the table still vouches that the descriptor is t's; a
// terminated one's from the outcome ring, under the manager mutex. For a
// tid neither knows — never issued, or forgotten by the ring — it returns
// StatusAborted and false: a fallback, not a verdict, which a caller that
// must not mistake a forgotten commit for an abort tells apart by the bool.
func (m *Manager) LookupStatus(t xid.TID) (xid.Status, bool) {
	var st xid.Status
	if m.txns.View(uint64(t), func(tx *txn) { st = tx.st() }) {
		return st, true
	}
	m.mu.Lock()
	o, ok := m.endedLocked(t)
	m.mu.Unlock()
	if !ok {
		return xid.StatusAborted, false
	}
	return o.st, true
}

// TxnInfo describes one live transaction.
type TxnInfo struct {
	ID     xid.TID
	Parent xid.TID
	Status xid.Status
}

// Transactions lists the live transactions in ascending tid order — one
// of the §2.1 "primitives to query the status of transactions"; a
// terminated one has left the table, and StatusOf answers for it. The
// listing is a moment-in-time snapshot, not a consistent cut: it takes no
// manager-wide lock, so transactions that begin or terminate concurrently
// may or may not appear. Each entry is read under its table shard's latch.
func (m *Manager) Transactions() []TxnInfo {
	var out []TxnInfo
	m.txns.Visit(func(_ uint64, t *txn) bool {
		out = append(out, TxnInfo{ID: t.id, Parent: t.parent, Status: t.st()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Active lists the transactions that have begun and not terminated.
func (m *Manager) Active() []xid.TID {
	var out []xid.TID
	for _, info := range m.Transactions() {
		if info.Status.Active() {
			out = append(out, info.ID)
		}
	}
	return out
}

// appendLocked appends *r to the log and returns its place in the
// manager's append sequence. The log keeps nothing of r, so a caller
// builds it on its stack, and nothing copies it. Caller holds m.mu, which
// makes the sequence log order.
func (m *Manager) appendLocked(r *wal.Record) (uint64, error) {
	m.seq++
	if m.log == nil {
		return m.seq, nil
	}
	_, err := m.log.Append(r)
	return m.seq, err
}

// forceLocked makes everything appended so far durable, with m.mu
// released around the log's force: committers that arrive meanwhile
// append into the next batch and share a force instead of queueing on
// the mutex. The caller must first make its transactions untouchable by
// every other path (members committing or prepared, a preparing gate in
// place). Caller holds m.mu, and holds it again on return.
func (m *Manager) forceLocked() error {
	if m.log == nil {
		return nil
	}
	m.mu.Unlock()
	err := m.log.Flush()
	m.mu.Lock()
	return err
}

// deltaImage renders delta as a KindDelta record's After image in the
// manager's scratch; valid until the next call. Caller holds m.mu.
func (m *Manager) deltaImage(delta int64) []byte {
	wal.PutCounter(m.ctr[:], uint64(delta))
	return m.ctr[:]
}

// lookup is how a primitive that names a transaction by tid finds it: the
// descriptor and its outcome while the table holds it; once it has
// terminated, a nil descriptor and the outcome the ring keeps. Either way
// the primitive decides on the outcome's status, and touches the
// descriptor only where that status is not terminal. A tid neither knows
// is ErrUnknownTxn. Caller holds m.mu.
func (m *Manager) lookup(id xid.TID) (*txn, outcome, error) {
	if t, ok := m.txns.Get(uint64(id)); ok {
		return t, t.outcome(), nil
	}
	if o, ok := m.endedLocked(id); ok {
		return nil, o, nil
	}
	return nil, outcome{}, fmt.Errorf("%w: %v", ErrUnknownTxn, id)
}

// endedLocked returns the ring's outcome for id, if the ring still holds
// it. Caller holds m.mu.
func (m *Manager) endedLocked(id xid.TID) (outcome, bool) {
	o := m.ended[id%retention]
	return o, o.tid == id && !id.IsNil()
}

// reapLocked drops the terminated t from the table, its outcome put in the
// ring first so that a by-tid primitive finds one or the other — unless
// the slot already holds a newer tid's, which t's must not evict (see
// outcome). It runs before t's waiters are woken, so that whoever observes
// the outcome no longer finds the descriptor; the caller drops the table's
// reference after the wake-ups, which must reach t's waiters. Caller holds
// m.mu.
func (m *Manager) reapLocked(t *txn) {
	if slot := &m.ended[t.id%retention]; t.id > slot.tid {
		*slot = t.outcome()
	}
	m.txns.Delete(uint64(t.id))
}

// Checkpoint rewrites the durable log to start with an image of every
// object, so recovery replays the snapshot and what follows it instead
// of the whole history. The manager must be quiescent (no live
// transactions); it is the caller's job to arrange that. A manager
// opened without Dir has no log to rewrite, and its checkpoint does
// nothing.
//
// Truncation discards the only redo history, so it is reached only
// behind a force of everything appended so far; Truncate also seals the
// old chain itself before it writes the snapshot (§11).
//
//asset:durable before=Truncate
func (m *Manager) Checkpoint() error {
	// Holding m.mu keeps the manager quiescent: initiate is mutex-free, but
	// a freshly initiated transaction cannot touch any object until Begin,
	// and beginOne blocks on m.mu.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	if n := m.live.Load(); n != 0 {
		return fmt.Errorf("%w: %d live transactions", ErrNotQuiescent, n)
	}
	if m.log == nil {
		return nil
	}
	if err := m.log.Flush(); err != nil {
		return err
	}
	return m.log.Truncate(m.snapshotLocked)
}

// snapshotLocked streams into emit, through the manager's reused record,
// a TBegin naming the durable tid floor and then a TImage record of every
// cached object: a quiescent cache holds exactly the committed state. The
// TBegin carries the floor into the new chain, since the images name no
// tid and replay would otherwise issue the chain's tids afresh. The order is
// ascending oid, so a run writes the same bytes in the same file
// operations every time, which CrashSim's sweeps rely on. Caller holds
// m.mu.
func (m *Manager) snapshotLocked(emit func(*wal.Record) error) error {
	m.rec = wal.Record{Type: wal.TBegin, TID: xid.TID(m.tidFloor.Load())}
	if err := emit(&m.rec); err != nil {
		return err
	}
	var err error
	m.rec = wal.Record{Type: wal.TImage}
	m.cache.ForEach(func(oid xid.OID, data []byte) bool {
		m.rec.OID, m.rec.After = oid, data
		err = emit(&m.rec)
		return err == nil
	})
	return err
}

// Cache exposes the shared object cache for read-only inspection by tools
// and tests.
func (m *Manager) Cache() *storage.Cache { return m.cache }

// LockManager exposes the lock manager for benchmarks and diagnostics.
func (m *Manager) LockManager() *lock.Manager { return m.locks }

// WaitGraph exposes the waits-for graph for diagnostics and tests (e.g.
// asserting that cancelled transactions leave no edges behind).
func (m *Manager) WaitGraph() *waitgraph.Graph { return m.waits }

// PhysicalForces reports the durable log's physical forces (batches
// written), or 0 for a manager opened without Dir; compare with
// Stats().LogForces, which counts the forces commits and votes asked for.
func (m *Manager) PhysicalForces() uint64 {
	if m.log == nil {
		return 0
	}
	return m.log.Forces()
}
