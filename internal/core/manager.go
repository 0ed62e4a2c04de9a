// Package core implements the ASSET transaction primitives of §2 of the
// paper — initiate, begin, commit, wait, abort, self, parent, delegate,
// permit, and form_dependency — on top of the lock manager, dependency
// graph, write-ahead log, and shared object cache. The package asset at the
// module root re-exports the public surface.
package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dep"
	"repro/internal/faultfs"
	"repro/internal/htab"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/waitgraph"
	"repro/internal/wal"
	"repro/internal/xid"
)

// Config configures a Manager.
type Config struct {
	// Dir, when non-empty, makes the database durable: the write-ahead log
	// and the page-store checkpoint backend live there, and Open performs
	// recovery. When empty the manager is purely in-memory.
	Dir string
	// SyncCommits forces an fsync on every commit record (durable mode
	// only). Off, commits are buffered and only checkpoints force.
	SyncCommits bool
	// BatchedCommits enables classic group commit: concurrent committers
	// share one physical log force (the commit protocol releases the
	// manager mutex around the force). Complements the paper's
	// GC-dependency groups, which share a commit *record*.
	BatchedCommits bool
	// GroupCommit enables the pipelined group-commit WAL protocol
	// (durable mode only): committers enqueue their commit record into
	// the segmented log's batch slab and park; a force leader writes the
	// whole batch with one write and one fsync and wakes the cohort. The
	// commit protocol releases the manager mutex around the force, so
	// batch N+1 forms while batch N is on the disk. Distinct from
	// BatchedCommits, which coalesces Flush calls in front of any log;
	// GroupCommit is the segmented log's native cohort protocol.
	GroupCommit bool
	// CommitWindow, with BatchedCommits or GroupCommit, makes the flush
	// leader linger to accumulate more committers into the same force
	// (latency for throughput).
	CommitWindow time.Duration
	// WALSegmentBytes sets the segmented log's rotation threshold
	// (durable mode only). 0 picks the default (16 MiB). Small values
	// are useful to tests that need to cross many rotation boundaries.
	WALSegmentBytes int64
	// MaxTransactions bounds concurrently live (non-terminated)
	// transactions; initiate fails beyond it. 0 means no limit.
	MaxTransactions int
	// LockShards sets the number of lock-table shards (rounded up to a
	// power of two). 0 picks the default (64); 1 degenerates to a single
	// global lock-table latch, the pre-sharding behaviour.
	LockShards int
	// NoQueueFairness and LazyPermitClosure select lock-manager ablations.
	NoQueueFairness   bool
	LazyPermitClosure bool
	// DisableDeadlockDetection leaves blocked requests waiting instead of
	// selecting victims (ablation A4; combine with LockTimeout).
	DisableDeadlockDetection bool
	// LockTimeout bounds how long any lock request may block; 0 = forever.
	// It is the deadlock resolution of last resort with detection
	// disabled. Per-transaction deadlines (TxnDeadline, TxnOptions) and
	// contexts bound via BeginCtx give finer-grained bounds per request.
	LockTimeout time.Duration
	// TxnDeadline bounds the lifetime of every transaction: the watchdog
	// reaper aborts (with ErrTxnDeadline) any transaction still live that
	// long after initiation. 0 disables the watchdog unless individual
	// transactions set deadlines via TxnOptions.
	TxnDeadline time.Duration
	// MaxLive bounds transactions admitted past begin — the running set
	// that actually holds locks — independent of MaxTransactions, which
	// bounds initiated descriptors. When the gate is full, begin queues
	// (deadline-aware, see AdmitTimeout) and sheds with ErrOverload rather
	// than letting the lock table collapse under contention. 0 = no gate.
	MaxLive int
	// AdmitTimeout is how long begin may queue for an admission slot when
	// the MaxLive gate is full. The wait is additionally capped by the
	// transaction's deadline and context. 0 means shed immediately unless
	// a deadline or context bounds the wait.
	AdmitTimeout time.Duration
	// ReapTerminated drops transaction descriptors as soon as they
	// terminate, bounding memory in long runs. Status queries and waits on
	// reaped transactions return ErrUnknownTxn, so enable it only when
	// callers act solely on commit/abort return values (benchmarks do).
	ReapTerminated bool
	// VerdictRetention bounds how many decided distributed-commit groups
	// the manager remembers for idempotent verdict redelivery. Beyond it
	// the oldest entries are dropped, and a duplicate Decide for a dropped
	// group reports ErrUnknownGroup — which coordinators treat as already
	// delivered. 0 picks the default (DefaultVerdictRetention); negative
	// retains every verdict forever.
	VerdictRetention int
	// FS, when non-nil, replaces the OS filesystem for every durable file
	// (WAL, page store, double-write journal). Used by the fault-injection
	// and crash-simulation tests; nil means the real filesystem.
	FS faultfs.FS
}

// DefaultVerdictRetention is the verdicts-map bound applied when
// Config.VerdictRetention is zero.
const DefaultVerdictRetention = 4096

// truncatableLog is satisfied by logs that can drop their contents after a
// checkpoint.
type truncatableLog interface {
	Truncate() error
}

// forceableLog is satisfied by logs that can be fsynced on demand
// regardless of their commit-durability policy. The checkpoint uses it as
// a write-ahead barrier before touching the backend.
type forceableLog interface {
	ForceDurable() error
}

// dirtyKind records what a checkpoint must do for a changed object.
type dirtyKind uint8

const (
	dirtyUpsert dirtyKind = iota + 1
	dirtyDelete
)

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
	mu   sync.Mutex
	cond *sync.Cond

	txns    *htab.Map[*txn] // the chained hash table of TDs (§4.1)
	nextTID atomic.Uint64
	live    atomic.Int64 // non-terminated transactions, for MaxTransactions

	locks *lock.Manager
	deps  *dep.Graph
	waits *waitgraph.Graph
	cache *storage.Cache

	log wal.Appender
	// rec is the one log record the manager builds its appends in, and
	// tidBuf and ctr what a commit record's tid list and a delta record's
	// image point into: no wal.Appender keeps a record or its slices past
	// Append, so under mu they can be overwritten by the next append.
	rec    wal.Record
	tidBuf []xid.TID
	ctr    [8]byte

	backend storage.Backend
	// dirty holds the committed changes since the last checkpoint. It is nil
	// for a manager opened without Dir: its backend is NullBackend, so there
	// is nothing a checkpoint could write and no reason to remember what
	// changed. Written through markDirtyLocked only.
	dirty map[xid.OID]dirtyKind

	// Distributed-commit participant state, guarded by mu. prepared maps a
	// group id to its local members (runtime-prepared or recovered in
	// doubt); verdicts remembers decided groups so retransmitted votes and
	// verdicts stay idempotent, with verdictOrder the FIFO pruning order
	// bounding it to cfg.VerdictRetention; preparing gates any window in
	// which a vote's TPrepare flush or a verdict's TCommit flush released
	// mu (group-commit modes) — duplicate votes and verdicts wait it out.
	prepared     map[uint64][]xid.TID
	verdicts     map[uint64]bool
	verdictOrder []uint64
	preparing    map[uint64]chan struct{}

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
// durable database there and recovers committed state from the checkpoint
// and log; otherwise everything is in-memory.
func Open(cfg Config) (*Manager, error) {
	m := &Manager{
		cfg:          cfg,
		deps:         dep.New(),
		waits:        waitgraph.New(),
		cache:        storage.NewCache(),
		txns:         htab.New[*txn](0),
		prepared:     make(map[uint64][]xid.TID),
		verdicts:     make(map[uint64]bool),
		preparing:    make(map[uint64]chan struct{}),
		closeCh:      make(chan struct{}),
		watchdogDone: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.MaxLive > 0 {
		m.admit = make(chan struct{}, cfg.MaxLive)
	}
	onVictim := func(t xid.TID) {
		m.mu.Lock()
		if vt, ok := m.txns.Get(uint64(t)); ok {
			m.abortLocked(vt, fmt.Errorf("%w: chosen as deadlock victim: %w", ErrAborted, ErrDeadlock))
		}
		m.mu.Unlock()
	}
	if cfg.DisableDeadlockDetection {
		// The waits-for graph is still maintained for diagnostics, but no
		// victims are selected: blocked requests wait until granted,
		// cancelled by an explicit abort, or timed out by LockTimeout.
		onVictim = nil
	}
	m.locks = lock.New(m.waits, lock.Options{
		OnVictim:        onVictim,
		Shards:          cfg.LockShards,
		NoQueueFairness: cfg.NoQueueFairness,
		EagerClosure:    !cfg.LazyPermitClosure,
		WaitTimeout:     cfg.LockTimeout,
		NoDetection:     cfg.DisableDeadlockDetection,
	})

	if cfg.Dir == "" {
		m.log = wal.NewMem()
		if cfg.BatchedCommits || cfg.GroupCommit {
			// The in-memory log has no cohort protocol of its own, so
			// both group-commit flavours degrade to flush coalescing.
			m.log = wal.NewCoalescer(m.log, cfg.CommitWindow)
		}
		m.backend = storage.NullBackend{}
		return m, nil
	}

	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	ps, err := storage.OpenPageStore(filepath.Join(cfg.Dir, "pages"), storage.PageStoreOptions{FS: fsys})
	if err != nil {
		return nil, err
	}
	m.backend = storage.PageBackend{Store: ps}
	m.dirty = make(map[xid.OID]dirtyKind)
	var maxOID xid.OID
	if err := m.backend.LoadAll(func(oid xid.OID, data []byte) error {
		if !m.cache.Create(oid, data) {
			return fmt.Errorf("core: duplicate oid %v in backend", oid)
		}
		if oid > maxOID {
			maxOID = oid
		}
		return nil
	}); err != nil {
		ps.Close()
		return nil, err
	}
	// The log is a segmented chain (with any pre-segmentation wal.log as
	// its read-only base); recovery scans the segments in parallel across
	// cores and merges them sequentially in redo order.
	st, err := wal.RecoverDirFS(fsys, cfg.Dir, wal.RecoverOptions{})
	if err != nil {
		ps.Close()
		return nil, err
	}
	for oid, data := range st.Objects {
		m.cache.Install(oid, data)
		m.markDirtyLocked(oid, dirtyUpsert)
		if oid > maxOID {
			maxOID = oid
		}
	}
	for oid := range st.Deleted {
		m.cache.Delete(oid)
		m.markDirtyLocked(oid, dirtyDelete)
	}
	for oid, d := range st.Deltas {
		base, _ := m.cache.Read(oid) // missing base reads as zero
		m.cache.Install(oid, wal.EncodeCounter(wal.DecodeCounter(base)+d))
		m.markDirtyLocked(oid, dirtyUpsert)
		if oid > maxOID {
			maxOID = oid
		}
	}
	// An in-doubt transaction's created OIDs are in neither the backend nor
	// st.Objects (their images are withheld), so fold them into the
	// allocator's floor before SetNextOID or a new create could collide.
	for _, ops := range st.InDoubtOps {
		for _, op := range ops {
			if op.OID > maxOID {
				maxOID = op.OID
			}
		}
	}
	m.cache.SetNextOID(maxOID)
	m.nextTID.Store(uint64(st.MaxTID))
	if err := m.installInDoubt(st); err != nil {
		ps.Close()
		return nil, err
	}
	segOpts := wal.SegmentedOptions{
		SegmentBytes: cfg.WALSegmentBytes,
		Sync:         cfg.SyncCommits,
	}
	if cfg.GroupCommit {
		// The linger window belongs to the log's force leader; without
		// GroupCommit the commit protocol flushes while holding m.mu, and
		// sleeping there would serialize everyone.
		segOpts.Window = cfg.CommitWindow
	}
	log, err := wal.OpenSegmentedFS(fsys, cfg.Dir, segOpts)
	if err != nil {
		ps.Close()
		return nil, err
	}
	m.log = log
	if cfg.BatchedCommits && !cfg.GroupCommit {
		m.log = wal.NewCoalescer(m.log, cfg.CommitWindow)
	}
	return m, nil
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
	var live, committing []*txn
	m.txns.Range(func(_ uint64, t *txn) bool {
		live = append(live, t)
		return true
	})
	m.mu.Lock()
	for _, t := range live {
		switch st := t.st(); {
		case st == xid.StatusCommitting:
			committing = append(committing, t)
		case !st.Terminated():
			m.abortLocked(t, fmt.Errorf("%w: %w", ErrAborted, ErrClosed))
		}
	}
	m.mu.Unlock()
	// A committing group is past its commit record — a batched-commit
	// driver may be off the mutex forcing the log — so wait for the outcome
	// instead of yanking the log from under the flush.
	for _, t := range committing {
		<-t.termCh()
	}
	if m.watchdogOn.Load() {
		<-m.watchdogDone
	}
	err := m.log.Flush()
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	if cerr := m.backend.Close(); err == nil {
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

// StatusOf returns the status of t, or StatusAborted for unknown (reaped)
// transactions — a terminated descriptor may be dropped at any time.
// Mutex-free: the descriptor table is a concurrent hash table and status is
// an atomic field.
func (m *Manager) StatusOf(t xid.TID) xid.Status {
	if tx, ok := m.txns.Get(uint64(t)); ok {
		return tx.st()
	}
	return xid.StatusAborted
}

// TxnInfo describes one live (or unreaped terminated) transaction.
type TxnInfo struct {
	ID     xid.TID
	Parent xid.TID
	Status xid.Status
}

// Transactions lists every tracked transaction in ascending tid order —
// one of the §2.1 "primitives to query the status of transactions". The
// listing is a moment-in-time snapshot, not a consistent cut: it takes no
// manager-wide lock, so transactions that begin or terminate concurrently
// may or may not appear.
func (m *Manager) Transactions() []TxnInfo {
	var out []TxnInfo
	m.txns.Range(func(_ uint64, t *txn) bool {
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

// appendLocked appends r to the log through the manager's reused record.
// Caller holds m.mu, which is what makes the reuse safe.
func (m *Manager) appendLocked(r wal.Record) (uint64, error) {
	m.rec = r
	return m.log.Append(&m.rec)
}

// deltaImage renders delta as a KindDelta record's After image in the
// manager's scratch; valid until the next call. Caller holds m.mu.
func (m *Manager) deltaImage(delta int64) []byte {
	wal.PutCounter(m.ctr[:], uint64(delta))
	return m.ctr[:]
}

// markDirtyLocked records that a committed change to oid awaits the next
// checkpoint. Caller holds m.mu (or is Open, before the manager is shared).
func (m *Manager) markDirtyLocked(oid xid.OID, kind dirtyKind) {
	if m.dirty == nil {
		return // no backend to checkpoint into
	}
	m.dirty[oid] = kind
}

// lookup returns the descriptor for t.
func (m *Manager) lookup(t xid.TID) (*txn, error) {
	if tx, ok := m.txns.Get(uint64(t)); ok {
		return tx, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrUnknownTxn, t)
}

// Checkpoint persists all committed changes to the backend and truncates
// the log. The manager must be quiescent (no live transactions); it is the
// caller's job to arrange that.
//
// Truncation discards the only redo history; the TCheckpoint flush must
// dominate it (the PR 6 checkpoint-ahead-of-buffered-log bug, §11).
//
//asset:durable before=Truncate
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return ErrClosed
	}
	if n := m.live.Load(); n != 0 {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d live transactions", ErrNotQuiescent, n)
	}
	dirty := m.dirty
	if dirty != nil {
		m.dirty = make(map[xid.OID]dirtyKind)
	}
	// Holding m.mu keeps the manager quiescent: initiate is mutex-free, but
	// a freshly initiated transaction cannot touch any object until Begin,
	// and beginOne blocks on m.mu.
	defer m.mu.Unlock()
	// Write-ahead barrier: force the log durable — even under buffered
	// commits — before the first backend write. Segment rotation can leave
	// an old prefix of a buffered log durable on its own (the rotation
	// seal fsync); if the checkpoint then made the store durable through
	// later transactions whose records were still buffered, a crash would
	// replay that stale prefix over the newer store and resurrect old
	// images. Forcing first keeps the durable log at least as new as
	// anything the store can reflect.
	if fl, ok := m.log.(forceableLog); ok {
		if err := fl.ForceDurable(); err != nil {
			return err
		}
	}
	for oid, kind := range dirty {
		if kind == dirtyDelete {
			if err := m.backend.Delete(oid); err != nil {
				return err
			}
			continue
		}
		data, ok := m.cache.Read(oid)
		if !ok {
			if err := m.backend.Delete(oid); err != nil {
				return err
			}
			continue
		}
		if err := m.backend.Put(oid, data); err != nil {
			return err
		}
	}
	if err := m.backend.Sync(); err != nil {
		return err
	}
	if _, err := m.appendLocked(wal.Record{Type: wal.TCheckpoint}); err != nil {
		return err
	}
	if err := m.log.Flush(); err != nil {
		return err
	}
	if tl, ok := m.log.(truncatableLog); ok {
		return tl.Truncate()
	}
	return nil
}

// Cache exposes the shared object cache for read-only inspection by tools
// and tests.
func (m *Manager) Cache() *storage.Cache { return m.cache }

// LockManager exposes the lock manager for benchmarks and diagnostics.
func (m *Manager) LockManager() *lock.Manager { return m.locks }

// WaitGraph exposes the waits-for graph for diagnostics and tests (e.g.
// asserting that cancelled transactions leave no edges behind).
func (m *Manager) WaitGraph() *waitgraph.Graph { return m.waits }

// PhysicalForces reports the number of physical log forces when batched
// commits are enabled (0 otherwise); compare with Stats().LogForces, which
// counts commit flush *requests*.
func (m *Manager) PhysicalForces() uint64 {
	if c, ok := m.log.(*wal.Coalescer); ok {
		return c.Forces()
	}
	if s, ok := m.log.(*wal.SegmentedLog); ok {
		return s.Forces()
	}
	return 0
}
