package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/xid"
)

// mapLockErr converts lock-manager failures into the errors a transaction
// body sees. lock.ErrContext passes through unchanged: it wraps the
// context's own error (Canceled/DeadlineExceeded), which the abort-cause
// accounting and the Run retry classifier dispatch on.
func mapLockErr(err error) error {
	if errors.Is(err, lock.ErrCancelled) {
		return ErrAborted
	}
	return err
}

// dropStrayLocksLocked releases lock grants won by a transaction after its
// abort already ran. Lock acquisition happens outside m.mu, so a body
// goroutine can be granted a lock after abortLocked cancelled the
// transaction's waits and released its locks; nothing would ever release
// such a grant, and every later requester of the object would block
// forever. Every operation that re-checks status after acquiring a lock
// calls this on the re-check's failure path. Caller holds m.mu — the mutex
// serializes the release against an in-flight abort cascade, whose undo
// pass must complete before any of the transaction's locks become free.
func (m *Manager) dropStrayLocksLocked(t *txn) {
	if t.st() == xid.StatusAborting || t.st() == xid.StatusAborted {
		m.locks.ReleaseAll(t.id)
	}
}

// dropStrayLocks is the entry point for code paths that do not already
// hold m.mu (the lock-free Lock/Read operations).
func (m *Manager) dropStrayLocks(t *txn) {
	m.mu.Lock()
	m.dropStrayLocksLocked(t)
	m.mu.Unlock()
}

// Lock acquires the given lock mode on oid without performing an
// operation — the explicit form of the §4.2 read-lock/write-lock calls
// (the analogue of SELECT ... FOR UPDATE). Locks are held until the
// transaction terminates or delegates them.
//
// Lock and Read never touch the manager mutex on their fast path: the
// status checks are atomic reads and the lock table is sharded, so
// lock/read traffic of unrelated transactions shares nothing but its
// object shards. The mutex appears only on the failure path, to serialize
// stray-grant release with an in-flight abort.
func (tx *Tx) Lock(oid xid.OID, ops xid.OpSet) error {
	return tx.LockCtx(tx.t.lockCtx(), oid, ops)
}

// LockCtx is Lock bounded by an explicit per-request context (a deadline
// tighter than the transaction's, say). If ctx dies while the request is
// parked on a shard cond, the request is abandoned cleanly — no grant, no
// wait-graph edges — and the error wraps both lock.ErrContext and the
// context's error. The transaction itself stays alive: an abandoned
// acquisition is the caller's to handle (unlike cancellation of the
// transaction's bound context, which aborts it via the watcher).
func (tx *Tx) LockCtx(ctx context.Context, oid xid.OID, ops xid.OpSet) error {
	m, t := tx.m, tx.t
	if err := t.checkRunning(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = t.lockCtx()
	}
	if err := m.locks.LockAs(ctx, t.lk, t.id, oid, ops); err != nil {
		return mapLockErr(err)
	}
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocks(t)
		return err
	}
	return nil
}

// Read returns a copy of the object's contents after acquiring a read lock
// (§4.2 read: read-lock, S-latch, read, unlatch): AppendRead with no
// buffer, so the copy is the caller's to keep.
func (tx *Tx) Read(oid xid.OID) ([]byte, error) {
	return tx.AppendRead(nil, oid)
}

// AppendRead is Read into a buffer of the caller's: the object's contents
// are appended to dst (a nil dst gets a fresh slice) and the extended slice
// returned. Mutex-free like Lock. Error construction on the miss path is
// outlined into errNoObject so the fast path stays allocation-free.
func (tx *Tx) AppendRead(dst []byte, oid xid.OID) ([]byte, error) {
	m, t := tx.m, tx.t
	if err := t.checkRunning(); err != nil {
		return dst, err
	}
	if err := m.locks.LockAs(t.lockCtx(), t.lk, t.id, oid, xid.OpRead); err != nil {
		return dst, mapLockErr(err)
	}
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocks(t)
		return dst, err
	}
	data, ok := m.cache.AppendRead(dst, oid)
	if !ok {
		return dst, errNoObject(oid)
	}
	return data, nil
}

// errNoObject builds the miss error off the Read fast path. Outlined and
// kept out of inlining so its allocations stay in this cold helper, out
// of the fast path that calls it, which TestLocalTxnAllocBudget holds to
// its allocation budget.
//
//go:noinline
func errNoObject(oid xid.OID) error {
	return fmt.Errorf("%w: %v", ErrNoObject, oid)
}

// Write replaces the object's contents after acquiring a write lock. The
// before and after images are logged before the cache is updated (§4.2
// write: write-lock, X-latch, log before image, write, log after image,
// unlatch — this implementation logs both images in one record under the
// same X hold). Data of the object's length is written in place; nothing
// keeps the caller's slice, which a server hands in straight from a pooled
// frame buffer.
func (tx *Tx) Write(oid xid.OID, data []byte) error {
	m, t := tx.m, tx.t
	if err := m.locks.LockAs(t.lockCtx(), t.lk, t.id, oid, xid.OpWrite); err != nil {
		return mapLockErr(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocksLocked(t)
		return err
	}
	obj := m.cache.Object(oid)
	if obj == nil {
		return fmt.Errorf("%w: %v", ErrNoObject, oid)
	}
	obj.Lat.Lock()
	defer obj.Lat.Unlock()
	return m.modifyLocked(t, oid, obj, data)
}

// Update applies fn to the object's current contents and writes the result
// back, all under the transaction's write lock, as Write would. fn gets a
// copy of its own, which it may change, keep and return.
func (tx *Tx) Update(oid xid.OID, fn func([]byte) []byte) error {
	m, t := tx.m, tx.t
	if err := m.locks.LockAs(t.lockCtx(), t.lk, t.id, oid, xid.OpWrite); err != nil {
		return mapLockErr(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocksLocked(t)
		return err
	}
	obj := m.cache.Object(oid)
	if obj == nil {
		return fmt.Errorf("%w: %v", ErrNoObject, oid)
	}
	obj.Lat.Lock()
	defer obj.Lat.Unlock()
	return m.modifyLocked(t, oid, obj, fn(append([]byte(nil), obj.Data()...)))
}

// modifyLocked logs a modify of obj to data and applies it. The log
// record carries only the after image, which is all redo reads; the
// before image lives in the undo record, which abort reads. When data has
// the object's length, the old bytes are copied into t's image buffer for
// the undo record, and data overwrites the object's buffer in place: a
// write allocates nothing once the descriptor's buffer has grown.
// Otherwise the object gets a copy of data, and the replaced buffer goes
// to the undo record, since nothing else holds it (see addInPlace).
// Nothing keeps data itself. Caller holds m.mu and obj.Lat in X mode.
func (m *Manager) modifyLocked(t *txn, oid xid.OID, obj *storage.Object, data []byte) error {
	cur := obj.Data()
	if len(data) == len(cur) {
		seq, err := m.appendLocked(&wal.Record{Type: wal.TUpdate, TID: t.id, OID: oid, Kind: wal.KindModify, After: data})
		if err != nil {
			return err
		}
		t.undo = append(t.undo, undoRec{seq: seq, oid: oid, kind: wal.KindModify, kept: true, before: t.keepImage(cur)})
		copy(cur, data)
		return nil
	}
	data = append([]byte(nil), data...)
	seq, err := m.appendLocked(&wal.Record{Type: wal.TUpdate, TID: t.id, OID: oid, Kind: wal.KindModify, After: data})
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{seq: seq, oid: oid, kind: wal.KindModify, before: cur})
	obj.SetData(data)
	return nil
}

// Create allocates a fresh object holding data and returns its oid. The
// creator implicitly holds a write lock on the new object until it
// terminates, so the object is invisible to other transactions (they block)
// until commit.
func (tx *Tx) Create(data []byte) (xid.OID, error) {
	oid := tx.m.cache.AllocOID()
	if err := tx.CreateAt(oid, data); err != nil {
		return xid.NilOID, err
	}
	return oid, nil
}

// CreateAt creates an object under a caller-chosen oid. It fails with
// ErrObjectExists if the oid is taken.
func (tx *Tx) CreateAt(oid xid.OID, data []byte) error {
	m, t := tx.m, tx.t
	if oid.IsNil() {
		return fmt.Errorf("core: CreateAt with null oid")
	}
	m.cache.SetNextOID(oid) // keep the allocator ahead of explicit oids
	if err := m.locks.LockAs(t.lockCtx(), t.lk, t.id, oid, xid.OpWrite); err != nil {
		return mapLockErr(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocksLocked(t)
		return err
	}
	data = append([]byte(nil), data...) // as in Write: keep nothing of the caller's
	if !m.cache.Create(oid, data) {
		return fmt.Errorf("%w: %v", ErrObjectExists, oid)
	}
	seq, err := m.appendLocked(&wal.Record{Type: wal.TUpdate, TID: t.id, OID: oid, Kind: wal.KindCreate, After: data})
	if err != nil {
		m.cache.Delete(oid)
		return err
	}
	t.undo = append(t.undo, undoRec{seq: seq, oid: oid, kind: wal.KindCreate})
	return nil
}

// Add atomically adds a signed delta (mod 2^64) to an 8-byte counter
// object under a commutative increment/decrement lock. The commuting
// modes let concurrent transactions update the same hot counter without
// conflicting — the §5 "future work" extension of the paper
// (semantics-based concurrency: commutative class operations). Undo is
// logical (the inverse delta is applied), so an abort does not clobber
// concurrent deltas; the WAL carries the delta itself, never a physical
// before-image, which concurrent deltas would make stale.
//
// When the counter has declared escrow bounds (DeclareEscrow), the delta
// is first reserved against them: the request blocks while other in-flight
// reservations exhaust the headroom and fails with ErrEscrow when the
// bounds can never admit it.
func (tx *Tx) Add(oid xid.OID, delta int64) error {
	return tx.AddCtx(nil, oid, delta)
}

// AddCtx is Add bounded by an explicit per-request context (nil uses the
// transaction's own), with LockCtx's abandonment semantics: if ctx dies
// while the reservation is parked, no mode is granted, nothing is
// reserved, and the error wraps lock.ErrContext plus the context's error.
func (tx *Tx) AddCtx(ctx context.Context, oid xid.OID, delta int64) error {
	m, t := tx.m, tx.t
	if ctx == nil {
		ctx = t.lockCtx()
	}
	if err := m.locks.EscrowReserveAs(ctx, t.lk, t.id, oid, delta); err != nil {
		return mapLockErr(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Failure past this point must back the reservation out: its delta
	// never reaches the cache, so folding it at commit would diverge the
	// escrow ledger from the stored counter.
	if err := t.checkRunning(); err != nil {
		m.locks.EscrowUnreserve(t.id, oid, delta)
		m.dropStrayLocksLocked(t)
		return err
	}
	obj := m.cache.Object(oid)
	if obj == nil {
		m.locks.EscrowUnreserve(t.id, oid, delta)
		return fmt.Errorf("%w: %v", ErrNoObject, oid)
	}
	obj.Lat.Lock()
	defer obj.Lat.Unlock()
	if len(obj.Data()) != 8 {
		m.locks.EscrowUnreserve(t.id, oid, delta)
		return fmt.Errorf("core: Add on %v: object is %d bytes, want an 8-byte counter", oid, len(obj.Data()))
	}
	seq, err := m.appendLocked(&wal.Record{Type: wal.TUpdate, TID: t.id, OID: oid, Kind: wal.KindDelta, After: m.deltaImage(delta)})
	if err != nil {
		m.locks.EscrowUnreserve(t.id, oid, delta)
		return err
	}
	t.undo = append(t.undo, undoRec{seq: seq, oid: oid, kind: wal.KindDelta, delta: delta})
	addInPlace(obj, delta)
	return nil
}

// addInPlace adds delta to the counter held by obj, in the object's own
// buffer. An object's buffer is referenced by the object alone: every path
// that installs one (a length-changing Write or Update, CreateAt, undo,
// redo, recovery) hands over a slice nobody else keeps, a replaced buffer
// belongs to the undo record that took it, which nobody updates, and the
// before image of a write made in place is a copy in the writer's
// descriptor. So the counter can change where it stands instead of in a
// fresh 8 bytes per Add, as a same-length Write does. (A buffer that is not
// a full counter image — only abort's logical undo can meet one — is
// replaced as before.) Caller holds obj.Lat in X mode.
func addInPlace(obj *storage.Object, delta int64) {
	b := obj.Data()
	v := wal.DecodeCounter(b) + uint64(delta)
	if len(b) != 8 {
		obj.SetData(wal.EncodeCounter(v))
		return
	}
	wal.PutCounter(b, v)
}

// DeclareEscrow declares inclusive bounds [lo, hi] for an 8-byte counter:
// from now on every Add on it is escrow-checked, so the committed value
// can never leave the bounds no matter how concurrent deltas resolve. The
// current committed value seeds the lock manager's ledger; the caller must
// hold a write lock on the object (the creator's implicit lock after
// Create suffices), which keeps escrow traffic out until declaration
// lands. Bounds are runtime state: re-declare after reopening a store.
// Deleting the object (or rolling back its creation) clears them.
func (tx *Tx) DeclareEscrow(oid xid.OID, lo, hi uint64) error {
	m, t := tx.m, tx.t
	if err := m.locks.LockAs(t.lockCtx(), t.lk, t.id, oid, xid.OpWrite); err != nil {
		return mapLockErr(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocksLocked(t)
		return err
	}
	data, ok := m.cache.Read(oid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoObject, oid)
	}
	if len(data) != 8 {
		return fmt.Errorf("core: DeclareEscrow on %v: object is %d bytes, want an 8-byte counter", oid, len(data))
	}
	return m.locks.DeclareEscrow(oid, wal.DecodeCounter(data), lo, hi)
}

// ReadCounter reads an 8-byte counter object under a read lock.
func (tx *Tx) ReadCounter(oid xid.OID) (uint64, error) {
	var buf [8]byte
	b, err := tx.AppendRead(buf[:0], oid)
	if err != nil {
		return 0, err
	}
	return wal.DecodeCounter(b), nil
}

// Delete removes the object after acquiring a write lock. An abort
// reinstates it.
func (tx *Tx) Delete(oid xid.OID) error {
	m, t := tx.m, tx.t
	if err := m.locks.LockAs(t.lockCtx(), t.lk, t.id, oid, xid.OpWrite); err != nil {
		return mapLockErr(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := t.checkRunning(); err != nil {
		m.dropStrayLocksLocked(t)
		return err
	}
	before, ok := m.cache.Read(oid)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoObject, oid)
	}
	seq, err := m.appendLocked(&wal.Record{Type: wal.TUpdate, TID: t.id, OID: oid, Kind: wal.KindDelete})
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{seq: seq, oid: oid, kind: wal.KindDelete, before: before})
	m.cache.Delete(oid)
	// Escrow bounds do not survive the object: deletion clears the
	// declaration (an aborted delete reinstates the object unbounded).
	m.locks.DropEscrow(oid)
	return nil
}
