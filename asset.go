// Package asset is the public API of this reproduction of "ASSET: A System
// for Supporting Extended Transactions" (Biliris, Dar, Gehani, Jagadish,
// Ramamritham; SIGMOD 1994). It re-exports the transaction manager and its
// primitives; the extended transaction models of §3 of the paper live in
// the subpackages models (atomic, distributed, contingent, nested,
// split/join, sagas, cooperation, cursor stability) and workflow (§3.2.3).
//
// The primitives map onto the paper as follows (0/1 return codes become
// errors; see each method):
//
//	initiate(f)            m.Initiate(fn) / tx.Initiate(fn)
//	begin(t1..tn)          m.Begin(t1, ..., tn)
//	begin(t); wait(t)      m.Execute(t)
//	commit(t)              m.Commit(t)
//	wait(t)                m.Wait(t)
//	abort(t)               m.Abort(t)
//	self(), parent()       tx.ID(), tx.Parent()
//	delegate(ti,tj,obs)    m.Delegate(ti, tj, obs...)
//	permit(ti,tj,obs,ops)  m.Permit(ti, tj, obs, ops)
//	form_dependency        m.FormDependency(dep, ti, tj)
//
// A minimal atomic transaction (the paper's §3.1.1 translation):
//
//	m, _ := asset.Open(asset.Config{})
//	defer m.Close()
//	t, _ := m.Initiate(func(tx *asset.Tx) error {
//		oid, err := tx.Create([]byte("hello"))
//		_ = oid
//		return err
//	})
//	m.Begin(t)
//	if err := m.Commit(t); err != nil { /* aborted */ }
//
// Begin starts the body on a goroutine of its own. A beginner that would
// only wait for the body calls Execute instead, which runs it on the caller
// through the same gates and returns the abort reason if it failed; Begin is
// for bodies that must run beside their beginner (parallel components,
// races, cooperating partners, nested children, bodies that outlive the
// request that begins them).
package asset

import (
	"context"

	"repro/internal/core"
	"repro/internal/xid"
)

// Core types, re-exported.
type (
	// Manager is the ASSET transaction manager.
	Manager = core.Manager
	// Tx is the handle passed to every transaction body.
	Tx = core.Tx
	// TxnFunc is a transaction body; returning an error (or panicking)
	// aborts the transaction.
	TxnFunc = core.TxnFunc
	// Config configures Open.
	Config = core.Config
	// Stats are cumulative manager counters.
	Stats = core.Stats
	// TxnInfo describes one transaction in (*Manager).Transactions.
	TxnInfo = core.TxnInfo
	// TxnOptions carries per-transaction resilience settings (context
	// binding, deadline override) for (*Manager).InitiateWith.
	TxnOptions = core.TxnOptions
	// RunOptions configures the Run retry engine (attempt budget, backoff,
	// per-attempt deadline, extra retryable classification).
	RunOptions = core.RunOptions

	// TID identifies a transaction; the zero value is the null tid.
	TID = xid.TID
	// OID identifies a persistent object; the zero value is the null oid.
	OID = xid.OID
	// OpSet is a set of elementary operations (lock modes / permit scope).
	OpSet = xid.OpSet
	// Status is a transaction life-cycle state.
	Status = xid.Status
	// DepType enumerates form_dependency's dependency kinds.
	DepType = xid.DepType
)

// Identifier and operation constants.
const (
	// NilTID is the null transaction identifier.
	NilTID = xid.NilTID
	// NilOID is the null object identifier.
	NilOID = xid.NilOID
	// OpRead is the read operation.
	OpRead = xid.OpRead
	// OpWrite is the update operation.
	OpWrite = xid.OpWrite
	// OpIncr is the commutative counter-increment operation (§5 extension).
	OpIncr = xid.OpIncr
	// OpDecr is the commutative counter-decrement operation (§5 extension);
	// it commutes with OpIncr and itself but conflicts with reads and
	// writes. Bounded escrow accounting charges it against the lower bound.
	OpDecr = xid.OpDecr
	// OpAll is every operation (the permit wildcard).
	OpAll = xid.OpAll
)

// Dependency types accepted by (*Manager).FormDependency.
const (
	// CD is a commit dependency: if both commit, tj cannot commit before ti
	// commits; if ti aborts, tj may still commit.
	CD = xid.DepCD
	// AD is an abort dependency: if ti aborts, tj must abort.
	AD = xid.DepAD
	// GC is a group commit dependency: both ti and tj commit or neither.
	GC = xid.DepGC
	// BD is a begin-on-commit dependency (extension): tj may not begin
	// until ti commits; ti's abort aborts tj.
	BD = xid.DepBD
	// BAD is a begin-on-abort dependency (extension): tj may begin only
	// after ti aborts; ti's commit aborts tj. It is ACTA's compensation
	// pattern expressed as a dependency.
	BAD = xid.DepBAD
	// EXC is an exclusion dependency (extension): at most one of ti and tj
	// commits.
	EXC = xid.DepEXC
)

// Transaction statuses.
const (
	// StatusInitiated is a registered transaction that has not begun.
	StatusInitiated = xid.StatusInitiated
	// StatusRunning is a transaction executing its body.
	StatusRunning = xid.StatusRunning
	// StatusCompleted is a transaction whose body finished but which has
	// not terminated (locks held, changes volatile).
	StatusCompleted = xid.StatusCompleted
	// StatusCommitting is a transaction inside the commit protocol.
	StatusCommitting = xid.StatusCommitting
	// StatusCommitted is a successfully terminated transaction.
	StatusCommitted = xid.StatusCommitted
	// StatusAborting is a transaction inside the abort protocol.
	StatusAborting = xid.StatusAborting
	// StatusAborted is a transaction terminated by abort.
	StatusAborted = xid.StatusAborted
)

// Errors, re-exported from the core package.
var (
	// ErrAborted reports that the transaction aborted.
	ErrAborted = core.ErrAborted
	// ErrAlreadyCommitted reports an abort of a committed transaction.
	ErrAlreadyCommitted = core.ErrAlreadyCommitted
	// ErrNotBegun reports a commit of a never-begun transaction.
	ErrNotBegun = core.ErrNotBegun
	// ErrAlreadyBegun reports a begin of a non-initiated transaction.
	ErrAlreadyBegun = core.ErrAlreadyBegun
	// ErrUnknownTxn reports a tid that names no live transaction.
	ErrUnknownTxn = core.ErrUnknownTxn
	// ErrTooManyTxns reports transaction-limit exhaustion at initiate.
	ErrTooManyTxns = core.ErrTooManyTxns
	// ErrTerminated reports a primitive applied to a terminated target.
	ErrTerminated = core.ErrTerminated
	// ErrNoObject reports a data operation on a missing object.
	ErrNoObject = core.ErrNoObject
	// ErrObjectExists reports CreateAt on an existing oid.
	ErrObjectExists = core.ErrObjectExists
	// ErrClosed reports use of a closed manager.
	ErrClosed = core.ErrClosed
	// ErrDeadlock reports that the transaction was a deadlock victim.
	ErrDeadlock = core.ErrDeadlock
	// ErrLockTimeout reports a lock wait that exceeded Config.LockTimeout.
	ErrLockTimeout = core.ErrLockTimeout
	// ErrEscrow reports an Add whose delta can never be admitted within
	// the counter's declared escrow bounds.
	ErrEscrow = core.ErrEscrow
	// ErrDependencyCycle reports a rejected commit-blocking dependency
	// cycle.
	ErrDependencyCycle = core.ErrDependencyCycle
	// ErrOverload reports a transaction shed by admission control
	// (Config.MaxLive).
	ErrOverload = core.ErrOverload
	// ErrTxnDeadline reports an abort by the watchdog reaper
	// (Config.TxnDeadline or a TxnOptions override).
	ErrTxnDeadline = core.ErrTxnDeadline
	// ErrRetryable tags failures a fresh attempt may not hit again; Run
	// retries errors matching errors.Is(err, ErrRetryable) and the other
	// retryable classes (see Retryable).
	ErrRetryable = core.ErrRetryable
)

// Open creates a Manager. With cfg.Dir set the database is durable (WAL +
// page-store checkpoints, recovered at open); otherwise it is in-memory.
func Open(cfg Config) (*Manager, error) { return core.Open(cfg) }

// Run executes fn as a transaction on m and automatically retries
// retryable failures — deadlock victimhood, lock timeouts, watchdog reaps,
// admission sheds — with capped exponential backoff plus jitter under an
// attempt budget. It is the convenience form of (*Manager).Run; ctx bounds
// the whole engagement.
func Run(ctx context.Context, m *Manager, opts RunOptions, fn TxnFunc) error {
	return m.Run(ctx, opts, fn)
}

// Retryable reports whether err is worth a fresh attempt (the
// classification Run uses): deadlock victims, lock and transaction
// deadline expiries, admission sheds, and anything tagged ErrRetryable.
func Retryable(err error) bool { return core.Retryable(err) }
