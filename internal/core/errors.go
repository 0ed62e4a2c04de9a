package core

import (
	"errors"

	"repro/internal/dep"
	"repro/internal/lock"
)

// Sentinel errors. The paper's primitives return 0/1; this implementation
// returns nil for 1 and one of these for 0, so callers can distinguish the
// reasons.
var (
	// ErrAborted is returned by commit/wait (and by data operations) when
	// the transaction is aborted.
	ErrAborted = errors.New("core: transaction aborted")
	// ErrAlreadyCommitted is returned by abort when the transaction has
	// already committed (abort returns 0 in the paper).
	ErrAlreadyCommitted = errors.New("core: transaction already committed")
	// ErrNotBegun is returned by commit on an initiated transaction that
	// was never begun.
	ErrNotBegun = errors.New("core: transaction initiated but never begun")
	// ErrAlreadyBegun is returned by begin on a transaction that is not in
	// the initiated state.
	ErrAlreadyBegun = errors.New("core: transaction already begun")
	// ErrUnknownTxn is returned when a tid names no transaction the
	// manager knows: never issued, or terminated and forgotten by the
	// outcome ring (see outcome).
	ErrUnknownTxn = errors.New("core: unknown transaction")
	// ErrTerminated is returned when a primitive requires a live
	// transaction but the target has terminated.
	ErrTerminated = errors.New("core: transaction already terminated")
	// ErrNoObject is returned by data operations on a missing object.
	ErrNoObject = errors.New("core: no such object")
	// ErrObjectExists is returned by CreateAt on an existing oid.
	ErrObjectExists = errors.New("core: object already exists")
	// ErrClosed is returned after the manager is closed.
	ErrClosed = errors.New("core: manager closed")
	// ErrNotQuiescent is returned by Checkpoint while transactions are
	// active.
	ErrNotQuiescent = errors.New("core: checkpoint requires a quiescent manager")
	// ErrOverload is returned by begin when admission control
	// (Config.MaxLive) sheds the transaction: the gate was full and the
	// request could not be queued within its deadline. The transaction is
	// aborted; re-initiate to retry (Run does this automatically).
	ErrOverload = errors.New("core: overloaded, transaction shed by admission control")
	// ErrTxnDeadline is the abort reason used by the watchdog reaper when a
	// transaction outlives Config.TxnDeadline.
	ErrTxnDeadline = errors.New("core: transaction deadline exceeded")
	// ErrRetryable classifies failures that a fresh attempt may not hit
	// again (deadlock victims, overload sheds, reaped deadlines). Run
	// retries errors matching errors.Is(err, ErrRetryable) — see
	// Retryable — and wraps its own give-up error with it so callers can
	// distinguish "lost every race" from terminal failures.
	ErrRetryable = errors.New("core: retryable transaction failure")
	// ErrLeaseExpired is returned by the networked tier when a session's
	// lease lapsed (heartbeats stopped reaching the server) and its live
	// transactions were handed to the watchdog for abort. Retryable: a
	// fresh session can re-run the transaction body.
	ErrLeaseExpired = errors.New("core: session lease expired")
	// ErrConnLost classifies transport failures (dial refused, connection
	// reset, read/write on a dead conn) in the networked tier. Retryable:
	// the client reconnects and either resumes or re-attempts.
	ErrConnLost = errors.New("core: connection lost")
	// ErrUnknownOutcome is returned when a commit was sent but its verdict
	// can no longer be learned — the server restarted (epoch changed)
	// before the client heard the decision, so the transaction may have
	// durably committed or aborted. Terminal, NOT retryable: blindly
	// re-running could double-apply; the caller must reconcile from
	// durable state.
	ErrUnknownOutcome = errors.New("core: transaction outcome unknown")
	// ErrPrepared is returned when an operation would unilaterally decide
	// the fate of a transaction that has voted in a distributed commit:
	// once prepared, only the coordinator's verdict (Decide) may terminate
	// it — explicit aborts, lease expiry, and the watchdog all bounce.
	ErrPrepared = errors.New("core: transaction prepared, awaiting coordinator verdict")
	// ErrUnknownGroup is returned by Decide when the group id names no
	// prepared transactions and no recorded verdict on this manager.
	ErrUnknownGroup = errors.New("core: unknown distributed commit group")

	// ErrDeadlock is returned to deadlock victims (re-exported from the
	// lock manager so callers need only this package).
	ErrDeadlock = lock.ErrDeadlock
	// ErrEscrow is returned by Add on a bounds-declared counter when the
	// delta can never be admitted within the declared escrow bounds
	// (re-exported from the lock manager).
	ErrEscrow = lock.ErrEscrow
	// ErrDependencyCycle is returned by FormDependency when the dependency
	// would deadlock the commit protocol.
	ErrDependencyCycle = dep.ErrCycle
)
