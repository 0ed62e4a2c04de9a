package rpc

import (
	"errors"
	"time"

	"repro/internal/core"
)

// Sentinels is the wire error table: the fixed, ordered list of sentinel
// errors whose errors.Is membership survives the network. The server
// encodes an error as a bitmask over this table (bit i+1 = sentinel i;
// bit 0 = "some error"), and the client-side WireError answers errors.Is
// against the same table — so errors.Is(err, asset.ErrAborted) works on
// both sides of the wire, including multi-sentinel identities like an
// abort caused by manager close.
//
// Order is wire ABI: append only, never reorder. A sentinel the engine no
// longer has is retired, not deleted: a placeholder nothing wraps holds its
// index, so every later entry keeps its bit.
var Sentinels = []error{
	core.ErrAborted,
	core.ErrAlreadyCommitted,
	core.ErrNotBegun,
	core.ErrAlreadyBegun,
	core.ErrUnknownTxn,
	errRetiredTxnLimit,
	core.ErrTerminated,
	core.ErrNoObject,
	core.ErrObjectExists,
	core.ErrClosed,
	core.ErrNotQuiescent,
	core.ErrOverload,
	core.ErrTxnDeadline,
	core.ErrRetryable,
	core.ErrDeadlock,
	errRetiredLockWait,
	core.ErrEscrow,
	core.ErrDependencyCycle,
	core.ErrLeaseExpired,
	core.ErrConnLost,
	core.ErrUnknownOutcome,
	core.ErrPrepared,
	core.ErrUnknownGroup,
}

// Retired sentinels: the transaction limit and the lock-wait timeout, whose
// settings are gone. Nothing produces them, so their bits are never set.
var (
	errRetiredTxnLimit = errors.New("rpc: retired sentinel (transaction limit)")
	errRetiredLockWait = errors.New("rpc: retired sentinel (lock wait timeout)")
)

// WireError is an error decoded from a response: the message text plus
// the sentinel membership bits, so errors.Is classification (and the
// Retryable policy built on it) is transparent to the network.
type WireError struct {
	Bits uint64
	Msg  string
	// RetryAfterHint is the server's requested backoff floor (from an
	// overload shed); zero when the server sent none.
	RetryAfterHint time.Duration
}

// Error returns the server-side message text.
func (e *WireError) Error() string {
	if e.Msg == "" {
		return "rpc: remote error"
	}
	return e.Msg
}

// Is reports sentinel membership recorded at encode time.
func (e *WireError) Is(target error) bool {
	for i, s := range Sentinels {
		if target == s && e.Bits&(1<<(uint(i)+1)) != 0 {
			return true
		}
	}
	return false
}

// EncodeError flattens err into wire bits + message. A nil err is 0.
func EncodeError(err error) (bits uint64, msg string) {
	if err == nil {
		return 0, ""
	}
	bits = 1
	for i, s := range Sentinels {
		if errors.Is(err, s) {
			bits |= 1 << (uint(i) + 1)
		}
	}
	return bits, err.Error()
}

// Err materializes the response's error, or nil on success.
func (r *Response) Err() error {
	if r.Bits == 0 {
		return nil
	}
	return &WireError{
		Bits:           r.Bits,
		Msg:            r.Msg,
		RetryAfterHint: time.Duration(r.RetryAfter) * time.Microsecond,
	}
}

// SetError records err (and an optional backoff hint) on the response.
func (r *Response) SetError(err error, retryAfter time.Duration) {
	r.Bits, r.Msg = EncodeError(err)
	if retryAfter > 0 {
		r.RetryAfter = uint64(retryAfter / time.Microsecond)
	}
}

// RetryAfterHint extracts a server backoff floor from err, if one rode
// along a WireError; the client retry engine plugs this into
// RunOptions.RetryAfter.
func RetryAfterHint(err error) time.Duration {
	var we *WireError
	if errors.As(err, &we) {
		return we.RetryAfterHint
	}
	return 0
}
