package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/xid"
)

// This file is the resilience layer: per-transaction deadlines enforced by
// a watchdog reaper, context binding (cancellation → clean abort), the
// MaxLive admission gate, and the Run retry engine. The paper's primitives
// may block indefinitely — liveness is delegated to deadlock detection —
// but a production facility needs bounded waiting, automatic restart of
// victims, and graceful degradation under overload.

// watchdogTick is how often the reaper scans for expired deadlines; it
// bounds how late past its deadline a transaction can be reaped.
const watchdogTick = 10 * time.Millisecond

// ensureWatchdog starts the reaper the first time a transaction carries a
// deadline. It never starts after Close.
func (m *Manager) ensureWatchdog() {
	m.watchdogOnce.Do(func() {
		m.watchdogOn.Store(true)
		//asset:goroutine joined-by=channel
		go m.watchdog()
	})
}

// watchdog is the reaper goroutine: it periodically scans the descriptor
// table and aborts any transaction past its deadline, with a reason
// wrapping ErrTxnDeadline (counted in Stats.Reaped). Committing
// transactions are exempt — they are past the commit point and their group
// resolves on its own.
func (m *Manager) watchdog() {
	defer close(m.watchdogDone)
	tick := time.NewTicker(watchdogTick)
	defer tick.Stop()
	for {
		select {
		case <-m.closeCh:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		var expired []xid.TID
		m.txns.Visit(func(id uint64, t *txn) bool {
			if d := t.deadline.Load(); d != 0 && now >= d && !t.st().Terminated() {
				expired = append(expired, xid.TID(id))
			}
			return true
		})
		for _, id := range expired {
			m.mu.Lock()
			// Looked up again: the transaction may have terminated and its
			// descriptor moved on since the scan.
			if t, ok := m.txns.Get(uint64(id)); ok {
				if st := t.st(); !st.Terminated() && st != xid.StatusCommitting {
					m.abortLocked(t, fmt.Errorf("%w: %w: reaped %v", ErrAborted, ErrTxnDeadline, id))
				}
			}
			m.mu.Unlock()
		}
	}
}

// watchCtx runs per transaction with a bound cancellable context: it
// converts the context's expiry into an abort, which wakes every wait the
// transaction is parked in — lock waits observe the same ctx directly,
// dependency/commit waits select on abortCh, and begin waits do both. It
// holds a reference on t, which it drops on its way out.
func (m *Manager) watchCtx(t *txn) {
	if m.await(t, &t.term, nil, nil, t.ctx.Done()) == 2 {
		m.mu.Lock()
		m.ctxAbortLocked(t, t.ctx)
		m.mu.Unlock()
	}
	m.unpin(t)
}

// ctxAbortLocked aborts t because a context governing it is done, unless
// it has already terminated or passed the commit point. Caller holds m.mu.
func (m *Manager) ctxAbortLocked(t *txn, ctx context.Context) {
	if st := t.st(); !st.Terminated() && st != xid.StatusCommitting {
		m.abortLocked(t, abortReason(fmt.Errorf("core: context done: %w", context.Cause(ctx))))
	}
}

// admitOne acquires a MaxLive admission slot for t, queueing
// deadline-aware: the wait is bounded by AdmitTimeout, the transaction's
// deadline, and ctx (the begin's), whichever is tightest. On overload it
// sheds — aborts t and returns ErrOverload. Called without m.mu.
func (m *Manager) admitOne(ctx context.Context, t *txn) error {
	select { // fast path: a slot is free
	case m.admit <- struct{}{}:
		t.admitted.Store(true)
		return nil
	default:
	}
	wait := m.cfg.AdmitTimeout
	tighten := func(at time.Time) {
		if rem := time.Until(at); wait == 0 || rem < wait {
			wait = rem
		}
	}
	if d := t.deadline.Load(); d != 0 {
		tighten(time.Unix(0, d))
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
		if cd, ok := ctx.Deadline(); ok {
			tighten(cd)
		}
	}
	if wait <= 0 {
		// No queueing budget (AdmitTimeout unset and no deadline headroom):
		// shed immediately rather than park an unbounded queue.
		return m.shed(t)
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case m.admit <- struct{}{}:
		t.admitted.Store(true)
		return nil
	case <-timer.C:
		return m.shed(t)
	case <-ctxDone:
		m.mu.Lock()
		m.ctxAbortLocked(t, ctx)
		m.mu.Unlock()
		return abortedErr(t.abErr)
	case <-t.abortCh(): // e.g. reaped by the watchdog while queued
		return abortedErr(t.abErr)
	case <-m.closeCh:
		return ErrClosed
	}
}

// shed rejects t at the admission gate: the transaction is aborted (its
// descriptor would otherwise linger initiated forever) and the caller gets
// ErrOverload, which Run classifies as retryable.
func (m *Manager) shed(t *txn) error {
	m.stats.overloads.Add(1)
	err := fmt.Errorf("%w (MaxLive=%d)", ErrOverload, m.cfg.MaxLive)
	m.abortTxn(t, abortReason(err))
	return err
}

// releaseSlot returns t's admission slot, if it holds one. Idempotent: the
// swap guarantees a slot deposited once is withdrawn exactly once even when
// an abort cascade and a failed begin race to release it.
func (m *Manager) releaseSlot(t *txn) {
	if t.admitted.Swap(false) {
		<-m.admit
	}
}

// RunOptions configures the Run retry engine. The zero value is usable:
// eight attempts with 1ms base backoff capped at 64ms.
type RunOptions struct {
	// MaxAttempts is the attempt budget (first try included); <=0 means 8.
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; it doubles per
	// attempt (full jitter) up to MaxBackoff. <=0 means 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff; <=0 means 64ms.
	MaxBackoff time.Duration
	// Retryable, when non-nil, extends the default classification: an
	// error is retried when Retryable(err) OR the package-level Retryable
	// reports true.
	Retryable func(error) bool
	// RetryAfter, when non-nil, extracts a server-supplied backoff floor
	// from an error (e.g. the retry-after hint an overloaded server sends
	// with ErrOverload). A positive return floors the next backoff sleep.
	RetryAfter func(error) time.Duration
}

// Retryable reports whether err is worth a fresh attempt: deadlock
// victims, transaction deadline expiries, admission sheds,
// networked-tier transport drops and lease expiries, and anything
// explicitly tagged ErrRetryable. Context expiry, logic errors, and
// unknown commit outcomes are terminal.
func Retryable(err error) bool {
	return err != nil && (errors.Is(err, ErrRetryable) ||
		errors.Is(err, ErrDeadlock) ||
		errors.Is(err, ErrOverload) ||
		errors.Is(err, ErrTxnDeadline) ||
		errors.Is(err, ErrLeaseExpired) ||
		errors.Is(err, ErrConnLost))
}

// Run executes fn as a transaction (initiate, execute, commit) and
// automatically retries retryable failures — deadlock victimhood,
// watchdog reaps, admission sheds — with capped exponential
// backoff plus jitter, under an attempt budget. ctx bounds the whole
// engagement: each attempt's transaction is bound to it, and backoff sleeps
// abort when it dies. Terminal errors (and ctx expiry) return immediately;
// exhausting the budget returns the last error wrapped with ErrRetryable.
func (m *Manager) Run(ctx context.Context, opts RunOptions, fn TxnFunc) error {
	return Retry(ctx, opts, func() { m.stats.retries.Add(1) }, func(ctx context.Context) error {
		return m.runOnce(ctx, fn)
	})
}

// Retry is the engine beneath Manager.Run — and beneath the networked
// client's Run, which retries whole sessions through the same policy. It
// drives attempt until success, a terminal error, ctx expiry, or the
// attempt budget runs dry, sleeping capped exponential backoff with full
// jitter between attempts; a RetryAfter hint (e.g. from an overloaded
// server) floors the sleep. onRetry, if non-nil, runs before each
// re-attempt (Manager.Run counts retry stats there).
func Retry(ctx context.Context, opts RunOptions, onRetry func(), attempt func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	base := opts.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	maxB := opts.MaxBackoff
	if maxB <= 0 {
		maxB = 64 * time.Millisecond
	}
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			if onRetry != nil {
				onRetry()
			}
			backoff := base << uint(min(try-1, 20))
			if backoff <= 0 || backoff > maxB {
				backoff = maxB
			}
			// Full jitter decorrelates retrying victims so they do not
			// re-collide in lockstep.
			backoff = backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
			if opts.RetryAfter != nil {
				// An explicit server hint floors the jittered sleep: backing
				// off less than the server asked would re-shed immediately.
				if floor := opts.RetryAfter(err); floor > backoff {
					backoff = floor
				}
			}
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return errors.Join(ctx.Err(), err)
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return errors.Join(cerr, err)
		}
		err = attempt(ctx)
		if err == nil {
			return nil
		}
		if !Retryable(err) && (opts.Retryable == nil || !opts.Retryable(err)) {
			return err
		}
	}
	return fmt.Errorf("core: giving up after %d attempts: %w", attempts, errors.Join(ErrRetryable, err))
}

// runOnce performs a single initiate/execute/commit attempt: Run only waits
// for the body, so the body runs here.
func (m *Manager) runOnce(ctx context.Context, fn TxnFunc) error {
	id, err := m.InitiateWith(fn, TxnOptions{Ctx: ctx})
	if err != nil {
		return err
	}
	if err = m.ExecuteCtx(ctx, id); err == nil {
		err = m.CommitCtx(ctx, id)
	}
	if errors.Is(err, ErrUnknownTxn) {
		// The transaction terminated before this driver asked for it, and
		// the outcome ring had already forgotten it (a tid a multiple of
		// its size newer had terminated). Nobody else commits a transaction
		// Run initiated, so it was aborted (context watcher, watchdog,
		// victim callback); its reason is lost with its outcome, the
		// context's own is still known.
		return errors.Join(ErrAborted, ctx.Err(), err)
	}
	return err
}
