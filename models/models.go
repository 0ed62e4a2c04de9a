// Package models builds the extended transaction models of §3 of the ASSET
// paper out of the transaction primitives, playing the role of the code an
// O++ compiler would generate:
//
//   - Atomic (§3.1.1) and AtomicRetry — flat ACID transactions;
//   - Distributed (§3.1.2) — parallel components with group commit;
//   - Contingent (§3.1.3) — at most one of an ordered list commits;
//   - Nested (§3.1.4) — subtransactions via permit + delegate;
//   - Split/Join (§3.1.5) — delegation-based transaction restructuring;
//   - Saga (§3.1.6) — a sequence of ACID steps with compensations;
//   - Cooperate (§3.2.1) — permit ping-pong under commit dependencies;
//   - Cursor stability (§3.2.2) — post-read write permits during scans.
package models

import (
	"errors"
	"fmt"

	asset "repro"
)

// Atomic runs fn as one flat transaction — the paper's §3.1.1 translation
// (initiate; begin; commit), with the body run on the caller, who would only
// wait for it. It returns the body's error if the transaction aborted, or
// the commit error.
func Atomic(m *asset.Manager, fn asset.TxnFunc) error {
	t, err := m.Initiate(fn)
	if err != nil {
		return err
	}
	if err := m.Execute(t); err != nil {
		return err
	}
	return m.Commit(t)
}

// AtomicRetry runs fn as an atomic transaction, retrying up to attempts
// times when the transaction is chosen as a deadlock victim. Application
// errors abort without retry.
func AtomicRetry(m *asset.Manager, attempts int, fn asset.TxnFunc) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		err = Atomic(m, fn)
		if err == nil {
			return nil
		}
		// Commit reports the abort reason; retry only deadlock victims
		// (whether the body saw ErrDeadlock or the victim callback struck).
		if errors.Is(err, asset.ErrDeadlock) {
			continue
		}
		return err
	}
	return fmt.Errorf("models: transaction failed after %d deadlock retries: %w", attempts, err)
}

// Distributed runs the component functions in parallel with pairwise group
// commit dependencies and commits them as one group (§3.1.2): either every
// component commits or none does. The last component runs on the caller,
// beside the others' goroutines. It returns nil when the group committed.
func Distributed(m *asset.Manager, fns ...asset.TxnFunc) error {
	if len(fns) == 0 {
		return nil
	}
	tids := make([]asset.TID, len(fns))
	for i, fn := range fns {
		t, err := m.Initiate(fn)
		if err != nil {
			abortAll(m, tids[:i])
			return err
		}
		tids[i] = t
	}
	// Pairwise GC dependencies make the set a single commit group.
	for i := 1; i < len(tids); i++ {
		if err := m.FormDependency(asset.GC, tids[i-1], tids[i]); err != nil {
			abortAll(m, tids)
			return err
		}
	}
	last := len(tids) - 1
	err := m.Begin(tids[:last]...)
	if err == nil {
		err = m.Execute(tids[last])
	}
	if err != nil {
		// A component that could not begin leaves the ones after it initiated
		// and the ones before it running with nobody to commit them; one that
		// aborted took the group with it, and these are no-ops.
		abortAll(m, tids)
		return err
	}
	// Committing any one component commits the whole group; the paper
	// commits t1 and lets the rest follow.
	return m.Commit(tids[0])
}

// abortAll aborts every listed transaction; one already gone stays gone.
func abortAll(m *asset.Manager, tids []asset.TID) {
	for _, t := range tids {
		m.Abort(t)
	}
}

// Contingent runs the alternatives in order until one commits (§3.1.3). It
// returns the index of the committed alternative, or -1 and the last error
// when every alternative aborted.
func Contingent(m *asset.Manager, fns ...asset.TxnFunc) (int, error) {
	var last error = asset.ErrAborted
	for i, fn := range fns {
		t, err := m.Initiate(fn)
		if err != nil {
			return -1, err
		}
		if err = m.Execute(t); err == nil {
			err = m.Commit(t)
		}
		if err == nil {
			return i, nil
		}
		last = err
	}
	return -1, last
}
