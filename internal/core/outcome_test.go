package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/race"
	"repro/internal/xid"
)

// These tests pin what a by-tid primitive answers for a transaction that
// has terminated: its descriptor leaves the table at once, and its outcome
// answers from the manager's outcome ring until a tid a multiple of
// retention newer has terminated; after that the tid is unknown.

// TestOutcomeByTid: on a just-committed and a just-aborted tid, Wait,
// Commit, Abort, Begin, StatusOf and AbortReason give the answers a
// terminated descriptor in the table gave; once retention further
// transactions have terminated, each says ErrUnknownTxn at once (StatusOf
// its StatusAborted fallback, AbortReason nil). A transaction executed and
// then aborted from outside reports its abort reason to a later Commit.
func TestOutcomeByTid(t *testing.T) {
	m := newMem(t)

	committed := runTxn(t, m, noop)
	cause := errors.New("out of stock")
	aborted := initiated(t, m, func(*Tx) error { return cause })
	if err := m.Execute(aborted); !errors.Is(err, ErrAborted) || !errors.Is(err, cause) {
		t.Fatalf("Execute of a failing body = %v", err)
	}
	if txns := m.Transactions(); len(txns) != 0 {
		t.Fatalf("terminated transactions still tabled: %v", txns)
	}

	if err := m.Wait(committed); err != nil {
		t.Errorf("Wait(committed) = %v, want nil", err)
	}
	if err := m.Commit(committed); err != nil {
		t.Errorf("Commit(committed) = %v, want nil", err)
	}
	if err := m.Abort(committed); !errors.Is(err, ErrAlreadyCommitted) {
		t.Errorf("Abort(committed) = %v, want ErrAlreadyCommitted", err)
	}
	if err := m.Begin(committed); !errors.Is(err, ErrAlreadyBegun) {
		t.Errorf("Begin(committed) = %v, want ErrAlreadyBegun", err)
	}
	if st := m.StatusOf(committed); st != xid.StatusCommitted {
		t.Errorf("StatusOf(committed) = %v", st)
	}
	if err := m.AbortReason(committed); err != nil {
		t.Errorf("AbortReason(committed) = %v, want nil", err)
	}

	if err := m.Wait(aborted); !errors.Is(err, ErrAborted) || !errors.Is(err, cause) {
		t.Errorf("Wait(aborted) = %v, want ErrAborted wrapping the body's error", err)
	}
	if err := m.Commit(aborted); !errors.Is(err, ErrAborted) || !errors.Is(err, cause) {
		t.Errorf("Commit(aborted) = %v, want ErrAborted wrapping the body's error", err)
	}
	if err := m.Abort(aborted); err != nil {
		t.Errorf("Abort(aborted) = %v, want nil", err)
	}
	if err := m.Begin(aborted); !errors.Is(err, ErrAborted) {
		t.Errorf("Begin(aborted) = %v, want ErrAborted", err)
	}
	if st := m.StatusOf(aborted); st != xid.StatusAborted {
		t.Errorf("StatusOf(aborted) = %v", st)
	}
	if err := m.AbortReason(aborted); !errors.Is(err, cause) {
		t.Errorf("AbortReason(aborted) = %v, want the body's error", err)
	}

	// Executed, then aborted from outside with a cause of the caller's own:
	// the commit that follows hears that cause.
	id := initiated(t, m, noop)
	if err := m.Execute(id); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	expired := errors.New("lease expired")
	if err := m.AbortWith(id, expired); err != nil {
		t.Fatalf("AbortWith: %v", err)
	}
	if err := m.Commit(id); !errors.Is(err, ErrAborted) || !errors.Is(err, expired) || errors.Is(err, ErrUnknownTxn) {
		t.Errorf("Commit after AbortWith = %v, want ErrAborted wrapping the cause", err)
	}

	// retention later terminations overwrite every slot above.
	for i := 0; i < retention; i++ {
		runTxn(t, m, noop)
	}
	for _, id := range []xid.TID{committed, aborted, id} {
		waited := make(chan error, 1)
		go func() { waited <- m.Wait(id) }()
		select {
		case err := <-waited:
			if !errors.Is(err, ErrUnknownTxn) {
				t.Errorf("Wait(forgotten %v) = %v, want ErrUnknownTxn", id, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Wait(forgotten %v) blocks", id)
		}
		if err := m.Commit(id); !errors.Is(err, ErrUnknownTxn) {
			t.Errorf("Commit(forgotten %v) = %v, want ErrUnknownTxn", id, err)
		}
		if err := m.Abort(id); !errors.Is(err, ErrUnknownTxn) {
			t.Errorf("Abort(forgotten %v) = %v, want ErrUnknownTxn", id, err)
		}
		if st := m.StatusOf(id); st != xid.StatusAborted {
			t.Errorf("StatusOf(forgotten %v) = %v, want the StatusAborted fallback", id, st)
		}
		if _, known := m.LookupStatus(id); known {
			t.Errorf("LookupStatus(forgotten %v) claims to know it", id)
		}
		if err := m.AbortReason(id); err != nil {
			t.Errorf("AbortReason(forgotten %v) = %v, want nil", id, err)
		}
	}
}

// TestOutcomeRingKeepsNewerTid: a long-lived transaction that terminates
// after a younger one of its residue does not evict the younger one's
// outcome; the older tid is the one forgotten.
func TestOutcomeRingKeepsNewerTid(t *testing.T) {
	m := newMem(t)
	old := initiated(t, m, noop)
	var young xid.TID
	for i := 0; i < retention; i++ {
		young = runTxn(t, m, noop)
	}
	if young != old+retention {
		t.Fatalf("tids not issued in sequence: %v after %v", young, old)
	}
	if st, known := m.LookupStatus(old); st != xid.StatusInitiated || !known {
		t.Fatalf("LookupStatus(live %v) = %v, %v", old, st, known)
	}
	if err := m.Abort(old); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	if st, known := m.LookupStatus(young); st != xid.StatusCommitted || !known {
		t.Errorf("LookupStatus(young) = %v, %v, want committed, known", st, known)
	}
	if err := m.Wait(young); err != nil {
		t.Errorf("Wait(young) = %v, want nil", err)
	}
	if err := m.Commit(young); err != nil {
		t.Errorf("Commit(young) = %v, want nil", err)
	}
	if st, known := m.LookupStatus(old); st != xid.StatusAborted || known {
		t.Errorf("LookupStatus(old) = %v, %v, want the StatusAborted fallback, unknown", st, known)
	}
	if err := m.Wait(old); !errors.Is(err, ErrUnknownTxn) {
		t.Errorf("Wait(old) = %v, want ErrUnknownTxn", err)
	}
	if err := m.Abort(old); !errors.Is(err, ErrUnknownTxn) {
		t.Errorf("Abort(old) = %v, want ErrUnknownTxn", err)
	}
}

// TestOutcomeByTidRacesTerminations: StatusOf, AbortReason and Wait on
// tids that have just left the table, while other transactions keep
// terminating and overwriting other slots of the ring, read each one's own
// outcome. A transaction that a stalled worker kept live while the other
// worker ended retention younger ones is forgotten when it ends (its slot
// keeps the newer tid, see outcome), so a wrong answer is allowed only for
// a tid whose slot holds a newer tid of its residue. Run it under the race
// detector: the ring is written at every termination and read on every
// table miss.
func TestOutcomeByTidRacesTerminations(t *testing.T) {
	m := newMem(t)
	n := 20_000
	if race.Enabled {
		n = 4_000
	}
	cause := errors.New("boom")
	type ended struct {
		id      xid.TID
		aborted bool
	}
	// The buffer bounds how far the reader lags behind the workers' sends,
	// not how long a stalled worker keeps a tid between its initiation and
	// its send.
	out := make(chan ended, 64)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				abort := (i+w)%3 == 0
				id, err := m.Initiate(func(*Tx) error {
					if abort {
						return cause
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Execute(id); err == nil {
					err = m.Commit(id)
				}
				out <- ended{id, abort}
			}
		}(w)
	}
	go func() { wg.Wait(); close(out) }()
	// forgotten reports whether id's slot holds a newer tid of its residue:
	// the one way the ring may not know a terminated id.
	forgotten := func(id xid.TID) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.ended[id%retention].tid > id
	}
	// A failed check is reported once and the rest drained, so that the
	// workers never block on a full buffer.
	ctx := context.Background()
	failed := false
	for e := range out {
		if failed {
			continue
		}
		want, wantErr := xid.StatusCommitted, error(nil)
		if e.aborted {
			want, wantErr = xid.StatusAborted, cause
		}
		var bad error
		if st := m.StatusOf(e.id); st != want {
			bad = fmt.Errorf("StatusOf(%v) = %v, want %v", e.id, st, want)
		} else if err := m.AbortReason(e.id); !errors.Is(err, wantErr) {
			bad = fmt.Errorf("AbortReason(%v) = %v, want %v", e.id, err, wantErr)
		} else if err := m.WaitCtx(ctx, e.id); !errors.Is(err, wantErr) {
			bad = fmt.Errorf("Wait(%v) = %v, want %v", e.id, err, wantErr)
		}
		if bad != nil && !forgotten(e.id) {
			t.Error(bad)
			failed = true
		}
	}
}
