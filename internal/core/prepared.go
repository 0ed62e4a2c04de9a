package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/wal"
	"repro/internal/xid"
)

// This file is the participant half of ASSET's distributed group commit
// (package txcoord holds the coordinator half). A participant prepares the
// GC closure of the transactions named by the coordinator: it drives them
// to completion, resolves every blocking dependency the way the local
// commit protocol would, forces a TPrepare record, and moves the group to
// StatusPrepared — the yes vote. From that point the group's fate belongs
// to the coordinator alone: Decide applies the verdict, and a crash leaves
// the group in doubt in the WAL, to be resolved at recovery by querying
// the coordinator (the multi-shot "always learn the verdict" property).

// PrepareCtx votes on committing the GC closure of the given transactions
// as part of distributed group gid. A nil return is the yes vote: every
// member is completed, free of blocking dependencies, durably marked
// prepared, and untouchable by unilateral aborts. Any error is the no
// vote, and the local group (minus members owned by other groups) is
// aborted so the coordinator's abort decision has nothing left to do
// here. Retransmits are idempotent: preparing an already-prepared gid
// returns nil.
//
// Closing the preparing gate is the yes vote's escape point: parked
// duplicate votes (and Decide) proceed on it, so the TPrepare force must
// dominate the close on every successful path (ack-after-force, §14).
//
//asset:durable before=close
func (m *Manager) PrepareCtx(ctx context.Context, gid uint64, ids ...xid.TID) error {
	if gid == 0 {
		return fmt.Errorf("core: prepare: zero group id")
	}
	if len(ids) == 0 {
		return fmt.Errorf("core: prepare: empty transaction list")
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// The group lives in this driver's frame, as a commit driver's does: it
	// is used again after the force has released the mutex.
	var groupBuf [4]*txn
	m.mu.Lock()
	for {
		// Idempotent paths first: the gid is already prepared here (a
		// retransmitted vote request), mid-prepare on another driver, or
		// already decided.
		if _, ok := m.prepared[gid]; ok {
			m.mu.Unlock()
			return nil
		}
		if m.awaitGateLocked(gid) {
			continue
		}
		if v, ok := m.verdicts[gid]; ok {
			m.mu.Unlock()
			if v {
				return fmt.Errorf("%w: group %d already committed", ErrAlreadyCommitted, gid)
			}
			return fmt.Errorf("%w: group %d already aborted", ErrAborted, gid)
		}
		if done != nil && ctx.Err() != nil {
			// The coordinator gave up: vote no and release the group.
			err := abortReason(fmt.Errorf("core: prepare cancelled: %w", context.Cause(ctx)))
			m.abortRootsLocked(ids, err)
			m.mu.Unlock()
			return err
		}
		for _, id := range ids {
			if _, _, err := m.lookup(id); err != nil {
				m.abortRootsLocked(ids, fmt.Errorf("%w: prepare of unknown member %v", ErrAborted, id))
				m.mu.Unlock()
				return err
			}
		}

		group, waitFor, err := m.examineGroupLocked(ids, groupBuf[:0], true)
		if err != nil {
			m.mu.Unlock()
			return err
		}
		if waitFor.t != nil {
			// A cancelled wait is the no vote of the next pass.
			m.awaitObstacleLocked(group, waitFor, nil, done, "prepare")
			continue
		}

		// All clear: this is the participant's commit point for the vote.
		// The TPrepare record must be durable before the yes vote escapes,
		// and the statuses must flip before the mutex is released around
		// the force — every other path treats prepared as untouchable. The
		// preparing gate parks duplicate votes and Decide until the force
		// resolves.
		tids := m.tidListLocked()
		for _, member := range group {
			tids = append(tids, member.id)
			member.setSt(xid.StatusPrepared)
		}
		m.preparing[gid] = nil
		if _, err := m.appendLocked(&wal.Record{Type: wal.TPrepare, GID: gid, TIDs: tids}); err != nil {
			err = fmt.Errorf("core: prepare record append failed: %w", err)
			m.failPrepareLocked(gid, tids, group, err)
			m.mu.Unlock()
			return err
		}
		if err := m.forceLocked(); err != nil {
			err = fmt.Errorf("core: prepare force failed: %w", err)
			m.failPrepareLocked(gid, tids, group, err)
			m.mu.Unlock()
			return err
		}
		m.stats.logForces.Add(1)
		m.prepared[gid] = tids
		// releaseGateLocked, written out so that the checker sees the close
		// follow the force.
		if gate := m.preparing[gid]; gate != nil {
			close(gate)
		}
		delete(m.preparing, gid)
		m.mu.Unlock()
		return nil
	}
}

// awaitGateLocked parks the caller while a vote or verdict for gid is in
// its window — its record appended, its force under way with the mutex
// released — and reports whether it did; the caller then looks at gid
// afresh. The window's entry in preparing carries no channel until a
// caller has to wait, so an uncontended vote or verdict makes none. The
// window is bounded by one log force, so the wait watches nothing else: a
// possibly-done ctx would only relock and spin until the gate closed
// anyway. Caller holds m.mu, released while parked.
func (m *Manager) awaitGateLocked(gid uint64) bool {
	gate, ok := m.preparing[gid]
	if !ok {
		return false
	}
	if gate == nil {
		gate = make(chan struct{})
		m.preparing[gid] = gate
	}
	m.mu.Unlock()
	<-gate
	m.mu.Lock()
	return true
}

// releaseGateLocked ends gid's window and wakes whoever waits on it.
// Caller holds m.mu.
func (m *Manager) releaseGateLocked(gid uint64) {
	if gate := m.preparing[gid]; gate != nil {
		close(gate)
	}
	delete(m.preparing, gid)
}

// refuseVoteLocked is the no vote for a member that a local commit would
// wait out but a vote cannot: one committing or committed — the group can
// no longer make the two-sided promise — or one prepared under another
// group (same-gid retransmits were handled before the examine), which is
// left untouched. The roots are aborted as far as they still can be.
// Caller holds m.mu.
//
//go:noinline
func (m *Manager) refuseVoteLocked(roots []xid.TID, member xid.TID, st xid.Status) error {
	if st == xid.StatusPrepared {
		m.abortRootsLocked(roots, fmt.Errorf("%w: group member %v prepared under another group", ErrAborted, member))
		return fmt.Errorf("%w: member %v", ErrPrepared, member)
	}
	m.abortRootsLocked(roots, fmt.Errorf("%w: group member %v already committing", ErrAborted, member))
	return fmt.Errorf("%w: member %v", ErrAlreadyCommitted, member)
}

// failPrepareLocked unwinds a prepare whose record could not be made
// durable: the statuses already turned prepared, so the abort must be the
// verdict-grade one. Caller holds m.mu.
func (m *Manager) failPrepareLocked(gid uint64, tids []xid.TID, group []*txn, cause error) {
	m.releaseGateLocked(gid)
	m.freeTIDListLocked(tids)
	m.abortGroupLocked(group, abortReason(cause), true)
}

// maxSpareTIDLists bounds the decided groups' tid lists kept for reuse.
const maxSpareTIDLists = 16

// tidListLocked returns an empty tid list for a group about to prepare:
// a decided group's, when one is spare. Caller holds m.mu.
func (m *Manager) tidListLocked() []xid.TID {
	n := len(m.spareTIDLists)
	if n == 0 {
		return nil
	}
	l := m.spareTIDLists[n-1]
	m.spareTIDLists[n-1] = nil
	m.spareTIDLists = m.spareTIDLists[:n-1]
	return l
}

// freeTIDListLocked keeps the tid list of a group that is no longer
// prepared for the next vote. Caller holds m.mu.
func (m *Manager) freeTIDListLocked(l []xid.TID) {
	if len(m.spareTIDLists) < maxSpareTIDLists {
		m.spareTIDLists = append(m.spareTIDLists, l[:0])
	}
}

// Decide applies the coordinator's verdict for group gid: commit installs
// the group atomically (including updates withheld since crash recovery),
// abort rolls it back. Duplicated and reordered deliveries are idempotent —
// a verdict that matches the recorded one returns nil. Deciding a group
// this manager never prepared returns ErrUnknownGroup.
func (m *Manager) Decide(gid uint64, commit bool) error {
	m.mu.Lock()
	for m.awaitGateLocked(gid) {
		// A vote or another verdict is mid-flush; this verdict applies to
		// its outcome.
	}
	tids, ok := m.prepared[gid]
	if !ok {
		v, decided := m.verdicts[gid]
		m.mu.Unlock()
		if decided {
			if v == commit {
				return nil
			}
			if v {
				return fmt.Errorf("%w: group %d already committed", ErrAlreadyCommitted, gid)
			}
			return fmt.Errorf("%w: group %d already aborted", ErrAborted, gid)
		}
		return fmt.Errorf("%w: %d", ErrUnknownGroup, gid)
	}
	// Gate the verdict window: commitLocked releases mu around the log
	// force while m.prepared[gid] is still populated, and a duplicate
	// Decide arriving then (a coordinator delivery retry racing a
	// restarted participant's ResolveInDoubt) must not re-append the
	// commit record or re-run the commit epilogue. Duplicates — and
	// retransmitted votes — park on the gate and land on the idempotent
	// verdicts path once it closes.
	m.preparing[gid] = nil
	var groupBuf [4]*txn
	group := groupBuf[:0]
	for _, id := range tids {
		if t, ok := m.txns.Get(uint64(id)); ok {
			group = append(group, t)
		}
	}
	var err error
	if commit {
		// The vote resolved every obstacle, so the group goes straight to
		// its commit record. On a log failure it stays prepared, still in
		// doubt, so a later retry or restart can finish the job; it is
		// never half-committed.
		if err = m.commitLocked(group); err != nil {
			for _, member := range group {
				member.setSt(xid.StatusPrepared)
			}
		}
	} else {
		m.abortGroupLocked(group, fmt.Errorf("%w: coordinator verdict: group %d aborted", ErrAborted, gid), true)
	}
	if err == nil {
		m.recordVerdictLocked(gid, commit)
		delete(m.prepared, gid)
		m.freeTIDListLocked(tids)
	}
	m.releaseGateLocked(gid)
	m.mu.Unlock()
	return err
}

// recordVerdictLocked remembers a decided group for idempotent verdict
// redelivery, pruning the oldest entries beyond the retention cap. A
// duplicate Decide for a pruned group reports ErrUnknownGroup, which
// coordinators treat as already delivered (nothing left to decide here).
// Caller holds m.mu.
func (m *Manager) recordVerdictLocked(gid uint64, commit bool) {
	if _, ok := m.verdicts[gid]; !ok {
		m.verdictOrder = append(m.verdictOrder, gid)
	}
	m.verdicts[gid] = commit
	for len(m.verdictOrder) > retention {
		delete(m.verdicts, m.verdictOrder[0])
		m.verdictOrder = m.verdictOrder[1:]
	}
}

// installRedoLocked installs one withheld update of a recovered in-doubt
// transaction on its commit verdict. Caller holds m.mu.
func (m *Manager) installRedoLocked(op wal.RedoOp) {
	switch op.Kind {
	case wal.KindDelete:
		m.cache.Delete(op.OID)
	case wal.KindDelta:
		base, _ := m.cache.Read(op.OID) // missing base reads as zero
		m.cache.Install(op.OID, wal.EncodeCounter(wal.DecodeCounter(base)+wal.DecodeCounter(op.After)))
	default: // modify/create
		m.cache.Install(op.OID, op.After)
	}
}

// InDoubt lists the distributed groups whose verdict this manager is
// still waiting for — both runtime-prepared groups and groups recovered
// in doubt from the WAL — in ascending gid order. The recovery driver
// resolves each by asking the coordinator and calling Decide.
func (m *Manager) InDoubt() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	gids := make([]uint64, 0, len(m.prepared))
	for gid := range m.prepared {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	return gids
}

// AppendPreparedMembers appends the local members of a prepared (or
// in-doubt) group to dst — none if the gid is unknown here — and returns
// the extended slice. The manager's own list is reused once the group is
// decided, so a caller that needs the members past Decide takes them this
// way, into a buffer of its own.
func (m *Manager) AppendPreparedMembers(dst []xid.TID, gid uint64) []xid.TID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append(dst, m.prepared[gid]...)
}

// installInDoubt rebuilds the prepared state of groups recovered in doubt:
// each member gets a descriptor in StatusPrepared holding its withheld
// redo images, and re-acquires the locks those updates imply (write locks
// for images, increment locks for deltas — so commutative traffic keeps
// flowing past an in-doubt counter). Called from Open, before the manager
// is visible to anyone; recovery is single-threaded, so every lock grant
// is immediate.
func (m *Manager) installInDoubt(st *wal.State) error {
	gids := make([]uint64, 0, len(st.InDoubt))
	for gid := range st.InDoubt {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		tids := st.InDoubt[gid]
		for _, id := range tids {
			t := m.newTxn(id, xid.NilTID, nil, 1) // the table's reference only: nobody drives it
			ops := st.InDoubtOps[id]
			m.inDoubtRedo[id] = ops
			t.setSt(xid.StatusPrepared)
			t.closeDone() // the body finished before the vote, by definition
			m.txns.Put(uint64(id), t)
			m.live.Add(1)
			for _, op := range ops {
				mode := xid.OpWrite
				if op.Kind == wal.KindDelta {
					mode = xid.OpIncr
				}
				if err := m.locks.Lock(id, op.OID, mode); err != nil {
					return fmt.Errorf("core: reacquire in-doubt lock %v on %v: %w", id, op.OID, err)
				}
			}
		}
		m.prepared[gid] = append([]xid.TID(nil), tids...)
	}
	return nil
}
