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
	m.mu.Lock()
	for {
		// Idempotent paths first: the gid is already prepared here (a
		// retransmitted vote request), mid-prepare on another driver, or
		// already decided.
		if _, ok := m.prepared[gid]; ok {
			m.mu.Unlock()
			return nil
		}
		if gate, ok := m.preparing[gid]; ok {
			// Another driver's vote (or a verdict) for this gid is
			// mid-flush. The gate always closes promptly — it is bounded
			// by one log force — so wait on it alone; selecting on a
			// possibly-done ctx here would relock and spin until the gate
			// closed anyway.
			m.mu.Unlock()
			<-gate
			m.mu.Lock()
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
			m.abortForVoteLocked(ids, err)
			m.mu.Unlock()
			return err
		}

		group, waitFor, err := m.examinePrepareLocked(ids)
		if err != nil {
			m.mu.Unlock()
			return err
		}
		if waitFor.waitCh != nil {
			// Register waits-for edges while blocked, exactly as the commit
			// driver does, so cross-mechanism deadlocks are caught.
			var victim xid.TID
			for _, member := range group {
				if member.id != waitFor.id {
					if v, _ := m.waits.Add(member.id, waitFor.id); !v.IsNil() {
						victim = v
					}
				}
			}
			if !victim.IsNil() {
				if vt, ok := m.txns.Get(uint64(victim)); ok {
					m.abortLocked(vt, fmt.Errorf("%w: prepare-wait deadlock victim: %w", ErrAborted, ErrDeadlock))
				}
			}
			waitCh := waitFor.waitCh
			m.mu.Unlock()
			select {
			case <-waitCh:
			case <-done:
			}
			m.mu.Lock()
			for _, member := range group {
				if member.id != waitFor.id {
					m.waits.Remove(member.id, waitFor.id)
				}
			}
			continue
		}

		// All clear: this is the participant's commit point for the vote.
		// The TPrepare record must be durable before the yes vote escapes,
		// and the statuses must flip before the mutex is released around a
		// group-commit flush — every other path treats prepared as
		// untouchable. The preparing gate parks duplicate votes and Decide
		// until the flush resolves.
		tids := make([]xid.TID, len(group))
		for i, member := range group {
			tids[i] = member.id
			member.setSt(xid.StatusPrepared)
		}
		gate := make(chan struct{})
		m.preparing[gid] = gate
		if _, err := m.appendLocked(wal.Record{Type: wal.TPrepare, GID: gid, TIDs: tids}); err != nil {
			err = fmt.Errorf("core: prepare record append failed: %w", err)
			m.failPrepareLocked(gid, gate, group, err)
			m.mu.Unlock()
			return err
		}
		var flushErr error
		if m.cfg.BatchedCommits || m.cfg.GroupCommit {
			m.mu.Unlock()
			flushErr = m.log.Flush()
			m.mu.Lock()
		} else {
			flushErr = m.log.Flush()
		}
		if flushErr != nil {
			flushErr = fmt.Errorf("core: prepare flush failed: %w", flushErr)
			m.failPrepareLocked(gid, gate, group, flushErr)
			m.mu.Unlock()
			return flushErr
		}
		m.stats.logForces.Add(1)
		m.prepared[gid] = tids
		delete(m.preparing, gid)
		close(gate)
		m.mu.Unlock()
		return nil
	}
}

// examinePrepareLocked inspects the GC closure of the given roots. It
// returns (group, nil, nil) when every member is ready to prepare,
// (group, obstacle, nil) when the driver must wait, and a non-nil error —
// the no vote, with the group aborted as far as permitted — when the
// closure can never be prepared. Caller holds m.mu.
func (m *Manager) examinePrepareLocked(ids []xid.TID) ([]*txn, obstacle, error) {
	for _, id := range ids {
		if _, err := m.lookup(id); err != nil {
			m.abortForVoteLocked(ids, fmt.Errorf("%w: prepare of unknown member %v", ErrAborted, id))
			return nil, obstacle{}, err
		}
	}
	closure := m.deps.GCClosure(ids...)
	group := make([]*txn, 0, len(closure))
	for _, mid := range closure {
		if member, ok := m.txns.Get(uint64(mid)); ok {
			group = append(group, member)
		}
	}
	for _, member := range group {
		switch member.st() {
		case xid.StatusAborting, xid.StatusAborted:
			reason := txnOutcome(member)
			m.abortForVoteLocked(ids, fmt.Errorf("%w: group member %v aborted", ErrAborted, member.id))
			return nil, obstacle{}, fmt.Errorf("%w: group member %v aborted: %w", ErrAborted, member.id, reason)
		case xid.StatusCommitted, xid.StatusCommitting:
			// The member's fate is already sealed locally; the group cannot
			// make the two-sided promise any more.
			m.abortForVoteLocked(ids, fmt.Errorf("%w: group member %v already committing", ErrAborted, member.id))
			return nil, obstacle{}, fmt.Errorf("%w: member %v", ErrAlreadyCommitted, member.id)
		case xid.StatusPrepared:
			// Owned by a different distributed group (same-gid retransmits
			// were handled before examine): refuse without touching it.
			m.abortForVoteLocked(ids, fmt.Errorf("%w: group member %v prepared under another group", ErrAborted, member.id))
			return nil, obstacle{}, fmt.Errorf("%w: member %v", ErrPrepared, member.id)
		case xid.StatusInitiated, xid.StatusRunning:
			return group, obstacle{id: member.id, waitCh: member.doneCh()}, nil
		}
	}
	// Exclusion: a prepared transaction must win any EXC race (its partner
	// sees prepared as committing), so losing one here means voting no.
	for _, member := range group {
		for _, e := range m.deps.Outgoing(member.id) {
			if !e.Types.Has(xid.DepEXC) {
				continue
			}
			if p, ok := m.txns.Get(uint64(e.Other)); ok &&
				(p.st() == xid.StatusCommitting || p.st() == xid.StatusCommitted || p.st() == xid.StatusPrepared) {
				m.abortForVoteLocked(ids, fmt.Errorf("%w: excluded by committing partner %v", ErrAborted, p.id))
				return nil, obstacle{}, fmt.Errorf("%w: member %v excluded by committing partner %v", ErrAborted, member.id, p.id)
			}
		}
	}
	// Commit-blocking CD/AD edges to outside supporters must resolve
	// before the vote — a prepared transaction can wait for nobody.
	for _, member := range group {
		for _, e := range m.deps.Outgoing(member.id) {
			if !e.Types.CommitBlocking() || inGroupOf(group, e.Other) {
				continue
			}
			sup, ok := m.txns.Get(uint64(e.Other))
			if !ok || sup.st().Terminated() {
				continue
			}
			return group, obstacle{id: sup.id, waitCh: sup.termCh()}, nil
		}
	}
	return group, obstacle{}, nil
}

// abortForVoteLocked is the no-vote cleanup: abort every named transaction
// that is still abortable (prepared and committing members are left to
// their own protocols). Caller holds m.mu.
func (m *Manager) abortForVoteLocked(ids []xid.TID, reason error) {
	for _, id := range ids {
		if t, ok := m.txns.Get(uint64(id)); ok {
			m.abortLocked(t, reason)
		}
	}
}

// failPrepareLocked unwinds a prepare whose record could not be made
// durable: the statuses already turned prepared, so the abort must be the
// verdict-grade one. Caller holds m.mu.
func (m *Manager) failPrepareLocked(gid uint64, gate chan struct{}, group []*txn, cause error) {
	delete(m.preparing, gid)
	close(gate)
	for _, member := range group {
		m.abortCascadeLocked(member, abortReason(cause), true)
	}
}

// Decide applies the coordinator's verdict for group gid: commit installs
// the group atomically (including updates withheld since crash recovery),
// abort rolls it back. Duplicated and reordered deliveries are idempotent —
// a verdict that matches the recorded one returns nil. Deciding a group
// this manager never prepared returns ErrUnknownGroup.
func (m *Manager) Decide(gid uint64, commit bool) error {
	m.mu.Lock()
	for {
		gate, ok := m.preparing[gid]
		if !ok {
			break
		}
		// A vote is mid-flush; the verdict applies to its outcome.
		m.mu.Unlock()
		<-gate
		m.mu.Lock()
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
	// Gate the verdict window: commitPreparedLocked may release mu around
	// a group-commit flush while m.prepared[gid] is still populated, and a
	// duplicate Decide arriving then (a coordinator delivery retry racing
	// a restarted participant's ResolveInDoubt) must not re-append the
	// commit record or re-run the commit epilogue. Duplicates — and
	// retransmitted votes — park on the gate and land on the idempotent
	// verdicts path once it closes.
	gate := make(chan struct{})
	m.preparing[gid] = gate
	group := make([]*txn, 0, len(tids))
	for _, id := range tids {
		if t, ok := m.txns.Get(uint64(id)); ok {
			group = append(group, t)
		}
	}
	var err error
	if commit {
		err = m.commitPreparedLocked(group)
	} else {
		reason := fmt.Errorf("%w: coordinator verdict: group %d aborted", ErrAborted, gid)
		for _, member := range group {
			m.abortCascadeLocked(member, reason, true)
		}
	}
	if err == nil {
		m.recordVerdictLocked(gid, commit)
		delete(m.prepared, gid)
	}
	delete(m.preparing, gid)
	close(gate)
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
	limit := m.cfg.VerdictRetention
	if limit == 0 {
		limit = DefaultVerdictRetention
	}
	if limit < 0 {
		return
	}
	for len(m.verdictOrder) > limit {
		delete(m.verdicts, m.verdictOrder[0])
		m.verdictOrder = m.verdictOrder[1:]
	}
}

// commitPreparedLocked commits a prepared group on the coordinator's
// verdict. Unlike commitGroupLocked there are no obstacles left to check —
// the vote resolved them — but a recovered in-doubt member must install
// its withheld after-images before its locks drop. On a log failure the
// group stays prepared (still in doubt) so a later retry or restart can
// finish the job; it is never half-committed. Caller holds m.mu.
//
//asset:durable before=ReleaseAll,EscrowCommit
func (m *Manager) commitPreparedLocked(group []*txn) error {
	if _, err := m.appendLocked(wal.Record{Type: wal.TCommit, TIDs: m.committingLocked(group)}); err != nil {
		for _, member := range group {
			member.setSt(xid.StatusPrepared)
		}
		return fmt.Errorf("core: verdict commit record append failed: %w", err)
	}
	var flushErr error
	if m.cfg.BatchedCommits || m.cfg.GroupCommit {
		m.mu.Unlock()
		flushErr = m.log.Flush()
		m.mu.Lock()
	} else {
		flushErr = m.log.Flush()
	}
	if flushErr != nil {
		for _, member := range group {
			member.setSt(xid.StatusPrepared)
		}
		return fmt.Errorf("core: verdict commit flush failed: %w", flushErr)
	}
	m.stats.logForces.Add(1)
	m.stats.groupSize.Add(uint64(len(group)))
	forcedAborts := m.forcedAbortsLocked(group, nil)
	for _, member := range group {
		for _, op := range member.redo {
			m.installRedoLocked(op)
		}
		member.redo = nil
		for _, u := range member.undo {
			if u.kind == wal.KindDelete {
				m.markDirtyLocked(u.oid, dirtyDelete)
			} else {
				m.markDirtyLocked(u.oid, dirtyUpsert)
			}
		}
		member.undo = nil
		member.setSt(xid.StatusCommitted)
		m.deps.RemoveNode(member.id)
		m.locks.EscrowCommit(member.id)
		m.locks.ReleaseAll(member.id)
		m.waits.RemoveNode(member.id)
		m.releaseSlot(member)
		m.live.Add(-1)
		m.stats.commits.Add(1)
		member.closeDone()
		member.closeTerm()
		if m.cfg.ReapTerminated {
			m.txns.Delete(uint64(member.id))
		}
	}
	for _, dependent := range forcedAborts {
		m.abortLocked(dependent, fmt.Errorf("%w: excluded by a committed partner", ErrAborted))
	}
	m.cond.Broadcast()
	return nil
}

// installRedoLocked installs one withheld update of a recovered in-doubt
// transaction on its commit verdict. Caller holds m.mu.
func (m *Manager) installRedoLocked(op wal.RedoOp) {
	switch op.Kind {
	case wal.KindDelete:
		m.cache.Delete(op.OID)
		m.markDirtyLocked(op.OID, dirtyDelete)
	case wal.KindDelta:
		base, _ := m.cache.Read(op.OID) // missing base reads as zero
		m.cache.Install(op.OID, wal.EncodeCounter(wal.DecodeCounter(base)+wal.DecodeCounter(op.After)))
		m.markDirtyLocked(op.OID, dirtyUpsert)
	default: // modify/create
		m.cache.Install(op.OID, op.After)
		m.markDirtyLocked(op.OID, dirtyUpsert)
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

// PreparedMembers returns the local members of a prepared (or in-doubt)
// group, or nil if the gid is unknown here.
func (m *Manager) PreparedMembers(gid uint64) []xid.TID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]xid.TID(nil), m.prepared[gid]...)
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
			t := m.newTxn(id, xid.NilTID, nil)
			t.redo = st.InDoubtOps[id]
			t.setSt(xid.StatusPrepared)
			t.closeDone() // the body finished before the vote, by definition
			m.txns.Put(uint64(id), t)
			m.live.Add(1)
			for _, op := range t.redo {
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
