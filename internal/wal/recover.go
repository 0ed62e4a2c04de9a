package wal

import (
	"encoding/binary"

	"repro/internal/faultfs"
	"repro/internal/xid"
)

// State is the outcome of replaying a log: the committed object images to
// apply over the checkpointed base store, the committed deletions, and
// bookkeeping for resuming the manager.
type State struct {
	// Objects maps every object touched by a committed (or undo-installed)
	// operation to its final image.
	Objects map[xid.OID][]byte
	// Deleted holds objects whose final committed operation was a delete
	// (or whose creation was undone).
	Deleted map[xid.OID]bool
	// NextLSN is one past the largest LSN seen.
	NextLSN uint64
	// MaxTID is the largest transaction id seen, so a resuming manager can
	// continue the tid sequence without reuse.
	MaxTID xid.TID
	// Deltas carries committed counter deltas whose base value lives in the
	// checkpointed store (the opener adds them to the loaded objects).
	Deltas map[xid.OID]uint64
	// Committed lists the transactions whose commit records were found.
	Committed []xid.TID
	// Losers lists transactions that had begun but neither committed nor
	// aborted by the end of the log (they lose: their updates are dropped).
	Losers []xid.TID
	// InDoubt maps each distributed-commit group id whose prepare record
	// was found without a matching commit or abort to its prepared local
	// members. These transactions are NOT losers: the participant voted
	// yes, so their fate belongs to the coordinator, and the opener must
	// hold their updates (InDoubtOps) and locks until the verdict arrives.
	InDoubt map[uint64][]xid.TID
	// InDoubtOps maps each in-doubt transaction to its pending redo
	// operations in LSN order, to be installed if the verdict is commit
	// and discarded if it is abort.
	InDoubtOps map[xid.TID][]RedoOp
}

// RedoOp is one withheld update of an in-doubt (prepared) transaction.
type RedoOp struct {
	LSN   uint64
	OID   xid.OID
	Kind  UpdateKind
	After []byte
}

// pendingOp is an update awaiting its responsible transaction's commit.
type pendingOp struct {
	lsn   uint64
	oid   xid.OID
	kind  UpdateKind
	after []byte
}

// replayer applies the recovery algorithm described in the package comment.
type replayer struct {
	pending map[xid.TID][]pendingOp
	began   map[xid.TID]bool
	// prepared tracks TPrepare records awaiting their verdict: group id →
	// members, and the member → group reverse index. A TCommit or TAbort
	// covering a member resolves the whole group.
	prepared   map[uint64][]xid.TID
	preparedBy map[xid.TID]uint64
	st         *State
}

// Recover replays the log at path and returns the committed state. Records
// before the last checkpoint are skipped (the checkpointed store already
// reflects them); a checkpoint is only ever written at a quiescent point.
func Recover(path string) (*State, error) {
	return RecoverFS(faultfs.OS{}, path)
}

// RecoverFS is Recover over an injected filesystem.
func RecoverFS(fsys faultfs.FS, path string) (*State, error) {
	// First pass: find the LSN of the last checkpoint.
	var lastCkpt uint64
	err := ScanFileFS(fsys, path, func(r *Record) error {
		if r.Type == TCheckpoint {
			lastCkpt = r.LSN
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rp := newReplayer()
	err = ScanFileFS(fsys, path, func(r *Record) error {
		if r.LSN <= lastCkpt {
			rp.note(r) // keep NextLSN/MaxTID monotone across the skipped prefix
			return nil
		}
		rp.apply(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rp.finish(), nil
}

// RecoverRecords replays an in-memory record sequence; tests and the MemLog
// path use it.
func RecoverRecords(recs []*Record) *State {
	rp := newReplayer()
	for _, r := range recs {
		rp.apply(r)
	}
	return rp.finish()
}

func newReplayer() *replayer {
	return &replayer{
		pending:    make(map[xid.TID][]pendingOp),
		began:      make(map[xid.TID]bool),
		prepared:   make(map[uint64][]xid.TID),
		preparedBy: make(map[xid.TID]uint64),
		st: &State{
			Objects: make(map[xid.OID][]byte),
			Deleted: make(map[xid.OID]bool),
			Deltas:  make(map[xid.OID]uint64),
			NextLSN: 1,
		},
	}
}

// note records LSN/tid bookkeeping for records that precede the checkpoint
// and therefore need no replay.
func (rp *replayer) note(r *Record) {
	if r.LSN >= rp.st.NextLSN {
		rp.st.NextLSN = r.LSN + 1
	}
	rp.bumpTID(r.TID)
	rp.bumpTID(r.TID2)
	for _, t := range r.TIDs {
		rp.bumpTID(t)
	}
}

func (rp *replayer) bumpTID(t xid.TID) {
	if t > rp.st.MaxTID {
		rp.st.MaxTID = t
	}
}

// apply replays one record.
func (rp *replayer) apply(r *Record) {
	rp.note(r)
	switch r.Type {
	case TBegin:
		rp.began[r.TID] = true
	case TUpdate:
		rp.pending[r.TID] = append(rp.pending[r.TID], pendingOp{
			lsn: r.LSN, oid: r.OID, kind: r.Kind, after: r.After,
		})
	case TDelegate:
		rp.delegate(r.TID, r.TID2, r.OIDs)
	case TCommit:
		// Gather the group's pending ops and apply them in LSN order, which
		// is the order the updates actually happened.
		var ops []pendingOp
		for _, t := range r.TIDs {
			ops = append(ops, rp.pending[t]...)
			delete(rp.pending, t)
			delete(rp.began, t)
			rp.st.Committed = append(rp.st.Committed, t)
		}
		sortOps(ops)
		for _, op := range ops {
			rp.install(op.oid, op.kind, op.after)
		}
		for _, t := range r.TIDs {
			rp.resolvePrepared(t)
		}
	case TAbort:
		delete(rp.pending, r.TID)
		delete(rp.began, r.TID)
		rp.resolvePrepared(r.TID)
	case TUndo:
		// Physical undo installations change live (possibly committed)
		// state — an aborter's before-image may deliberately clobber a
		// permitted cooperator's later committed write — and are redone
		// unconditionally in log order. A logical inverse delta is the
		// exception: it is not idempotent, and the forward delta it
		// cancels is never part of replayed state (checkpoints are
		// quiescent, so the base holds no uncommitted effects, and the
		// aborter's forward op is still pending here — TAbort discards
		// it). Redoing it would subtract the delta a second time, so the
		// pair cancels by dropping both sides.
		if r.Kind == KindDelta {
			return
		}
		rp.install(r.OID, r.Kind, r.After)
	case TCheckpoint:
		// No-op during replay: Recover already skipped the prefix.
	case TPrepare:
		rp.prepared[r.GID] = append([]xid.TID(nil), r.TIDs...)
		for _, t := range r.TIDs {
			rp.preparedBy[t] = r.GID
		}
	case TDecide:
		// Coordinator decision records live in the coordinator's own log;
		// a participant log never carries them. Bookkeeping only (note()).
	}
}

// resolvePrepared clears the prepared tracking for t's group once a commit
// or abort record decides it — the group is no longer in doubt.
func (rp *replayer) resolvePrepared(t xid.TID) {
	gid, ok := rp.preparedBy[t]
	if !ok {
		return
	}
	for _, member := range rp.prepared[gid] {
		delete(rp.preparedBy, member)
	}
	delete(rp.prepared, gid)
}

// delegate moves pending ops for the given objects (nil = all) from one
// transaction to another, preserving each op's LSN for final ordering.
func (rp *replayer) delegate(from, to xid.TID, oids []xid.OID) {
	if from == to {
		return
	}
	src := rp.pending[from]
	if len(src) == 0 {
		return
	}
	if oids == nil {
		rp.pending[to] = append(rp.pending[to], src...)
		delete(rp.pending, from)
		return
	}
	want := make(map[xid.OID]bool, len(oids))
	for _, o := range oids {
		want[o] = true
	}
	var keep, move []pendingOp
	for _, op := range src {
		if want[op.oid] {
			move = append(move, op)
		} else {
			keep = append(keep, op)
		}
	}
	if len(keep) == 0 {
		delete(rp.pending, from)
	} else {
		rp.pending[from] = keep
	}
	rp.pending[to] = append(rp.pending[to], move...)
}

func (rp *replayer) install(oid xid.OID, kind UpdateKind, image []byte) {
	switch kind {
	case KindDelete:
		delete(rp.st.Objects, oid)
		delete(rp.st.Deltas, oid)
		rp.st.Deleted[oid] = true
		return
	case KindDelta:
		d := DecodeCounter(image)
		if img, ok := rp.st.Objects[oid]; ok {
			// Full image known: fold the delta in directly.
			rp.st.Objects[oid] = EncodeCounter(DecodeCounter(img) + d)
			return
		}
		if rp.st.Deleted[oid] {
			// Recreated-by-delta cannot happen (Apply requires the object),
			// but fold defensively from zero.
			delete(rp.st.Deleted, oid)
			rp.st.Objects[oid] = EncodeCounter(d)
			return
		}
		// Base value lives in the checkpointed store; carry the delta out
		// for the opener to add.
		rp.st.Deltas[oid] += d
		return
	}
	img := make([]byte, len(image))
	copy(img, image)
	rp.st.Objects[oid] = img
	delete(rp.st.Deltas, oid)
	delete(rp.st.Deleted, oid)
}

// EncodeCounter renders a counter value as its 8-byte object image.
func EncodeCounter(v uint64) []byte {
	b := make([]byte, 8)
	PutCounter(b, v)
	return b
}

// PutCounter writes a counter value's image into the first 8 bytes of b.
func PutCounter(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// DecodeCounter reads a counter object image (short images read as their
// available low bytes).
func DecodeCounter(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func (rp *replayer) finish() *State {
	// Prepared-but-undecided transactions are in doubt, not losers: carry
	// their withheld updates out for the opener to hold until the verdict.
	if len(rp.prepared) > 0 {
		rp.st.InDoubt = make(map[uint64][]xid.TID, len(rp.prepared))
		rp.st.InDoubtOps = make(map[xid.TID][]RedoOp)
		for gid, members := range rp.prepared {
			ms := append([]xid.TID(nil), members...)
			sortTIDs(ms)
			rp.st.InDoubt[gid] = ms
			for _, t := range ms {
				ops := rp.pending[t]
				sortOps(ops)
				redo := make([]RedoOp, 0, len(ops))
				for _, op := range ops {
					redo = append(redo, RedoOp{LSN: op.lsn, OID: op.oid, Kind: op.kind, After: op.after})
				}
				rp.st.InDoubtOps[t] = redo
				delete(rp.pending, t)
				delete(rp.began, t)
			}
		}
	}
	for t := range rp.began {
		rp.st.Losers = append(rp.st.Losers, t)
	}
	for t := range rp.pending {
		if !rp.began[t] {
			rp.st.Losers = append(rp.st.Losers, t)
		}
	}
	sortTIDs(rp.st.Losers)
	sortTIDs(rp.st.Committed)
	return rp.st
}

func sortOps(ops []pendingOp) {
	// Insertion sort: groups are small and mostly ordered already.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].lsn < ops[j-1].lsn; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
}

func sortTIDs(ts []xid.TID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
