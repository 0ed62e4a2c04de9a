package wal

import (
	"encoding/binary"

	"repro/internal/xid"
)

// State is the outcome of replaying a log chain from empty: the committed
// object images, and bookkeeping for resuming the manager.
type State struct {
	// Objects maps every live object to its final committed image (a
	// checkpoint's image, then committed operations and undo
	// installations over it).
	Objects map[xid.OID][]byte
	// NextLSN is one past the largest LSN seen.
	NextLSN uint64
	// MaxTID is the largest transaction id seen, so a resuming manager can
	// continue the tid sequence without reuse.
	MaxTID xid.TID
	// InDoubt maps each distributed-commit group id whose prepare record
	// was found without a matching commit or abort to its prepared local
	// members. Unlike a transaction that ends the log with neither, whose
	// updates are dropped, these voted yes: their fate belongs to the
	// coordinator, and the opener must hold their updates (InDoubtOps) and
	// locks until the verdict arrives.
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

// Replayer rebuilds committed state from a record stream in LSN order,
// applying the recovery algorithm described in the package comment. Its
// Apply fits a chain scan's callback, so a chain is replayed in the same
// pass that reads it.
type Replayer struct {
	pending map[xid.TID][]pendingOp
	// prepared tracks TPrepare records awaiting their verdict: group id →
	// members, and the member → group reverse index. A TCommit or TAbort
	// covering a member resolves the whole group.
	prepared   map[uint64][]xid.TID
	preparedBy map[xid.TID]uint64
	st         *State
}

// RecoverRecords replays an in-memory record sequence from empty state;
// the replay tests use it.
func RecoverRecords(recs []*Record) *State {
	rp := NewReplayer()
	for _, r := range recs {
		rp.Apply(r)
	}
	return rp.Finish()
}

// NewReplayer returns a replayer over empty state.
func NewReplayer() *Replayer {
	return &Replayer{
		pending:    make(map[xid.TID][]pendingOp),
		prepared:   make(map[uint64][]xid.TID),
		preparedBy: make(map[xid.TID]uint64),
		st: &State{
			Objects: make(map[xid.OID][]byte),
			NextLSN: 1,
		},
	}
}

// Apply replays one record. It keeps slices r points to, so the record
// must not be reused; it never fails.
func (rp *Replayer) Apply(r *Record) error {
	if r.LSN >= rp.st.NextLSN {
		rp.st.NextLSN = r.LSN + 1
	}
	rp.bumpTID(r.TID)
	rp.bumpTID(r.TID2)
	for _, t := range r.TIDs {
		rp.bumpTID(t)
	}
	switch r.Type {
	case TBegin:
		// A tid that was issued: the bump above is all it carries.
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
		rp.resolvePrepared(r.TID)
	case TUndo:
		// Physical undo installations change live (possibly committed)
		// state — an aborter's before-image may deliberately clobber a
		// permitted cooperator's later committed write — and are redone
		// unconditionally in log order. A logical inverse delta is the
		// exception: it is not idempotent, and the forward delta it
		// cancels is never part of replayed state (snapshot images are
		// taken quiescent, so they hold no uncommitted effects, and the
		// aborter's forward op is still pending here — TAbort discards
		// it). Redoing it would subtract the delta a second time, so the
		// pair cancels by dropping both sides.
		if r.Kind == KindDelta {
			return nil
		}
		rp.install(r.OID, r.Kind, r.After)
	case TImage:
		// A checkpoint's snapshot: the object's committed value, installed
		// unconditionally. Checkpoints are quiescent, so the value is what
		// the chain before the snapshot replays to, and replaying both
		// (a crash before the cutover leaves them chained) is idempotent.
		rp.install(r.OID, KindModify, r.After)
	case TPrepare:
		rp.prepared[r.GID] = append([]xid.TID(nil), r.TIDs...)
		for _, t := range r.TIDs {
			rp.preparedBy[t] = r.GID
		}
	case TDecide:
		// Coordinator decision records live in the coordinator's own chain;
		// a participant log never carries them. Bookkeeping only.
	}
	return nil
}

func (rp *Replayer) bumpTID(t xid.TID) {
	if t > rp.st.MaxTID {
		rp.st.MaxTID = t
	}
}

// resolvePrepared clears the prepared tracking for t's group once a commit
// or abort record decides it — the group is no longer in doubt.
func (rp *Replayer) resolvePrepared(t xid.TID) {
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
func (rp *Replayer) delegate(from, to xid.TID, oids []xid.OID) {
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

func (rp *Replayer) install(oid xid.OID, kind UpdateKind, image []byte) {
	switch kind {
	case KindDelete:
		delete(rp.st.Objects, oid)
		return
	case KindDelta:
		// Every live object's base is in the chain (a snapshot image or
		// its creation), so a missing base is read as zero.
		rp.st.Objects[oid] = EncodeCounter(DecodeCounter(rp.st.Objects[oid]) + DecodeCounter(image))
		return
	}
	img := make([]byte, len(image))
	copy(img, image)
	rp.st.Objects[oid] = img
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

// Finish ends the replay and returns the state; the replayer is spent.
// The pending updates of a transaction that neither committed nor
// prepared are dropped with it.
func (rp *Replayer) Finish() *State {
	// Prepared-but-undecided transactions are in doubt: carry their
	// withheld updates out for the opener to hold until the verdict.
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
			}
		}
	}
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
