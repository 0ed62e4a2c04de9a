// Package wal implements ASSET's write-ahead log. The paper's §4.2 log
// holds a before and an after image for every write, because its recovery
// undoes from the log. This log is redo-only, and holds only what replay
// reads. The recovery policy is no-steal: uncommitted data never reaches
// the persistent store, a commit forces the log, and recovery replays
// committed after-images (and undo installations) in log order. An update
// record therefore carries the after image alone. The before image lives
// in the transaction descriptor, and abort installs it from there; the
// installation is logged as a redo-able undo record, so that recovery
// reproduces exactly the state a crash-free run would have reached
// (including the paper's caveat that an abort can overwrite later updates
// by permitted cooperating transactions). Delegation transfers undo/redo
// responsibility between transactions and is therefore logged too, so
// recovery attributes each update to the transaction that was
// responsible for it at commit time.
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/xid"
)

// Type discriminates log records.
type Type uint8

// Log record types.
const (
	TBegin      Type = iota + 1 // a tid that was issued (a checkpoint's tid floor)
	TUpdate                     // after image of one object
	TDelegate                   // responsibility transfer between tids
	TCommit                     // commit record for one tid or a GC group
	TAbort                      // a transaction aborted (its updates are void)
	TUndo                       // an installation performed by abort
	TCheckpoint                 // retired: no writer emits it, replay ignores it
	// TPrepare marks a local GC group as prepared under a distributed
	// commit: the participant has voted yes for group GID and may no
	// longer decide the listed transactions' fate unilaterally. Recovery
	// holds them in doubt until the coordinator's verdict arrives.
	TPrepare
	// TDecide is a coordinator decision record (coordinator log only):
	// group GID commits if Commit, aborts otherwise. The decision is
	// forced durable before any participant learns it.
	TDecide
	// TImage is one object's committed value in a checkpoint's snapshot
	// segment. Replay installs it unconditionally: a counter's image is
	// its absolute value, never a delta, so an image replayed over a
	// state that already holds it changes nothing.
	TImage
)

// String returns the record type name.
func (t Type) String() string {
	switch t {
	case TBegin:
		return "begin"
	case TUpdate:
		return "update"
	case TDelegate:
		return "delegate"
	case TCommit:
		return "commit"
	case TAbort:
		return "abort"
	case TUndo:
		return "undo"
	case TCheckpoint:
		return "checkpoint"
	case TPrepare:
		return "prepare"
	case TDecide:
		return "decide"
	case TImage:
		return "image"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// UpdateKind says what an update (or undo installation) does to the object.
type UpdateKind uint8

// Update kinds.
const (
	KindModify UpdateKind = iota + 1 // overwrite existing object
	KindCreate                       // object created (no before image)
	KindDelete                       // object deleted (no after image)
	// KindDelta is the §5 commutative-increment extension: After holds an
	// 8-byte little-endian delta added (mod 2^64) to an 8-byte counter
	// object. Undo negates the delta; redo re-adds it.
	KindDelta
)

// String returns the kind name.
func (k UpdateKind) String() string {
	switch k {
	case KindModify:
		return "modify"
	case KindCreate:
		return "create"
	case KindDelete:
		return "delete"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one log record. Only the fields relevant to Type are set:
//
//	TBegin:      TID (a tid that was issued: a checkpoint writes one;
//	             older logs wrote one per begin)
//	TUpdate:     TID, OID, Kind, After (Before is empty from the engine;
//	             older logs carry one, which replay never reads)
//	TDelegate:   TID (from), TID2 (to), OIDs (nil = all objects)
//	TCommit:     TIDs (the committed group; a single txn is a group of one)
//	TAbort:      TID (replay drops its pending updates; a prepared
//	             transaction's abort also ends its doubt)
//	TUndo:       TID (the aborter), OID, Kind (KindModify/KindCreate install
//	             After; KindDelete removes the object), After
//	TCheckpoint: nothing
//	TPrepare:    GID, TIDs (the prepared local group)
//	TDecide:     GID, Commit
//	TImage:      OID, After (the object's committed value)
type Record struct {
	LSN    uint64
	Type   Type
	TID    xid.TID
	TID2   xid.TID
	OID    xid.OID
	Kind   UpdateKind
	Before []byte
	After  []byte
	OIDs   []xid.OID
	TIDs   []xid.TID
	// GID is the distributed-commit group id of a TPrepare/TDecide record.
	GID uint64
	// Commit is a TDecide record's verdict.
	Commit bool
}

// appendBytes appends a length-prefixed byte string.
func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func takeBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 4 {
		return nil, nil, errTruncated
	}
	n := binary.LittleEndian.Uint32(src)
	src = src[4:]
	if uint64(len(src)) < uint64(n) {
		return nil, nil, errTruncated
	}
	b := make([]byte, n)
	copy(b, src[:n])
	return b, src[n:], nil
}

var errTruncated = fmt.Errorf("wal: truncated record payload")

// marshal encodes the record payload (everything after the frame header).
func (r *Record) marshal() []byte {
	return r.marshalInto(make([]byte, 0, 32+len(r.Before)+len(r.After)))
}

// marshalInto appends the record payload to buf and returns the extended
// slice. It allocates nothing beyond what append needs, which is what
// keeps the group-commit enqueue fast path allocation-free once the
// batch slab has warmed up.
func (r *Record) marshalInto(buf []byte) []byte {
	buf = append(buf, byte(r.Type))
	switch r.Type {
	case TBegin, TAbort:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TID))
	case TUpdate:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.OID))
		buf = append(buf, byte(r.Kind))
		buf = appendBytes(buf, r.Before)
		buf = appendBytes(buf, r.After)
	case TDelegate:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TID2))
		if r.OIDs == nil {
			buf = append(buf, 0) // all objects
		} else {
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.OIDs)))
			for _, o := range r.OIDs {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
			}
		}
	case TCommit:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.TIDs)))
		for _, t := range r.TIDs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
	case TUndo:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.OID))
		buf = append(buf, byte(r.Kind))
		buf = appendBytes(buf, r.After)
	case TCheckpoint:
		// no payload
	case TPrepare:
		buf = binary.LittleEndian.AppendUint64(buf, r.GID)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.TIDs)))
		for _, t := range r.TIDs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
	case TDecide:
		buf = binary.LittleEndian.AppendUint64(buf, r.GID)
		if r.Commit {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case TImage:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.OID))
		buf = appendBytes(buf, r.After)
	}
	return buf
}

// unmarshal decodes a record payload produced by marshal.
func unmarshal(payload []byte) (*Record, error) {
	if len(payload) < 1 {
		return nil, errTruncated
	}
	r := &Record{Type: Type(payload[0])}
	p := payload[1:]
	u64 := func() (uint64, error) {
		if len(p) < 8 {
			return 0, errTruncated
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, nil
	}
	u32 := func() (uint32, error) {
		if len(p) < 4 {
			return 0, errTruncated
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, nil
	}
	u8 := func() (byte, error) {
		if len(p) < 1 {
			return 0, errTruncated
		}
		v := p[0]
		p = p[1:]
		return v, nil
	}
	var err error
	var v uint64
	switch r.Type {
	case TBegin, TAbort:
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.TID = xid.TID(v)
	case TUpdate:
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.TID = xid.TID(v)
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.OID = xid.OID(v)
		k, err := u8()
		if err != nil {
			return nil, err
		}
		r.Kind = UpdateKind(k)
		if r.Before, p, err = takeBytes(p); err != nil {
			return nil, err
		}
		if r.After, p, err = takeBytes(p); err != nil {
			return nil, err
		}
	case TDelegate:
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.TID = xid.TID(v)
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.TID2 = xid.TID(v)
		flag, err := u8()
		if err != nil {
			return nil, err
		}
		if flag == 1 {
			n, err := u32()
			if err != nil {
				return nil, err
			}
			if uint64(n)*8 > uint64(len(p)) {
				return nil, errTruncated // count exceeds remaining payload
			}
			r.OIDs = make([]xid.OID, 0, n)
			for i := uint32(0); i < n; i++ {
				if v, err = u64(); err != nil {
					return nil, err
				}
				r.OIDs = append(r.OIDs, xid.OID(v))
			}
		}
	case TCommit:
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if uint64(n)*8 > uint64(len(p)) {
			return nil, errTruncated // count exceeds remaining payload
		}
		r.TIDs = make([]xid.TID, 0, n)
		for i := uint32(0); i < n; i++ {
			if v, err = u64(); err != nil {
				return nil, err
			}
			r.TIDs = append(r.TIDs, xid.TID(v))
		}
	case TUndo:
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.TID = xid.TID(v)
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.OID = xid.OID(v)
		k, err := u8()
		if err != nil {
			return nil, err
		}
		r.Kind = UpdateKind(k)
		if r.After, p, err = takeBytes(p); err != nil {
			return nil, err
		}
	case TCheckpoint:
		// no payload
	case TPrepare:
		if r.GID, err = u64(); err != nil {
			return nil, err
		}
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if uint64(n)*8 > uint64(len(p)) {
			return nil, errTruncated // count exceeds remaining payload
		}
		r.TIDs = make([]xid.TID, 0, n)
		for i := uint32(0); i < n; i++ {
			if v, err = u64(); err != nil {
				return nil, err
			}
			r.TIDs = append(r.TIDs, xid.TID(v))
		}
	case TDecide:
		if r.GID, err = u64(); err != nil {
			return nil, err
		}
		flag, err := u8()
		if err != nil {
			return nil, err
		}
		r.Commit = flag == 1
	case TImage:
		if v, err = u64(); err != nil {
			return nil, err
		}
		r.OID = xid.OID(v)
		if r.After, p, err = takeBytes(p); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	return r, nil
}
