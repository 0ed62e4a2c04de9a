package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/xid"
)

// Op identifies a protocol request kind.
type Op byte

// Protocol operations. Session control first, then the ASSET primitives
// in paper order, then data operations.
const (
	// OpHello opens or resumes a session: Other carries the session
	// token to resume (0 = new session), Mode the server epoch the
	// client last saw (0 = none). The response returns the session token
	// in TID, the server epoch in Val, and the lease TTL in Aux
	// (microseconds).
	OpHello Op = 1 + iota
	// OpHeartbeat renews the session lease; the response's Aux echoes
	// the remaining TTL in microseconds.
	OpHeartbeat
	// OpBye ends the session gracefully, aborting its live transactions.
	OpBye
	// OpCancel withdraws an in-flight request: the server cancels the
	// context the request named by Other runs under. Fire-and-forget
	// semantics — the cancelled request itself answers (with its result
	// or cancellation error), not OpCancel.
	OpCancel

	// OpInitiate creates a transaction (response TID).
	OpInitiate
	// OpBegin begins TID.
	OpBegin
	// OpCommit commits TID — the one request whose retransmission
	// MUST hit the completed-request table, never re-execute.
	OpCommit
	// OpAbort aborts TID.
	OpAbort
	// OpWait waits for TID to terminate (response Status).
	OpWait
	// OpStatus queries TID's status without waiting (response Status;
	// Val 1 if the server knows TID, 0 if Status is the aborted fallback
	// for a tid it never issued or has forgotten) — the recovery path a
	// reconnecting client uses to learn a verdict its old session never
	// heard.
	OpStatus
	// OpDelegate delegates locks on OID (Mode ops; OID 0 = all) from
	// TID to Other.
	OpDelegate
	// OpPermit grants Other conflict permission on TID's locks.
	OpPermit
	// OpFormDep forms a dependency of kind Mode from TID on Other.
	OpFormDep

	// OpLock acquires Mode on OID for TID.
	OpLock
	// OpRead reads OID (response Data).
	OpRead
	// OpWrite writes Data to OID.
	OpWrite
	// OpCreate creates an object holding Data (response OID).
	OpCreate
	// OpDelete deletes OID.
	OpDelete
	// OpAdd escrow-adds Delta to counter OID.
	OpAdd
	// OpDeclareEscrow declares escrow bounds [Lo, Hi] on OID.
	OpDeclareEscrow
	// OpReadCounter reads counter OID (response Val).
	OpReadCounter

	// OpPrepare asks the manager to prepare the GC closure of the
	// transactions listed in Data (AppendTIDs) as distributed group Other.
	// Success is the participant's yes vote: the group is durably
	// prepared and immune to unilateral abort.
	OpPrepare
	// OpDecide delivers the coordinator's verdict for group Other: Mode 1
	// commits, 0 aborts. Idempotent under duplication and reordering.
	OpDecide
	// OpVerdictQuery asks the coordinator co-located with this server for
	// the durable verdict on group Other (response Val: 1 commit, 2
	// abort). Querying an undecided group forces a durable abort decision
	// (presumed abort) — the recovery path a restarted participant uses.
	OpVerdictQuery

	opMax
)

var opNames = [...]string{
	OpHello: "hello", OpHeartbeat: "heartbeat", OpBye: "bye", OpCancel: "cancel",
	OpInitiate: "initiate", OpBegin: "begin", OpCommit: "commit", OpAbort: "abort",
	OpWait: "wait", OpStatus: "status", OpDelegate: "delegate", OpPermit: "permit",
	OpFormDep: "formdep", OpLock: "lock", OpRead: "read", OpWrite: "write",
	OpCreate: "create", OpDelete: "delete", OpAdd: "add", OpDeclareEscrow: "declare",
	OpReadCounter: "readcounter",
	OpPrepare:     "prepare", OpDecide: "decide", OpVerdictQuery: "verdictquery",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o > 0 && o < opMax }

// Request is one client→server message. Fields are op-specific (see the
// Op doc comments); unused fields encode as single zero bytes.
type Request struct {
	// ReqID is the session-unique request ID, monotonically increasing
	// per session. The server's inflight/completed tables key on it.
	ReqID uint64
	// Ack is the highest ReqID for which the client has received (and
	// will never re-ask about) every response — the server's license to
	// prune its completed-request table up to that point.
	Ack   uint64
	Op    Op
	TID   uint64
	OID   uint64
	Other uint64 // peer TID / resumed session token / cancelled ReqID
	Mode  uint64 // lock OpSet / dep type / hello epoch
	Delta int64
	Lo    uint64
	Hi    uint64
	Data  []byte
}

// Response is one server→client message, matched to its request by
// ReqID. Bits==0 means success; otherwise Bits/Msg/RetryAfter decode to
// a *WireError (see errors.go).
type Response struct {
	ReqID uint64
	// Bits is the error encoding: 0 success, bit 0 = generic error,
	// bit i+1 = errors.Is(err, Sentinels[i]).
	Bits uint64
	// RetryAfter is a server backoff hint in microseconds, sent with
	// ErrOverload; the client's retry engine floors its backoff with it.
	RetryAfter uint64
	Msg        string
	TID        uint64 // initiate result / hello session token
	OID        uint64 // create result
	Val        uint64 // counter value / hello epoch / status known
	Aux        uint64 // hello & heartbeat lease TTL (µs)
	Status     byte   // xid.Status for wait/status
	Data       []byte
}

// AppendRequest appends r's encoding to dst.
func AppendRequest(dst []byte, r *Request) []byte {
	b := binary.AppendUvarint(dst, r.ReqID)
	b = binary.AppendUvarint(b, r.Ack)
	b = append(b, byte(r.Op))
	b = binary.AppendUvarint(b, r.TID)
	b = binary.AppendUvarint(b, r.OID)
	b = binary.AppendUvarint(b, r.Other)
	b = binary.AppendUvarint(b, r.Mode)
	b = binary.AppendVarint(b, r.Delta)
	b = binary.AppendUvarint(b, r.Lo)
	b = binary.AppendUvarint(b, r.Hi)
	b = appendBytes(b, r.Data)
	return b
}

// EncodeRequest serializes r into a slice of its own.
func EncodeRequest(r *Request) []byte {
	return AppendRequest(make([]byte, 0, 64+len(r.Data)), r)
}

// DecodeRequestInto parses a request payload into r, overwriting every
// field. r.Data aliases b.
func DecodeRequestInto(r *Request, b []byte) error {
	d := decoder{b: b}
	*r = Request{
		ReqID: d.u64(),
		Ack:   d.u64(),
		Op:    Op(d.byte()),
		TID:   d.u64(),
		OID:   d.u64(),
		Other: d.u64(),
		Mode:  d.u64(),
		Delta: d.i64(),
		Lo:    d.u64(),
		Hi:    d.u64(),
		Data:  d.bytes(),
	}
	if d.err != nil {
		return badMessage("request", d.err)
	}
	if !r.Op.Valid() {
		return badOp(r.Op)
	}
	return nil
}

// DecodeRequest parses a request payload into a new Request.
func DecodeRequest(b []byte) (*Request, error) {
	r := &Request{}
	if err := DecodeRequestInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendResponse appends r's encoding to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	b := binary.AppendUvarint(dst, r.ReqID)
	b = binary.AppendUvarint(b, r.Bits)
	b = binary.AppendUvarint(b, r.RetryAfter)
	b = binary.AppendUvarint(b, uint64(len(r.Msg)))
	b = append(b, r.Msg...)
	b = binary.AppendUvarint(b, r.TID)
	b = binary.AppendUvarint(b, r.OID)
	b = binary.AppendUvarint(b, r.Val)
	b = binary.AppendUvarint(b, r.Aux)
	b = append(b, r.Status)
	b = appendBytes(b, r.Data)
	return b
}

// EncodeResponse serializes r into a slice of its own.
func EncodeResponse(r *Response) []byte {
	return AppendResponse(make([]byte, 0, 64+len(r.Data)+len(r.Msg)), r)
}

// DecodeResponseInto parses a response payload into r, overwriting every
// field. r.Data aliases b; r.Msg, present only on errors, is a copy.
func DecodeResponseInto(r *Response, b []byte) error {
	d := decoder{b: b}
	*r = Response{
		ReqID:      d.u64(),
		Bits:       d.u64(),
		RetryAfter: d.u64(),
		Msg:        d.str(),
		TID:        d.u64(),
		OID:        d.u64(),
		Val:        d.u64(),
		Aux:        d.u64(),
		Status:     d.byte(),
		Data:       d.bytes(),
	}
	if d.err != nil {
		return badMessage("response", d.err)
	}
	return nil
}

// DecodeResponse parses a response payload into a new Response.
func DecodeResponse(b []byte) (*Response, error) {
	r := &Response{}
	if err := DecodeResponseInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// badMessage and badOp build the decoders' errors out of line: the
// decoders' own frames stay allocation-free.
//
//go:noinline
func badMessage(kind string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrBadFrame, kind, err)
}

//go:noinline
func badOp(op Op) error {
	return fmt.Errorf("%w: unknown op %d", ErrBadFrame, op)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendTIDs appends a transaction-id list, encoded for an OpPrepare Data
// field, to dst: the count, then each id, as uvarints.
func AppendTIDs(dst []byte, tids []xid.TID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tids)))
	for _, t := range tids {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return dst
}

var (
	errTIDCount    = errors.New("tid count exceeds the bytes left")
	errTIDTrailing = errors.New("trailing bytes after the tid list")
)

// DecodeTIDsInto unpacks an AppendTIDs list into dst's storage,
// overwriting what it held, and returns the list. A truncated or corrupt
// list returns ErrBadFrame — never a silently shortened decode.
func DecodeTIDsInto(dst []xid.TID, b []byte) ([]xid.TID, error) {
	dst = dst[:0]
	d := decoder{b: b}
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)) {
		// Each tid takes at least one byte; a count beyond the remaining
		// bytes is corrupt, not merely large.
		d.err = errTIDCount
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		dst = append(dst, xid.TID(d.u64()))
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = errTIDTrailing
	}
	if d.err != nil {
		return dst[:0], badMessage("tid list", d.err)
	}
	return dst, nil
}

// decoder is a sticky-error cursor over a payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("short uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("short varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = fmt.Errorf("short byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// str decodes a length-prefixed string. Out of line so the copy a
// non-empty string costs is charged here, not to the decoder's caller.
//
//go:noinline
func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("short bytes: want %d have %d", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}
