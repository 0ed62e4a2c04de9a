package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xid"
)

// encodeTIDs is the tid-list wire encoding written out independently of
// AppendTIDs, which must reproduce it byte for byte: a count, then each
// id, as uvarints.
func encodeTIDs(tids []xid.TID) []byte {
	b := binary.AppendUvarint(nil, uint64(len(tids)))
	for _, t := range tids {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return b
}

func TestDistOpsRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ReqID: 1, Op: OpPrepare, Other: 0xfeed, Data: AppendTIDs(nil, []xid.TID{3, 5, 900})},
		{ReqID: 2, Op: OpDecide, Other: 7, Mode: 1},
		{ReqID: 3, Op: OpDecide, Other: 7, Mode: 0},
		{ReqID: 4, Op: OpVerdictQuery, Other: 1 << 60},
	}
	for _, in := range reqs {
		out, err := DecodeRequest(EncodeRequest(in))
		if err != nil {
			t.Fatalf("%v: %v", in.Op, err)
		}
		if len(out.Data) == 0 && len(in.Data) == 0 {
			out.Data, in.Data = nil, nil
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%v round trip: %+v vs %+v", in.Op, out, in)
		}
	}
	for _, op := range []Op{OpPrepare, OpDecide, OpVerdictQuery} {
		if !op.Valid() {
			t.Fatalf("%v not valid", op)
		}
		if op.String() == "" || op.String()[0] == 'o' && op.String()[1] == 'p' {
			t.Fatalf("%v has no name", op)
		}
	}
}

func TestTIDListRoundTrip(t *testing.T) {
	lists := [][]xid.TID{nil, {1}, {1, 2, 3}, {1 << 63, 0, 42}}
	var scratch []xid.TID
	for _, in := range lists {
		// AppendTIDs appends after whatever dst holds.
		b := AppendTIDs([]byte("prefix"), in)
		if got, want := b[len("prefix"):], encodeTIDs(in); string(b[:len("prefix")]) != "prefix" || !bytes.Equal(got, want) {
			t.Fatalf("%v encoded as %x, want prefix then %x", in, b, want)
		}
		out, err := DecodeTIDsInto(scratch, encodeTIDs(in))
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if !slices.Equal(out, in) {
			t.Fatalf("%v decoded as %v", in, out)
		}
		scratch = out
	}
	// Every strict prefix of a non-empty encoding must fail with
	// ErrBadFrame — no silent partial decode.
	full := encodeTIDs([]xid.TID{7, 300, 1 << 40})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeTIDsInto(nil, full[:cut]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncated tid list at %d decoded: %v", cut, err)
		}
	}
	// An absurd count with no bytes behind it is corrupt, not an
	// allocation request.
	if _, err := DecodeTIDsInto(nil, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("huge count decoded: %v", err)
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeTIDsInto(nil, append(encodeTIDs([]xid.TID{1}), 0x00)); !errors.Is(err, ErrBadFrame) {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzDecodeTIDs drives the tid-list decoder with corrupt inputs: any
// successful decode must be canonical (the reference encoding reproduces
// the input exactly), so a truncated or padded frame can never
// half-decode, and AppendTIDs must give the same bytes back.
func FuzzDecodeTIDs(f *testing.F) {
	f.Add(encodeTIDs(nil))
	f.Add(encodeTIDs([]xid.TID{1}))
	f.Add(encodeTIDs([]xid.TID{3, 5, 900}))
	f.Add(encodeTIDs([]xid.TID{1 << 63, 0, 42}))
	f.Add(encodeTIDs([]xid.TID{7, 300, 1 << 40})[:3]) // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})       // absurd count
	f.Add(append(encodeTIDs([]xid.TID{1}), 0x00))     // trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		// The decoder starts from a dirty buffer: it must overwrite it.
		tids, err := DecodeTIDsInto([]xid.TID{97, 98, 99}, b)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("non-ErrBadFrame failure: %v", err)
			}
			return
		}
		if !bytes.Equal(encodeTIDs(tids), b) {
			t.Fatalf("non-canonical decode: %x -> %v", b, tids)
		}
		if got := AppendTIDs(nil, tids); !bytes.Equal(got, b) {
			t.Fatalf("AppendTIDs(%v) = %x, want %x", tids, got, b)
		}
	})
}

// FuzzDecodeRequest covers the full request decoder with the new
// distributed ops seeded; a decode either fails or is total. The wrapper
// and the in-place decoder are one implementation and must agree, and a
// decoded request re-encoded by AppendRequest — after whatever already
// sits in the destination — decodes to the same request again.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(&Request{ReqID: 1, Op: OpPrepare, Other: 9, Data: AppendTIDs(nil, []xid.TID{3, 5})}))
	f.Add(EncodeRequest(&Request{ReqID: 2, Op: OpDecide, Other: 9, Mode: 1}))
	f.Add(EncodeRequest(&Request{ReqID: 3, Op: OpVerdictQuery, Other: 9}))
	f.Add(EncodeRequest(&Request{ReqID: 4, Op: OpCommit, TID: 8})[:5]) // truncated
	f.Add(EncodeRequest(&Request{ReqID: 1 << 40, Ack: 1<<40 - 1, Op: OpWrite, TID: 7, OID: 1 << 18, Data: bytes.Repeat([]byte{0xA5}, 64)}))
	f.Add(EncodeRequest(&Request{ReqID: 5, Op: OpAdd, TID: 7, OID: 3, Delta: -1 << 62}))
	f.Add(append(EncodeRequest(&Request{ReqID: 6, Op: OpLock, TID: 7, OID: 3, Mode: 2}), 0xFF)) // trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRequest(b)
		// The in-place decoder starts from a dirty struct: every field
		// must be overwritten, not merged.
		into := Request{ReqID: 99, Ack: 98, Op: OpBye, TID: 97, OID: 96, Other: 95, Mode: 94, Delta: -93, Lo: 92, Hi: 91, Data: []byte("stale")}
		intoErr := DecodeRequestInto(&into, b)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("wrapper error %v, in-place error %v", err, intoErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || !errors.Is(intoErr, ErrBadFrame) {
				t.Fatalf("non-ErrBadFrame failure: %v / %v", err, intoErr)
			}
			return
		}
		if !r.Op.Valid() {
			t.Fatalf("decoded invalid op %d", r.Op)
		}
		if !reflect.DeepEqual(*r, into) {
			t.Fatalf("wrapper decoded %+v, in-place %+v", *r, into)
		}
		prefix := []byte("prefix")
		again := AppendRequest(append([]byte(nil), prefix...), &into)
		if !bytes.HasPrefix(again, prefix) {
			t.Fatalf("AppendRequest clobbered its destination: %x", again)
		}
		var back Request
		if err := DecodeRequestInto(&back, again[len(prefix):]); err != nil {
			t.Fatalf("re-decode of %+v: %v", into, err)
		}
		if !reflect.DeepEqual(back, into) {
			t.Fatalf("re-encoded %+v decodes to %+v", into, back)
		}
	})
}

// FuzzDecodeResponse holds the response codec to the same properties.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(&Response{ReqID: 1, TID: 8}))
	f.Add(EncodeResponse(&Response{ReqID: 1 << 40, Data: bytes.Repeat([]byte{0x5A}, 64)}))
	f.Add(EncodeResponse(&Response{ReqID: 2, Bits: 1<<5 | 1, RetryAfter: 2500, Msg: "core: overload"}))
	f.Add(EncodeResponse(&Response{ReqID: 3, Val: 1 << 63, Aux: 250000, Status: 4}))
	f.Add(EncodeResponse(&Response{ReqID: 4, OID: 12, Msg: "x"})[:6]) // truncated
	f.Add([]byte{1, 0, 0, 0xFF})                                      // overlong Msg length
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResponse(b)
		into := Response{ReqID: 99, Bits: 98, RetryAfter: 97, Msg: "stale", TID: 96, OID: 95, Val: 94, Aux: 93, Status: 92, Data: []byte("stale")}
		intoErr := DecodeResponseInto(&into, b)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("wrapper error %v, in-place error %v", err, intoErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) || !errors.Is(intoErr, ErrBadFrame) {
				t.Fatalf("non-ErrBadFrame failure: %v / %v", err, intoErr)
			}
			return
		}
		if !reflect.DeepEqual(*r, into) {
			t.Fatalf("wrapper decoded %+v, in-place %+v", *r, into)
		}
		prefix := []byte("prefix")
		again := AppendResponse(append([]byte(nil), prefix...), &into)
		if !bytes.HasPrefix(again, prefix) {
			t.Fatalf("AppendResponse clobbered its destination: %x", again)
		}
		var back Response
		if err := DecodeResponseInto(&back, again[len(prefix):]); err != nil {
			t.Fatalf("re-decode of %+v: %v", into, err)
		}
		if !reflect.DeepEqual(back, into) {
			t.Fatalf("re-encoded %+v decodes to %+v", into, back)
		}
	})
}
