package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/race"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("asset"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("got %q want %q", got, p)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

// TestFrameBuiltInPlace: a message encoded after a reserved header in one
// buffer is, byte for byte, the frame WriteFrame makes of its separately
// encoded payload, and a FrameReader hands the payloads back out of
// pooled buffers, one frame per Next.
func TestFrameBuiltInPlace(t *testing.T) {
	req := &Request{ReqID: 7, Ack: 6, Op: OpWrite, TID: 3, OID: 9, Data: []byte("value")}
	resp := &Response{ReqID: 7, Bits: 3, Msg: "nope", Data: []byte("value")}
	var want, stream bytes.Buffer
	WriteFrame(&want, EncodeRequest(req))   //nolint:errcheck // a buffer write cannot fail
	WriteFrame(&want, EncodeResponse(resp)) //nolint:errcheck
	buf := GetBuffer()
	buf.B = AppendRequest(BeginFrame(buf.B), req)
	FinishFrame(buf.B)
	stream.Write(buf.B)
	buf.B = AppendResponse(BeginFrame(buf.B), resp)
	FinishFrame(buf.B)
	stream.Write(buf.B)
	buf.Release()
	if !bytes.Equal(stream.Bytes(), want.Bytes()) {
		t.Fatalf("in-place frames\n %x\nwant\n %x", stream.Bytes(), want.Bytes())
	}

	fr := NewFrameReader(&stream)
	first, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	var gotReq Request
	if err := DecodeRequestInto(&gotReq, first.B); err != nil {
		t.Fatal(err)
	}
	// The second frame is read while the first buffer is still held: the
	// first request's Data must not move under it.
	second, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	var gotResp Response
	if err := DecodeResponseInto(&gotResp, second.B); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotReq, req) || !reflect.DeepEqual(&gotResp, resp) {
		t.Fatalf("decoded %+v / %+v", gotReq, gotResp)
	}
	first.Release()
	second.Release()
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

// TestFramePathAllocFree: encode into a pooled buffer, read the frame
// back through a FrameReader, decode in place — no allocation once the
// pool is warm.
func TestFramePathAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	req := &Request{ReqID: 1 << 20, Ack: 1<<20 - 1, Op: OpWrite, TID: 1 << 30, OID: 1 << 18, Data: make([]byte, 64)}
	var pipe bytes.Buffer
	fr := NewFrameReader(&pipe)
	var got Request
	trip := func() {
		out := GetBuffer()
		out.B = AppendRequest(BeginFrame(out.B), req)
		FinishFrame(out.B)
		pipe.Write(out.B)
		out.Release()
		in, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequestInto(&got, in.B); err != nil {
			t.Fatal(err)
		}
		in.Release()
	}
	trip()
	if n := testing.AllocsPerRun(500, trip); n != 0 {
		t.Fatalf("frame round trip allocates %.1f objects, want 0", n)
	}
	if got.OID != req.OID || len(got.Data) != len(req.Data) {
		t.Fatalf("decoded %+v", got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		WriteFrame(&buf, []byte("payload of frame"))
		return buf.Bytes()
	}
	cases := map[string]func([]byte) []byte{
		"bad magic":    func(b []byte) []byte { b[0] = 0x00; return b },
		"flipped bit":  func(b []byte) []byte { b[12] ^= 0x40; return b },
		"bad crc":      func(b []byte) []byte { b[5] ^= 0xFF; return b },
		"huge length":  func(b []byte) []byte { b[3] = 0xFF; b[4] = 0xFF; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-4] },
		"short header": func(b []byte) []byte { return b[:5] },
	}
	readers := map[string]func(io.Reader) error{
		"ReadFrame":   func(r io.Reader) error { _, err := ReadFrame(r); return err },
		"FrameReader": func(r io.Reader) error { _, err := NewFrameReader(r).Next(); return err },
	}
	for name, corrupt := range cases {
		for reader, read := range readers {
			err := read(bytes.NewReader(corrupt(frame())))
			if err == nil {
				t.Fatalf("%s: %s succeeded", name, reader)
			}
			// Header cut below 9 bytes is an io error; all structural damage
			// must be ErrBadFrame.
			if name != "short header" && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: %s: %v, want ErrBadFrame", name, reader, err)
			}
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	f := func(reqID, ack, tid, oid, other, mode, lo, hi uint64, delta int64, data []byte) bool {
		in := &Request{ReqID: reqID, Ack: ack, Op: OpAdd, TID: tid, OID: oid,
			Other: other, Mode: mode, Delta: delta, Lo: lo, Hi: hi, Data: data}
		out, err := DecodeRequest(EncodeRequest(in))
		if err != nil {
			return false
		}
		if len(out.Data) == 0 && len(in.Data) == 0 {
			out.Data, in.Data = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	f := func(reqID, bits, ra, tid, oid, val, aux uint64, status byte, msg string, data []byte) bool {
		in := &Response{ReqID: reqID, Bits: bits, RetryAfter: ra, Msg: msg,
			TID: tid, OID: oid, Val: val, Aux: aux, Status: status, Data: data}
		out, err := DecodeResponse(EncodeResponse(in))
		if err != nil {
			return false
		}
		if len(out.Data) == 0 && len(in.Data) == 0 {
			out.Data, in.Data = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRequest([]byte{0x01}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short request: %v", err)
	}
	if _, err := DecodeResponse([]byte{0x80}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short response: %v", err)
	}
	// Valid shape, invalid op.
	r := EncodeRequest(&Request{Op: Op(200)})
	if _, err := DecodeRequest(r); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad op: %v", err)
	}
	// Claimed bytes length longer than the buffer.
	if _, err := DecodeResponse([]byte{1, 0, 0, 0xFF}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong bytes: %v", err)
	}
}

func TestWireErrorPreservesSentinels(t *testing.T) {
	// Multi-sentinel identity: an abort caused by manager close must
	// answer errors.Is for both, plus the generic retryable tag it rode
	// in with.
	orig := fmt.Errorf("%w: shutting down: %w", core.ErrAborted, core.ErrClosed)
	var resp Response
	resp.SetError(orig, 0)
	err := resp.Err()
	if err == nil {
		t.Fatal("nil error decoded")
	}
	for _, want := range []error{core.ErrAborted, core.ErrClosed} {
		if !errors.Is(err, want) {
			t.Fatalf("lost sentinel %v across the wire", want)
		}
	}
	for _, not := range []error{core.ErrDeadlock, core.ErrOverload, core.ErrEscrow} {
		if errors.Is(err, not) {
			t.Fatalf("gained sentinel %v across the wire", not)
		}
	}
	if err.Error() != orig.Error() {
		t.Fatalf("message %q, want %q", err.Error(), orig.Error())
	}
}

func TestWireErrorRetryableClassification(t *testing.T) {
	// The PR-3 retry policy must see through the wire encoding: what was
	// retryable server-side stays retryable client-side, and vice versa.
	cases := []struct {
		err  error
		want bool
	}{
		{core.ErrDeadlock, true},
		{core.ErrLockTimeout, true},
		{fmt.Errorf("%w (MaxLive=4)", core.ErrOverload), true},
		{core.ErrTxnDeadline, true},
		{core.ErrLeaseExpired, true},
		{core.ErrConnLost, true},
		{core.ErrAborted, false},
		{core.ErrUnknownOutcome, false},
		{core.ErrNoObject, false},
		{errors.New("opaque server failure"), false},
	}
	for _, c := range cases {
		var resp Response
		resp.SetError(c.err, 0)
		if got := core.Retryable(resp.Err()); got != c.want {
			t.Fatalf("Retryable(wire(%v)) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryAfterHint(t *testing.T) {
	var resp Response
	resp.SetError(core.ErrOverload, 1500*time.Microsecond)
	err := resp.Err()
	if got := RetryAfterHint(err); got != 1500*time.Microsecond {
		t.Fatalf("hint = %v", got)
	}
	if got := RetryAfterHint(fmt.Errorf("wrapped: %w", err)); got != 1500*time.Microsecond {
		t.Fatalf("wrapped hint = %v", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("plain error hint = %v", got)
	}
	out, err2 := DecodeResponse(EncodeResponse(&resp))
	if err2 != nil {
		t.Fatal(err2)
	}
	if got := RetryAfterHint(out.Err()); got != 1500*time.Microsecond {
		t.Fatalf("hint lost in round trip: %v", got)
	}
}

func TestSentinelTableStable(t *testing.T) {
	// The bitmask is wire ABI: position changes silently corrupt error
	// identity between mismatched builds. Pin the first rows and the
	// length floor.
	want := []error{core.ErrAborted, core.ErrAlreadyCommitted, core.ErrNotBegun}
	for i, s := range want {
		if Sentinels[i] != s {
			t.Fatalf("Sentinels[%d] = %v, want %v", i, Sentinels[i], s)
		}
	}
	if len(Sentinels) < 21 {
		t.Fatalf("sentinel table shrank to %d entries", len(Sentinels))
	}
	if len(Sentinels) > 62 {
		t.Fatal("sentinel table exceeds the 64-bit bitmask")
	}
}

func TestOpStrings(t *testing.T) {
	for o := Op(1); o < opMax; o++ {
		if !o.Valid() {
			t.Fatalf("op %d invalid inside range", o)
		}
		if s := o.String(); s == "" || s[0] == 'o' && s[1] == 'p' && s[2] == '(' {
			t.Fatalf("op %d has no name", o)
		}
	}
	if Op(0).Valid() || Op(200).Valid() {
		t.Fatal("out-of-range op valid")
	}
}
