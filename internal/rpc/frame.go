// Package rpc is the wire protocol of the networked ASSET tier: a
// length-prefixed, CRC-guarded binary framing with a compact uvarint
// message codec, plus an error encoding that carries sentinel identity
// (errors.Is membership) across the connection.
//
// Design rules, all driven by fault tolerance:
//
//   - One frame per Write call, so the faultnet message faults (drop,
//     dup, reorder, truncate) operate on exactly one protocol message.
//   - Every frame is CRC32-checked; a truncated or corrupted frame is
//     ErrBadFrame, never a misparse. Connections die loudly, not
//     silently wrong.
//   - Every request carries a session-unique request ID; the server
//     remembers completed responses so a retransmitted request (the
//     client's answer to a lost response) returns the recorded verdict
//     instead of re-executing — exactly-once decisions over
//     at-least-once delivery.
//
// Buffer ownership, the rule the allocation-free hot path rests on: a
// frame is built in, and read into, a pooled Buffer, and a decoded
// message's Data aliases the buffer its frame was read into. Whoever
// holds the Buffer owns those bytes until Release; anything that must
// outlive the Release is copied first. The server holds a request's
// buffer until its dispatch has finished; the client copies a response's
// Data once, for the caller, before it releases.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Frame layout: magic byte, uint32 LE payload length, uint32 LE CRC32
// (IEEE) of the payload, payload.
const (
	frameMagic  = 0xA5
	frameHdrLen = 9
	// MaxFrame bounds a frame's payload; larger lengths mean a corrupt
	// header and kill the connection before a bad length allocates GBs.
	MaxFrame = 1 << 20
	// maxPooledBuf is the largest buffer Release keeps: the occasional
	// large object must not pin its megabyte in the pool.
	maxPooledBuf = 64 << 10
)

// ErrBadFrame reports a corrupt frame: wrong magic, ludicrous length, or
// CRC mismatch (the signature of a truncate-mid-frame fault).
var ErrBadFrame = errors.New("rpc: bad frame")

// Buffer is a pooled byte buffer for one frame. B is the caller's to
// slice and append to between GetBuffer and Release.
type Buffer struct{ B []byte }

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 512)} }}

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns b to the pool. Every slice into b.B — a decoded
// message's Data included — is dead after this call.
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// BeginFrame starts a frame in dst's storage: it returns dst emptied and
// extended by the header's bytes, for the payload to be appended after.
// FinishFrame completes it.
func BeginFrame(dst []byte) []byte {
	var hdr [frameHdrLen]byte
	return append(dst[:0], hdr[:]...)
}

// FinishFrame writes the header of a frame begun with BeginFrame, whose
// payload is everything after the header. The frame then goes out in a
// single Write call, the contract that makes message-granularity fault
// injection meaningful.
func FinishFrame(frame []byte) {
	payload := frame[frameHdrLen:]
	frame[0] = frameMagic
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:9], crc32.ChecksumIEEE(payload))
}

// WriteFrame sends payload as one frame in a single Write call.
func WriteFrame(w io.Writer, payload []byte) error {
	buf := GetBuffer()
	defer buf.Release()
	buf.B = append(BeginFrame(buf.B), payload...)
	FinishFrame(buf.B)
	_, err := w.Write(buf.B)
	return err
}

// FrameReader reads frames from one connection. It owns the header
// scratch, so a steady-state read allocates nothing. Not safe for
// concurrent use: a connection has one reader at a time.
type FrameReader struct {
	r   io.Reader
	hdr [frameHdrLen]byte
}

// NewFrameReader returns a frame reader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads and verifies one frame into a pooled buffer; on success the
// buffer's B is the payload and the caller must Release it. Transport
// errors pass through; structural damage is ErrBadFrame.
func (fr *FrameReader) Next() (*Buffer, error) {
	buf := GetBuffer()
	payload, err := fr.read(buf.B)
	if err != nil {
		buf.Release()
		return nil, err
	}
	buf.B = payload
	return buf, nil
}

// read reads one frame's payload into dst's storage, or into a new slice
// of exactly the payload's length when dst is too small.
func (fr *FrameReader) read(dst []byte) ([]byte, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != frameMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFrame, hdr[0])
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: length %d exceeds %d", ErrBadFrame, n, MaxFrame)
	}
	if uint32(cap(dst)) < n {
		dst = make([]byte, n)
	}
	payload := dst[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		// A short body is how a truncate-mid-frame fault usually lands:
		// the header arrived, the tail never will.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated body: %w", ErrBadFrame, err)
		}
		return nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(hdr[5:9]) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	}
	return payload, nil
}

// ReadFrame reads and verifies one frame, returning its payload in a
// slice of its own.
func ReadFrame(r io.Reader) ([]byte, error) {
	fr := FrameReader{r: r}
	return fr.read(nil)
}
