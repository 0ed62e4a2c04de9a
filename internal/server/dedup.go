package server

import "repro/internal/rpc"

// dedup is a session's at-most-once gate: one window slot per request ID
// above the acknowledged floor. Request IDs are a dense per-session
// sequence, so the slot of an ID is found by offset, not by hashing, and
// an acknowledgement retires slots by moving the floor, not by scanning.
//
//   - An ID at or below the floor is acknowledged: the client has its
//     response, or gave up on it, and any copy still arriving is a
//     network ghost that must not execute again.
//   - A free slot is an ID the server has not executed: never sent here
//     (heartbeats and hellos take IDs too), or lost on the way.
//   - An executing slot names the worker whose context the request runs
//     under (what a cancel looks up); a copy of the request is dropped,
//     because the original will answer.
//   - A done slot holds the recorded response, by value, and replays it
//     to every copy of the request until the client acknowledges it —
//     session death included: the window outlives the session, so a
//     verdict decided before the lease lapsed is still the answer. The
//     response's Data (a Read's bytes) is the window's own: complete
//     copies it into a buffer of the free list, and the ack that retires
//     the slot gives the buffer back. It can alias neither the buffer the
//     worker read into, which its next Read overwrites, nor the cache.
//
// The window grows when a slow request (a lock wait of seconds) pins the
// floor while later IDs run ahead, up to maxAhead; the ring is given back
// once the floor catches up. Guarded by session.mu.
type dedup struct {
	win  rpc.Window[reqSlot]
	free [][]byte // Data buffers of retired slots, for complete to copy into
}

// maxFreeBufs bounds the free list: a client acknowledges as it goes, so
// only the Reads answered and not yet acknowledged hold buffers.
const maxFreeBufs = 16

type reqState uint8

const (
	reqFree reqState = iota
	reqExecuting
	reqDone
)

type reqSlot struct {
	state reqState
	w     *worker      // while executing
	resp  rpc.Response // once done
}

// maxAhead bounds how far above the floor a request ID may be. The ring
// only ever grows to what a session really has in flight; the bound is
// there so that a nonsense ID cannot make it grow to gigabytes.
const maxAhead = 1 << 20

// admission is what the gate decides for one arriving request.
type admission int

const (
	admitExecute  admission = iota // new: the slot is now executing
	admitReplay                    // done: answer with the slot's response
	admitDrop                      // acknowledged ghost, or a copy of an executing request
	admitExpired                   // new, but the session is dead
	admitOverflow                  // new, but further than maxAhead above the floor
)

// ack retires every slot up to and including to. A request still
// executing below the new floor is one the client gave up on (it cannot
// have been answered), so it is cancelled on the way.
func (d *dedup) ack(to uint64) {
	for d.win.Floor() < to {
		slot := d.win.Front()
		if slot == nil {
			d.win.Reset(to)
			break
		}
		if slot.w != nil {
			slot.w.cancelLocked(d.win.Floor()+1, errAbandoned)
		}
		if b := slot.resp.Data; cap(b) > 0 && cap(b) <= maxKeptBuf && len(d.free) < maxFreeBufs {
			d.free = append(d.free, b[:0])
		}
		d.win.PopFront()
	}
}

// admit classifies request id. On admitExecute the returned slot is
// marked executing and the caller names the worker in it; on admitReplay
// it holds the response to send. The slot pointer is valid only until the
// session latch is released.
func (d *dedup) admit(id uint64, dead bool) (admission, *reqSlot) {
	floor := d.win.Floor()
	if id <= floor {
		return admitDrop, nil
	}
	slot := d.win.Slot(id)
	switch {
	case slot != nil && slot.state == reqDone:
		// Recorded verdicts answer first — even on a dead session. A
		// commit that was decided before the lease lapsed must keep
		// returning its decision, never a lease error that would invite a
		// re-run.
		return admitReplay, slot
	case dead:
		return admitExpired, nil
	case slot != nil && slot.state == reqExecuting:
		// A retransmit raced the original; the original will answer.
		return admitDrop, nil
	case id-floor > maxAhead:
		return admitOverflow, nil
	}
	slot = d.win.Reach(id)
	slot.state = reqExecuting
	return admitExecute, slot
}

// complete records resp as id's verdict, with a copy of its Data in a
// buffer of the window's. An ID acknowledged while it was executing has no
// slot any more, and nobody left to ask.
func (d *dedup) complete(id uint64, resp *rpc.Response) {
	slot := d.win.Slot(id)
	if slot == nil {
		return
	}
	*slot = reqSlot{state: reqDone, resp: *resp}
	slot.resp.Data = nil
	if len(resp.Data) > 0 {
		var b []byte
		if n := len(d.free); n > 0 {
			b, d.free[n-1], d.free = d.free[n-1], nil, d.free[:n-1]
		}
		slot.resp.Data = append(b, resp.Data...)
	}
}

// cancel cancels request id if it is executing.
func (d *dedup) cancel(id uint64, cause error) {
	if slot := d.win.Slot(id); slot != nil && slot.w != nil {
		slot.w.cancelLocked(id, cause)
	}
}
