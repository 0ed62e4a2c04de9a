package server

import (
	"context"
	"errors"
	"testing"

	"repro/internal/rpc"
)

// dedupStep is one event at a session's dedup gate.
type dedupStep struct {
	ack      uint64    // acknowledged floor the request carries
	id       uint64    // request ID arriving (0: ack only)
	dead     bool      // session already expired
	want     admission // what the gate must decide
	finish   bool      // after admitExecute: complete it with Val = id
	wantVal  uint64    // on admitReplay: the recorded response's Val
	wantKill int       // executing requests the ack must cancel
}

// serving returns a worker in the middle of request id whose context is
// cancelled by calling cancel.
func serving(id uint64, cancel context.CancelCauseFunc) *worker {
	return &worker{cur: &inbound{req: rpc.Request{ReqID: id}}, cancel: cancel}
}

func TestDedupWindow(t *testing.T) {
	cases := []struct {
		name  string
		steps []dedupStep
	}{
		{"duplicate of a done request replays, then is retired by its ack", []dedupStep{
			{id: 1, want: admitExecute, finish: true},
			{id: 1, want: admitReplay, wantVal: 1},
			{id: 1, want: admitReplay, wantVal: 1},
			{ack: 1, id: 2, want: admitExecute, finish: true},
			{ack: 1, id: 1, want: admitDrop},
		}},
		{"duplicate of an executing request is dropped", []dedupStep{
			{id: 1, want: admitExecute},
			{id: 1, want: admitDrop},
			{id: 2, want: admitExecute, finish: true},
			{id: 1, want: admitDrop},
		}},
		{"reordered arrivals each execute once", []dedupStep{
			{id: 3, want: admitExecute, finish: true},
			{id: 1, want: admitExecute, finish: true},
			{id: 2, want: admitExecute, finish: true},
			{id: 3, want: admitReplay, wantVal: 3},
			{id: 1, want: admitReplay, wantVal: 1},
			{ack: 2, id: 4, want: admitExecute, finish: true},
			{ack: 2, id: 2, want: admitDrop},
			{ack: 2, id: 3, want: admitReplay, wantVal: 3},
		}},
		{"below-floor ghosts never execute, even on a fresh session", []dedupStep{
			{ack: 4999, id: 5000, want: admitExecute, finish: true},
			{ack: 4999, id: 4999, want: admitDrop},
			{ack: 4999, id: 17, want: admitDrop},
			{ack: 10, id: 5000, want: admitReplay, wantVal: 5000}, // a stale ack moves nothing back
		}},
		{"IDs the server never saw leave free slots that a later copy may still fill", []dedupStep{
			{id: 5, want: admitExecute, finish: true}, // 1..4: heartbeats, hello, lost frames
			{id: 2, want: admitExecute, finish: true},
			{ack: 5, id: 6, want: admitExecute, finish: true},
			{ack: 5, id: 3, want: admitDrop},
		}},
		{"far-ahead ID grows the window; beyond the bound it is refused, not executed", []dedupStep{
			{id: 1, want: admitExecute},
			{id: 50000, want: admitExecute, finish: true},
			{id: 1 + maxAhead, want: admitOverflow}, // floor is 0: exactly one too far
			{id: 1 << 60, want: admitOverflow},
			{id: 50000, want: admitReplay, wantVal: 50000},
			{id: 1, want: admitDrop}, // still executing
		}},
		{"an ack past an executing request cancels it", []dedupStep{
			{id: 1, want: admitExecute},
			{id: 2, want: admitExecute},
			{id: 3, want: admitExecute, finish: true},
			{ack: 2, id: 4, want: admitExecute, finish: true, wantKill: 2},
			{ack: 2, id: 1, want: admitDrop},
			{ack: 2, id: 3, want: admitReplay, wantVal: 3},
		}},
		{"a dead session replays recorded verdicts and refuses everything else", []dedupStep{
			{id: 1, want: admitExecute, finish: true},
			{id: 2, want: admitExecute},
			{id: 1, dead: true, want: admitReplay, wantVal: 1},
			{id: 2, dead: true, want: admitExpired},
			{id: 3, dead: true, want: admitExpired},
			{ack: 1, id: 1, dead: true, want: admitDrop},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d dedup
			var killed []error // causes the current step cancelled requests with
			kill := func(err error) { killed = append(killed, err) }
			for i, st := range tc.steps {
				killed = nil
				d.ack(st.ack)
				if len(killed) != st.wantKill {
					t.Fatalf("step %d: ack(%d) cancelled %d requests, want %d", i, st.ack, len(killed), st.wantKill)
				}
				for _, err := range killed {
					if !errors.Is(err, errAbandoned) {
						t.Fatalf("step %d: ack cancelled with cause %v", i, err)
					}
				}
				if st.id == 0 {
					continue
				}
				got, slot := d.admit(st.id, st.dead)
				if got != st.want {
					t.Fatalf("step %d: admit(%d) = %v, want %v", i, st.id, got, st.want)
				}
				switch got {
				case admitExecute:
					slot.w = serving(st.id, kill)
					if st.finish {
						d.complete(st.id, &rpc.Response{ReqID: st.id, Val: st.id})
						d.cancel(st.id, context.Canceled)
						if len(killed) != st.wantKill {
							t.Fatalf("step %d: done request %d still cancellable", i, st.id)
						}
					}
				case admitReplay:
					if slot.resp.Val != st.wantVal || slot.resp.ReqID != st.id {
						t.Fatalf("step %d: replay of %d carries %+v, want Val %d", i, st.id, slot.resp, st.wantVal)
					}
				}
			}
		})
	}
}

// TestDedupPinnedFloor: one request (a lock wait of seconds) holds the
// floor while 10,000 later requests — other transactions on the session,
// with heartbeat IDs missing in between — execute and complete. Nothing
// wedges and no verdict is dropped: every completed request still replays
// while the floor is pinned; once the slow request is answered and
// acknowledged the whole span retires and the window gives its ring back.
func TestDedupPinnedFloor(t *testing.T) {
	var d dedup
	const slow, later = 1, 10000
	var cancelled error
	verdict, slot := d.admit(slow, false)
	if verdict != admitExecute {
		t.Fatalf("admit(slow) = %v", verdict)
	}
	slot.w = serving(slow, func(err error) { cancelled = err })

	executed := func(id uint64) bool { return id%7 != 0 } // every seventh ID is a heartbeat
	for id := uint64(slow + 1); id <= slow+later; id++ {
		if !executed(id) {
			continue
		}
		// Every request acks slow-1: the client is still waiting on slow.
		if d.ack(slow - 1); cancelled != nil {
			t.Fatalf("ack below the pinned request cancelled it: %v", cancelled)
		}
		if verdict, _ := d.admit(id, false); verdict != admitExecute {
			t.Fatalf("admit(%d) = %v with the floor pinned", id, verdict)
		}
		d.complete(id, &rpc.Response{ReqID: id, Val: id})
	}
	if d.win.Floor() != slow-1 || d.win.Len() < later {
		t.Fatalf("floor %d span %d, want the floor pinned below %d", d.win.Floor(), d.win.Len(), slow)
	}
	for id := uint64(slow + 1); id <= slow+later; id++ {
		verdict, slot := d.admit(id, false)
		switch {
		case !executed(id):
			// Never seen: a first copy would execute. Put it back as found.
			if verdict != admitExecute {
				t.Fatalf("admit(unseen %d) = %v", id, verdict)
			}
			*slot = reqSlot{}
		case verdict != admitReplay || slot.resp.Val != id:
			t.Fatalf("admit(%d) = %v %+v, want its verdict replayed", id, verdict, slot)
		}
	}
	if d.cancel(slow, context.Canceled); cancelled != context.Canceled {
		t.Fatalf("pinned request lost its worker across window growth: cancel reached %v", cancelled)
	}

	d.complete(slow, &rpc.Response{ReqID: slow, Val: slow})
	if verdict, slot := d.admit(slow, false); verdict != admitReplay || slot.resp.Val != slow {
		t.Fatalf("admit(slow) after completion = %v", verdict)
	}
	cancelled = nil
	if d.ack(slow + later); cancelled != nil {
		t.Fatalf("final ack cancelled an answered request: %v", cancelled)
	}
	if d.win.Floor() != slow+later || d.win.Len() != 0 {
		t.Fatalf("floor %d span %d after the final ack", d.win.Floor(), d.win.Len())
	}
	if verdict, _ := d.admit(slow+later, false); verdict != admitDrop {
		t.Fatalf("acknowledged ID admitted: %v", verdict)
	}
}

// TestStaleCancelSparesNextRequest: worker w answered request 7 and now
// serves 8 under the same context. A cancel that still finds w under 7's
// name — here a slot left naming it — must leave 8 alone: the request-ID
// check in cancelLocked is what a worker's reuse rests on, and without it
// this test cancels 8.
func TestStaleCancelSparesNextRequest(t *testing.T) {
	var d dedup
	w := &worker{cur: &inbound{req: rpc.Request{ReqID: 8}}}
	w.ctx, w.cancel = context.WithCancelCause(context.Background())
	for id := uint64(7); id <= 8; id++ {
		verdict, slot := d.admit(id, false)
		if verdict != admitExecute {
			t.Fatalf("admit(%d) = %v", id, verdict)
		}
		slot.w = w
	}
	d.cancel(7, context.Canceled)
	if err := w.ctx.Err(); err != nil {
		t.Fatalf("cancel of request 7 reached the worker serving request 8: %v", err)
	}
	cause := errors.New("cancel of 8")
	d.cancel(8, cause)
	if got := context.Cause(w.ctx); got != cause {
		t.Fatalf("cancel of request 8: worker context cause %v, want %v", got, cause)
	}
}
