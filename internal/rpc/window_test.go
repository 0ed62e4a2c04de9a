package rpc

import "testing"

// TestWindow drives the ring through the shapes a session produces:
// in-order issue and retirement, a pinned floor that forces growth across
// a wrapped ring, sparse out-of-order reach, and the give-back once the
// span empties.
func TestWindow(t *testing.T) {
	var w Window[int]
	if w.Front() != nil || w.Slot(1) != nil || w.Reach(0) != nil {
		t.Fatal("empty window hands out slots")
	}
	// Issue and retire in order, far past the first ring size, so head
	// wraps many times without growth.
	for i := 1; i <= 10*minRing; i++ {
		if id := w.Push(i); id != uint64(i) {
			t.Fatalf("Push issued %d, want %d", id, i)
		}
		if got := *w.Slot(uint64(i)); got != i {
			t.Fatalf("slot %d holds %d", i, got)
		}
		w.PopFront()
	}
	if w.Floor() != 10*minRing || w.Len() != 0 || len(w.ring) != minRing {
		t.Fatalf("floor %d len %d ring %d after in-order run", w.Floor(), w.Len(), len(w.ring))
	}

	// Pin the floor: the front stays, 10,000 IDs run ahead. Start from a
	// head in mid-ring so growth has to unroll a wrapped span.
	for i := 0; i < minRing-3; i++ {
		w.Push(-1)
		w.PopFront()
	}
	base := w.Floor()
	pinned := w.Push(42)
	for i := 1; i <= 10000; i++ {
		if id := w.Push(i); id != pinned+uint64(i) {
			t.Fatalf("Push issued %d, want %d", id, pinned+uint64(i))
		}
	}
	if *w.Front() != 42 || *w.Slot(pinned) != 42 {
		t.Fatalf("pinned slot lost across growth: front %d", *w.Front())
	}
	for i := 1; i <= 10000; i += 997 {
		if got := *w.Slot(pinned + uint64(i)); got != i {
			t.Fatalf("slot %d holds %d after growth", i, got)
		}
	}
	if w.Floor() != base || w.Len() != 10001 {
		t.Fatalf("floor %d (want %d) len %d", w.Floor(), base, w.Len())
	}
	if w.Slot(base) != nil || w.Slot(pinned+10001) != nil {
		t.Fatal("Slot reaches outside the live span")
	}

	// Sparse reach: slots in between are zero, never stale.
	*w.Reach(pinned + 10500) = 7
	if got := *w.Slot(pinned + 10400); got != 0 {
		t.Fatalf("unreached slot holds %d", got)
	}

	// Retire everything: the floor lands on the last ID and the inflated
	// ring is given back.
	for w.Len() > 0 {
		w.PopFront()
	}
	if w.Floor() != pinned+10500 || w.ring != nil {
		t.Fatalf("floor %d ring %d after drain", w.Floor(), len(w.ring))
	}
	// A popped slot is zero when its ring position comes round again.
	w.Push(1)
	w.PopFront()
	if got := *w.Reach(w.Floor() + minRing); got != 0 {
		t.Fatalf("recycled ring position holds %d", got)
	}

	w.Reset(w.Floor() + 1000)
	if w.Len() != 0 || w.Reach(w.Floor()) != nil {
		t.Fatal("Reset left a live span")
	}
	if id := w.Push(5); id != w.Floor()+1 {
		t.Fatalf("Push after Reset issued %d with floor %d", id, w.Floor())
	}
}
