package rpc

// Window is a ring of slots over a dense, monotonically issued ID
// sequence — the shape request IDs have on both ends of a session. IDs at
// or below the floor are retired; the live span is the IDs floor+1 ..
// floor+Len, each with a slot addressed in O(1). The client keeps its
// pending calls in one (the floor is its ack watermark); the server keeps
// its dedup state in one (the floor is the highest acknowledged ID).
//
// The ring doubles when the span outgrows it — one slow request pins the
// floor while later IDs run ahead — and is given back when the span
// empties, so a burst does not stay on the heap. Slots outside the live
// span are always zero. Not safe for concurrent use.
type Window[T any] struct {
	floor uint64
	head  int // ring index of the slot for floor+1
	n     int
	ring  []T // len is 0 or a power of two
}

// minRing is the ring size a window starts at and shrinks back to.
const minRing = 16

// Floor returns the highest retired ID.
func (w *Window[T]) Floor() uint64 { return w.floor }

// Len returns the length of the live span.
func (w *Window[T]) Len() int { return w.n }

// Slot returns id's slot, or nil when id is outside the live span. The
// pointer is valid until the next Reach, Push, PopFront or Reset.
func (w *Window[T]) Slot(id uint64) *T {
	if id <= w.floor || id-w.floor > uint64(w.n) {
		return nil
	}
	return &w.ring[(w.head+int(id-w.floor-1))&(len(w.ring)-1)]
}

// Reach extends the live span to cover id, with zero slots, and returns
// id's slot; nil when id is at or below the floor. The caller bounds how
// far ahead of the floor an ID may be before it calls Reach.
func (w *Window[T]) Reach(id uint64) *T {
	if id <= w.floor {
		return nil
	}
	if span := id - w.floor; span > uint64(w.n) {
		if span > uint64(len(w.ring)) {
			w.grow(int(span))
		}
		w.n = int(span)
	}
	return w.Slot(id)
}

// Push issues the next ID of the sequence, floor+Len+1, with v in its
// slot.
func (w *Window[T]) Push(v T) uint64 {
	id := w.floor + uint64(w.n) + 1
	*w.Reach(id) = v
	return id
}

// Front returns the slot of the lowest live ID, floor+1; nil when the
// span is empty.
func (w *Window[T]) Front() *T {
	if w.n == 0 {
		return nil
	}
	return &w.ring[w.head]
}

// PopFront retires the lowest live ID: its slot is zeroed and the floor
// moves up by one. The span must not be empty.
func (w *Window[T]) PopFront() {
	var zero T
	w.ring[w.head] = zero
	w.head = (w.head + 1) & (len(w.ring) - 1)
	w.n--
	w.floor++
	if w.n == 0 && len(w.ring) > minRing {
		w.ring, w.head = nil, 0
	}
}

// Reset retires every live ID and moves the floor to floor, which must
// not be below the current floor.
func (w *Window[T]) Reset(floor uint64) {
	for w.n > 0 {
		w.PopFront()
	}
	w.floor = floor
}

// grow re-homes the live span in a ring of at least span slots.
func (w *Window[T]) grow(span int) {
	size := max(minRing, len(w.ring))
	for size < span {
		size *= 2
	}
	ring := make([]T, size)
	for i := 0; i < w.n; i++ {
		ring[i] = w.ring[(w.head+i)&(len(w.ring)-1)]
	}
	w.ring, w.head = ring, 0
}
