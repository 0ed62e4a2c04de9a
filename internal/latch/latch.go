// Package latch implements the short-term S/X latches of the EOS storage
// manager (§4.1 of the paper). A latch protects a cached object or control
// structure for the duration of a single read or write; it is held much more
// briefly than a lock and is never subject to deadlock detection.
//
// Per the paper, a latch is built from an atomic test-and-set word holding an
// S-counter (number of shared holders) and an X-bit (a writer holds or is
// waiting for the latch). The X-bit blocks new readers, preventing
// starvation of update transactions. A process that cannot set the latch
// spins on it with a time-varying backoff.
//
// The word is 32 bits, so a latch costs 4 bytes: bit 31 is the X-bit and
// bits 0..30 count S holders. At most 2³¹−1 goroutines may hold one latch
// in S mode at once; one more would carry into the X-bit. Each holder is a
// live goroutine, so the bound is far past any that can exist.
package latch

import (
	"runtime"
	"sync/atomic"
)

// Word layout: bit 31 = X-bit (exclusive held or wanted), bits 0..30 =
// S-counter (number of shared holders).
const (
	xBit  = uint32(1) << 31
	sMask = xBit - 1
)

// Latch is a shared/exclusive spin latch. The zero value is an unheld latch
// ready for use.
type Latch struct {
	word atomic.Uint32
}

// backoff yields the processor with an escalating delay so spinners do not
// monopolize a core. spin is the caller's iteration count.
func backoff(spin int) {
	if spin < 8 {
		return // brief busy-wait first; latch hold times are tiny
	}
	runtime.Gosched()
}

// RLock acquires the latch in shared (S) mode, blocking while a writer holds
// or awaits the latch.
func (l *Latch) RLock() {
	for spin := 0; ; spin++ {
		w := l.word.Load()
		if w&xBit == 0 {
			if l.word.CompareAndSwap(w, w+1) {
				return
			}
			continue
		}
		backoff(spin)
	}
}

// TryRLock attempts to acquire the latch in shared mode without blocking and
// reports whether it succeeded.
func (l *Latch) TryRLock() bool {
	w := l.word.Load()
	return w&xBit == 0 && l.word.CompareAndSwap(w, w+1)
}

// RUnlock releases one shared hold. It panics if the latch is not held in
// shared mode, since that is always a programming error.
func (l *Latch) RUnlock() {
	for {
		w := l.word.Load()
		if w&sMask == 0 {
			panicNotHeld("latch: RUnlock of latch not held in S mode")
		}
		if l.word.CompareAndSwap(w, w-1) {
			return
		}
	}
}

// Lock acquires the latch in exclusive (X) mode. It first sets the X-bit so
// new readers are blocked, then waits for existing readers to drain.
func (l *Latch) Lock() {
	// Set the X-bit, contending with other writers.
	for spin := 0; ; spin++ {
		w := l.word.Load()
		if w&xBit == 0 {
			if l.word.CompareAndSwap(w, w|xBit) {
				break
			}
			continue
		}
		backoff(spin)
	}
	// Wait for the S-counter to drain.
	for spin := 0; l.word.Load()&sMask != 0; spin++ {
		backoff(spin)
	}
}

// TryLock attempts to acquire the latch in exclusive mode without blocking
// and reports whether it succeeded.
func (l *Latch) TryLock() bool {
	return l.word.CompareAndSwap(0, xBit)
}

// Unlock releases an exclusive hold. It panics if the latch is not held in
// exclusive mode.
func (l *Latch) Unlock() {
	for {
		w := l.word.Load()
		if w&xBit == 0 {
			panicNotHeld("latch: Unlock of latch not held in X mode")
		}
		if l.word.CompareAndSwap(w, w&^xBit) {
			return
		}
	}
}

// Upgrade converts a shared hold into an exclusive hold. It returns false —
// leaving the shared hold intact — if another writer is already waiting, in
// which case the caller must release and re-acquire to avoid deadlocking
// against that writer.
func (l *Latch) Upgrade() bool {
	// Claim the X-bit while still holding our S count.
	for {
		w := l.word.Load()
		if w&xBit != 0 {
			return false
		}
		if l.word.CompareAndSwap(w, w|xBit) {
			break
		}
	}
	// Drop our own S hold, then wait for other readers to drain.
	l.word.Add(^uint32(0)) // -1 on the S-counter
	for spin := 0; l.word.Load()&sMask != 0; spin++ {
		backoff(spin)
	}
	return true
}

// panicNotHeld reports an unlock of a latch that is not held, always a
// programming error. Outlined so the message's conversion to an interface
// value stays out of every function an unlock is inlined into, whose
// warmed paths TestAcquireReleaseAllocBudget and TestLocalTxnAllocBudget
// hold to their allocation budgets.
//
//go:noinline
func panicNotHeld(msg string) { panic(msg) }

// Held reports whether any goroutine currently holds the latch in either
// mode. It is advisory, for tests and assertions only.
func (l *Latch) Held() bool { return l.word.Load() != 0 }
