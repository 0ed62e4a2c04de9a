package latch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExclusiveMutualExclusion(t *testing.T) {
	var l Latch
	var counter int
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates => no mutual exclusion)", counter, workers*iters)
	}
}

func TestSharedReadersCoexist(t *testing.T) {
	var l Latch
	var inside atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.RLock()
			n := inside.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inside.Add(-1)
			l.RUnlock()
		}()
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent readers = %d, want >= 2", peak.Load())
	}
}

func TestWriterExcludesReaders(t *testing.T) {
	var l Latch
	l.Lock()
	if l.TryRLock() {
		t.Fatal("TryRLock succeeded while X held")
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded while X held")
	}
	l.Unlock()
	if !l.TryRLock() {
		t.Fatal("TryRLock failed on free latch")
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded while S held")
	}
	l.RUnlock()
}

// TestWriterPriority verifies the X-bit blocks new readers while a writer
// waits, the starvation-avoidance property §4.1 calls out.
func TestWriterPriority(t *testing.T) {
	var l Latch
	l.RLock() // existing reader

	writerIn := make(chan struct{})
	go func() {
		l.Lock() // sets X-bit, waits for the reader to drain
		close(writerIn)
		l.Unlock()
	}()

	// Wait until the writer has published the X-bit.
	deadline := time.Now().Add(2 * time.Second)
	for !l.Held() || l.TryRLock() {
		// If TryRLock succeeded the X-bit is not yet set; undo and retry.
		if l.word.Load()&sMask > 1 {
			l.RUnlock()
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never set X-bit")
		}
		time.Sleep(time.Millisecond)
	}

	// New readers must now be blocked.
	if l.TryRLock() {
		t.Fatal("new reader admitted while writer waiting")
	}
	l.RUnlock() // drain the original reader; writer proceeds
	select {
	case <-writerIn:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never acquired after readers drained")
	}
}

func TestUpgrade(t *testing.T) {
	var l Latch
	l.RLock()
	if !l.Upgrade() {
		t.Fatal("Upgrade failed with sole reader")
	}
	if l.TryRLock() {
		t.Fatal("reader admitted after upgrade")
	}
	l.Unlock()

	// Upgrade must fail when a writer already waits.
	l.RLock()
	l.word.Store(l.word.Load() | xBit) // simulate a waiting writer
	if l.Upgrade() {
		t.Fatal("Upgrade succeeded despite waiting writer")
	}
	l.word.Store(0)
}

func TestUnlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unheld latch did not panic")
		}
	}()
	var l Latch
	l.Unlock()
}

func TestRUnlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RUnlock of unheld latch did not panic")
		}
	}()
	var l Latch
	l.RUnlock()
}

func TestMixedReadersWriters(t *testing.T) {
	var l Latch
	shared := make([]int, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Lock()
				for j := range shared {
					shared[j]++
				}
				l.Unlock()
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.RLock()
				v := shared[0]
				for _, x := range shared {
					if x != v {
						panic("torn read under S latch")
					}
				}
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if shared[0] != 4*500 {
		t.Fatalf("shared[0] = %d, want %d", shared[0], 4*500)
	}
}

// TestUpgradeAmongManyReaders: an upgrader among many S holders claims the
// X-bit at once, blocks new readers, and has X only once every other holder
// has left; with a writer already waiting it gives up, its S hold and
// everyone else's intact, and the writer gets in once they all leave.
func TestUpgradeAmongManyReaders(t *testing.T) {
	const others = 64
	var l Latch
	for i := 0; i < others+1; i++ {
		l.RLock()
	}
	upgraded := make(chan bool)
	go func() { upgraded <- l.Upgrade() }()
	awaitXBit(t, &l, "upgrader")
	if l.TryRLock() {
		t.Fatal("new reader admitted while an upgrade waits")
	}
	for i := 0; i < others; i++ {
		select {
		case <-upgraded:
			t.Fatalf("upgrade finished with %d other readers still in", others-i)
		default:
		}
		l.RUnlock()
	}
	if !<-upgraded {
		t.Fatal("Upgrade failed with no writer waiting")
	}
	if got := l.word.Load(); got != xBit {
		t.Fatalf("word after upgrade = %#x, want the X-bit alone", got)
	}
	l.Unlock()

	for i := 0; i < others+1; i++ {
		l.RLock()
	}
	writerIn := make(chan struct{})
	go func() {
		l.Lock()
		close(writerIn)
		l.Unlock()
	}()
	awaitXBit(t, &l, "writer")
	if l.Upgrade() {
		t.Fatal("Upgrade succeeded with a writer waiting")
	}
	if got := l.word.Load(); got != xBit|(others+1) {
		t.Fatalf("word after a refused upgrade = %#x, want the X-bit and %d readers", got, others+1)
	}
	for i := 0; i < others+1; i++ {
		l.RUnlock()
	}
	select {
	case <-writerIn:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never acquired after readers drained")
	}
}

// awaitXBit waits for who, on another goroutine, to set l's X-bit.
func awaitXBit(t *testing.T, l *Latch, who string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.word.Load()&xBit == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s never set the X-bit", who)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTryAcrossXBit: the S-counter fills bits 0..30 of the 32-bit word
// without reaching the X-bit, and the X-bit alone is a full X hold.
func TestTryAcrossXBit(t *testing.T) {
	var l Latch
	l.word.Store(sMask - 1)
	if !l.TryRLock() {
		t.Fatal("TryRLock failed one reader short of the bound")
	}
	if got := l.word.Load(); got != sMask || got&xBit != 0 {
		t.Fatalf("word at the reader bound = %#x, want %#x with the X-bit clear", got, sMask)
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded with 2^31-1 readers")
	}
	l.RUnlock()
	if got := l.word.Load(); got != sMask-1 {
		t.Fatalf("word after RUnlock = %#x, want %#x", got, sMask-1)
	}
	l.word.Store(0)

	if !l.TryLock() {
		t.Fatal("TryLock failed on a free latch")
	}
	if got := l.word.Load(); got != 1<<31 {
		t.Fatalf("X-held word = %#x, want bit 31 alone", got)
	}
	if l.TryRLock() || l.TryLock() {
		t.Fatal("a Try succeeded on an X-held latch")
	}
	l.Unlock()
	if l.Held() || !l.TryRLock() {
		t.Fatal("latch not free after Unlock")
	}
	l.RUnlock()
}
