package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEngine is an executor with one latch in front of everything, like a
// manager mutex: each transaction holds it for work, and the stallAt-th
// one holds it for stall as well.
type fakeEngine struct {
	mu      sync.Mutex
	calls   int
	stallAt int
	stall   time.Duration
	work    time.Duration
}

func (f *fakeEngine) run(_ *worker, _ txnSpec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls == f.stallAt {
		time.Sleep(f.stall)
	}
	for t0 := time.Now(); time.Since(t0) < f.work; {
	}
	return nil
}

func TestOpenLoopChargesAStallToLaterArrivals(t *testing.T) {
	const rate, dur, stall = 2000.0, time.Second, 200 * time.Millisecond
	sc := newScript(1)
	arrivals := poissonArrivals(1, rate, int(rate*dur.Seconds()))
	f := &fakeEngine{stallAt: 500, stall: stall, work: 20 * time.Microsecond}
	open, err := runOpen(f, sc, newWorkers(4), idxOpen, arrivals, 1, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if open.ok != int64(len(arrivals)) || open.fail != 0 {
		t.Fatalf("ok %d fail %d, want all %d ok", open.ok, open.fail, len(arrivals))
	}
	// The stall covers a fifth of the schedule. Every arrival due during it
	// waited for it to end, so about a tenth of all latencies exceed half
	// the stall. A closed loop would have had one slow call per worker.
	if p99 := time.Duration(open.lat.Quantile(0.99)); p99 < stall/2 {
		t.Errorf("open-loop p99 %v omits the queueing behind a %v stall", p99, stall)
	}
	if p50 := time.Duration(open.lat.Quantile(0.50)); p50 > stall/10 {
		t.Errorf("open-loop p50 %v: the backlog never drained", p50)
	}
	closed := runClosed(&fakeEngine{stallAt: 500, stall: stall, work: 20 * time.Microsecond}, sc, newWorkers(4), idxClosed, dur, uint32(len(arrivals)), 1)
	if p99 := time.Duration(closed.lat.Quantile(0.99)); p99 > stall/2 {
		t.Errorf("closed-loop p99 %v: the fake is too slow to show the contrast", p99)
	}
	if open.schedLag.Count() == 0 {
		t.Error("no generator lag was recorded")
	}
	t.Logf("open p99 %v, closed p99 %v, sched lag p99 %v", time.Duration(open.lat.Quantile(0.99)),
		time.Duration(closed.lat.Quantile(0.99)), time.Duration(open.schedLag.Quantile(0.99)))
	if open.saturated {
		t.Errorf("a stall the pool recovers from was flagged saturated: offered %.0f achieved %.0f", open.offered, open.achieved)
	}
}

func TestOpenLoopFlagsARateAboveCapacity(t *testing.T) {
	// Two workers behind one latch at 1 ms a call serve at most 1000/s.
	const rate = 4000.0
	arrivals := poissonArrivals(2, rate, 1000)
	f := &fakeEngine{work: time.Millisecond}
	open, err := runOpen(f, newScript(2), newWorkers(2), idxOpen, arrivals, 1, 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !open.saturated {
		t.Errorf("offered %.0f/s against a capacity of 1000/s was not flagged saturated (achieved %.0f)", open.offered, open.achieved)
	}
	if got := open.ok + open.fail; got != int64(len(arrivals)) {
		t.Errorf("%d of %d arrivals accounted for: the schedule was under-offered", got, len(arrivals))
	}
	if open.undrained == 0 || open.fail != open.undrained {
		t.Errorf("undrained %d, fail %d: arrivals past the drain deadline must count as failures", open.undrained, open.fail)
	}
	if open.achieved > 1100 {
		t.Errorf("achieved %.0f/s exceeds the fake's capacity", open.achieved)
	}
}

func TestOpenLoopDoesNotTakeALateStallForSaturation(t *testing.T) {
	// The engine hangs for a tenth of the phase just before the last
	// arrivals, so the phase ends late and its overall rate falls short;
	// the pool was never behind before that.
	const rate = 2000.0
	arrivals := poissonArrivals(4, rate, 2000)
	f := &fakeEngine{stallAt: 1950, stall: 100 * time.Millisecond, work: 20 * time.Microsecond}
	open, err := runOpen(f, newScript(4), newWorkers(4), idxOpen, arrivals, 10, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if open.achieved >= 0.98*open.offered {
		t.Skipf("the stall did not stretch the phase: offered %.0f achieved %.0f", open.offered, open.achieved)
	}
	if open.saturated {
		t.Errorf("a stall at the end was flagged saturated: offered %.0f achieved %.0f", open.offered, open.achieved)
	}
}

func TestBehindTellsOverloadFromAStall(t *testing.T) {
	arrivals := make([]int64, 1000)
	for i := range arrivals {
		arrivals[i] = int64(i+1) * int64(time.Millisecond)
	}
	const winLen = 100 * time.Millisecond
	overload := [][]int64{{50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 500}}
	if n := behind(arrivals, overload, winLen); n != 10 {
		t.Errorf("a pool serving half the rate is behind at %d of 10 boundaries", n)
	}
	stall := [][]int64{{100, 100, 100, 0, 0, 300, 100, 100, 100, 100, 0}}
	if n := behind(arrivals, stall, winLen); n != 2 {
		t.Errorf("a pool that stalled for two windows and caught up is behind at %d of 10 boundaries", n)
	}
}

func TestOpenLoopPausesOnceWithThePoolQuiesced(t *testing.T) {
	arrivals := poissonArrivals(3, 2000, 400)
	var running, pauses atomic.Int64
	x := executorFunc(func() {
		running.Add(1)
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
	})
	open, err := runOpen(x, newScript(3), newWorkers(4), idxOpen, arrivals, 1, time.Second, func() error {
		pauses.Add(1)
		if n := running.Load(); n != 0 {
			t.Errorf("pause ran with %d transactions in flight", n)
		}
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pauses.Load() != 1 {
		t.Fatalf("pause ran %d times", pauses.Load())
	}
	if open.pauseDur < 20*time.Millisecond || open.pauseStall.Count() == 0 {
		t.Errorf("pause took %v and stalled %d arrivals; want at least 20ms and some", open.pauseDur, open.pauseStall.Count())
	}
}

type executorFunc func()

func (f executorFunc) run(*worker, txnSpec) error { f(); return nil }
