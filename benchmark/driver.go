package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/benchmark/hist"
)

// phaseResult is what one load phase measured.
type phaseResult struct {
	wall     time.Duration
	ok, fail int64
	lat      hist.Hist
	byKind   [numKinds]hist.Hist
	// Per-window figures; the end-to-end metrics are their quiet quartile
	// (see quiet).
	wins       []hist.Hist // latency by completion (closed) or intended start (open)
	winGoodput []float64   // successes per second
	winCPU     []float64   // closed loop only: process CPU microseconds per success

	// Open loop only.
	offered, achieved float64   // arrivals and completions per second
	schedLag          hist.Hist // how late the generator released an arrival it was waiting for
	undrained         int64     // arrivals not started by the drain deadline; counted as failures
	saturated         bool      // the pool could not keep up with the schedule (see behind)
	pauseDur          time.Duration
	pauseStall        hist.Hist // latency of the transactions that overlapped the midpoint pause
}

// goodput is successes per second of wall time over the whole phase.
func (r *phaseResult) goodput() float64 { return float64(r.ok) / r.wall.Seconds() }

// winQuantile is the q-quantile of every window, in nanoseconds.
func (r *phaseResult) winQuantile(q float64) []float64 {
	out := make([]float64, len(r.wins))
	for i := range r.wins {
		out[i] = r.wins[i].Quantile(q)
	}
	return out
}

func (r *phaseResult) merge(workers []*worker, windows int, winLen time.Duration) {
	r.wins = make([]hist.Hist, windows)
	winOK := make([]int64, windows)
	for _, w := range workers {
		r.ok += w.ok
		r.fail += w.fail
		r.lat.Merge(&w.lat)
		for k := range r.byKind {
			r.byKind[k].Merge(&w.byKind[k])
		}
		for i := range r.wins {
			r.wins[i].Merge(&w.win[i])
			winOK[i] += w.winOK[i]
		}
	}
	for i := range r.wins {
		r.winGoodput = append(r.winGoodput, float64(winOK[i])/winLen.Seconds())
	}
}

func (w *worker) observe(kind txnKind, id uint32, window int, ns int64, err error) {
	if window >= len(w.win) {
		window = len(w.win) - 1
	}
	if err != nil {
		w.fail++
		if len(w.errs) < 3 {
			w.errs = append(w.errs, fmt.Errorf("%s %d: %w", kindNames[kind], id, err))
		}
		return
	}
	w.ok++
	w.winOK[window]++
	w.lat.Record(ns)
	w.byKind[kind].Record(ns)
	w.win[window].Record(ns)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runClosed drives the script closed-loop: each worker starts its next
// transaction when the previous one ends. It stops after dur, or after
// limit transactions when limit is not zero. Entries are handed out by a
// shared counter, so the set executed is a prefix of the script from base.
func runClosed(x executor, sc *script, workers []*worker, base uint32, dur time.Duration, limit uint32, windows int) *phaseResult {
	winLen := dur / time.Duration(windows)
	for _, w := range workers {
		w.resetPhase(windows)
	}
	var next atomic.Uint32
	var wg sync.WaitGroup
	start := time.Now()
	// CPU time at each window boundary, read by a sampler of its own.
	cpu := make([]time.Duration, 1, windows+1)
	cpu[0] = cpuTime()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 1; i <= windows; i++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(i) * winLen))):
				cpu = append(cpu, cpuTime())
			case <-stop:
				return
			}
		}
	}()
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				i := next.Add(1) - 1
				if limit != 0 && i >= limit {
					return
				}
				t := sc.at(base + i)
				err := x.run(w, t)
				end := time.Now()
				w.observe(t.kind, t.id, int(end.Sub(start)/winLen), int64(end.Sub(t0)), err)
			}
		}()
	}
	wg.Wait()
	r := &phaseResult{wall: time.Since(start)}
	close(stop)
	<-sampled
	r.merge(workers, windows, winLen)
	for i := 1; i < len(cpu); i++ {
		if ok := r.winGoodput[i-1] * winLen.Seconds(); ok > 0 {
			r.winCPU = append(r.winCPU, float64((cpu[i]-cpu[i-1]).Microseconds())/ok)
		}
	}
	return r
}

// The generator has to wake on time without getting in the engine's way.
// time.Sleep is out: the runtime parks in epoll_wait, whose timeout counts
// whole milliseconds, fifty in-memory transactions. Yielding in a loop is
// exact but keeps a processor looking busy, and a processor that never
// idles polls the network late, which tripled the latency of the workloads
// that go over TCP. So a long wait sleeps in nanosleep(2), which releases
// the processor and wakes about 70 us late, until sleepMargin before the
// arrival is due; the last stretch is yielded away, and the last
// spinBelow of it spun through, so that a transaction body given the
// processor does not make the arrival late.
const (
	sleepMargin = 150 * time.Microsecond
	spinBelow   = 50 * time.Microsecond
)

// waitUntil blocks until start+due.
func waitUntil(start time.Time, due time.Duration) {
	for {
		left := due - time.Since(start)
		switch {
		case left <= 0:
			return
		case left > sleepMargin:
			ts := syscall.NsecToTimespec(int64(left - sleepMargin))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up just loops
		case left > spinBelow:
			runtime.Gosched()
		}
	}
}

// runOpen drives the script open-loop: arrival i is due arrivals[i]
// nanoseconds after the phase starts whether or not earlier ones have
// finished, and its latency runs from that intended start, so the queueing
// a stall imposes on later arrivals is measured. A pool of workers serves
// the schedule; one of them at a time holds the dispenser and waits for
// the next arrival. Arrivals not started within drain of the last one are
// failures. pause, when not nil, runs once at the midpoint with the pool
// quiesced (the engines' checkpoint needs that).
func runOpen(x executor, sc *script, workers []*worker, base uint32, arrivals []int64, windows int, drain time.Duration, pause func() error) (*phaseResult, error) {
	r := &phaseResult{}
	if len(arrivals) == 0 {
		return r, nil
	}
	last := time.Duration(arrivals[len(arrivals)-1])
	winLen := last/time.Duration(windows) + 1
	for _, w := range workers {
		w.resetPhase(windows)
	}
	var (
		disp     sync.Mutex // held by the worker waiting for the next arrival
		next     int
		inflight atomic.Int64
		// Written under disp by the worker that runs the pause; read under
		// disp by everyone else.
		paused               bool
		pauseErr             error
		pauseStart, pauseEnd time.Duration
	)
	lags := make([]hist.Hist, len(workers))
	stalls := make([]hist.Hist, len(workers))
	undrained := make([]int64, len(workers))
	lastEnd := make([]time.Duration, len(workers))
	// Transactions finished per window of finishing time; the last slot is
	// for those that finished after the schedule's end.
	done := make([][]int64, len(workers))
	for i := range done {
		done[i] = make([]int64, windows+1)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for wi, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				disp.Lock()
				if next >= len(arrivals) {
					disp.Unlock()
					return
				}
				i := next
				next++
				due := time.Duration(arrivals[i])
				t := sc.at(base + uint32(i))
				if pause != nil && !paused && due >= last/2 {
					paused = true
					pauseStart = time.Since(start)
					for inflight.Load() != 0 {
						time.Sleep(50 * time.Microsecond)
					}
					t0 := time.Now()
					pauseErr = pause()
					r.pauseDur = time.Since(t0)
					pauseEnd = time.Since(start)
				}
				// An arrival that fell due while the pool was paused waited
				// for the pause to end.
				stalled := paused && due >= pauseStart && due <= pauseEnd
				if time.Since(start) < due {
					waitUntil(start, due)
					lags[wi].Record(int64(time.Since(start) - due))
				}
				inflight.Add(1)
				disp.Unlock()
				if time.Since(start) > last+drain {
					undrained[wi]++
					inflight.Add(-1)
					continue
				}
				err := x.run(w, t)
				end := time.Since(start)
				inflight.Add(-1)
				lastEnd[wi] = end
				done[wi][min(int(end/winLen), windows)]++
				w.observe(t.kind, t.id, int(due/winLen), int64(end-due), err)
				if stalled && err == nil {
					stalls[wi].Record(int64(end - due))
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.merge(workers, windows, winLen)
	for i := range workers {
		r.schedLag.Merge(&lags[i])
		r.pauseStall.Merge(&stalls[i])
		r.undrained += undrained[i]
	}
	r.fail += r.undrained
	r.offered = float64(len(arrivals)) / last.Seconds()
	served := last
	for _, e := range lastEnd {
		served = max(served, e)
	}
	r.achieved = float64(r.ok+r.fail-r.undrained) / served.Seconds()
	r.saturated = r.undrained > 0 || 2*behind(arrivals, done, winLen) > windows
	return r, pauseErr
}

// behind counts the window boundaries at which more than 2% of the arrivals
// due by then had not finished. Under a rate the pool cannot serve the
// backlog grows from the start, so nearly every boundary is behind and the
// phase is saturated; a stall, however long, puts only the boundaries it
// covers behind, and the pool catches up after it. Judging the whole phase
// by its end alone would call a run saturated whose disk hung for a second
// just before the last arrival.
func behind(arrivals []int64, done [][]int64, winLen time.Duration) int {
	n, due, finished := 0, 0, int64(0)
	for i := 0; i < len(done[0])-1; i++ {
		boundary := int64(i+1) * int64(winLen)
		for due < len(arrivals) && arrivals[due] <= boundary {
			due++
		}
		for _, d := range done {
			finished += d[i]
		}
		if float64(finished) < 0.98*float64(due) {
			n++
		}
	}
	return n
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func medianInt64(v []int64) int64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return int64(median(f))
}
