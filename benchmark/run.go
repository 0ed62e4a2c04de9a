package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	asset "repro"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int    // measured load; split between the phases
	scratch  string // engines' files
}

// runResult is what one pass over one workload found.
type runResult struct {
	attempted, failed int64
	violations        violations
	metrics           values
}

const (
	setupRepeats = 3
	windows      = 20
	drainAfter   = 5 * time.Second
	// tracedLimit is the issue's 20,000 (the traced pass also ends after a
	// quarter of the measured seconds); recoverTail is cut from its 50,000,
	// and written by the whole pool so that cohorts form and it takes
	// seconds. The driver makes 92 runs inside 57 minutes, so a run has 36
	// seconds for everything, and the open phase is the last thing to
	// shorten.
	tracedLimit = 20000
	recoverTail = 10000
)

// clients is C: the closed-loop client count and the sessions per node.
func clients() int { return min(runtime.GOMAXPROCS(0), 4) }

func newWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{id: i}
	}
	return ws
}

func newExecutor(e *engine) executor {
	if wlOverWire(e.workload) {
		return &remoteExec{e: e}
	}
	return &localExec{m: e.nodes[0].m}
}

// reportFailures turns the first failed transactions into violations, so a
// run that failed says why.
func (r *runResult) reportFailures(workers []*worker) {
	for _, w := range workers {
		for _, err := range w.errs {
			r.violations.addf("transaction failed: %v", err)
		}
	}
}

// usage is a point-in-time reading of what the process and the engines
// have consumed.
type usage struct {
	mallocs  uint64
	bytes    uint64
	logBytes int64
	stats    asset.Stats
	forces   uint64
}

func readUsage(e *engine) usage {
	var u usage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.bytes = ms.Mallocs, ms.TotalAlloc
	u.logBytes = e.logBytes()
	for _, nd := range e.nodes {
		s := nd.m.Stats()
		u.stats.Commits += s.Commits
		u.stats.Aborts += s.Aborts
		u.stats.Deadlocks += s.Deadlocks
		u.stats.GroupSize += s.GroupSize
		u.stats.LogForces += s.LogForces
		u.stats.Retries += s.Retries
		u.forces += nd.m.PhysicalForces()
	}
	return u
}

func harnessRetries(workers []*worker) int64 {
	var n int64
	for _, w := range workers {
		n += w.led.retries
	}
	return n
}

// warmUp is how long every set-up drives the engine before anything is
// measured.
func warmUp(n int) time.Duration { return min(time.Second, seconds(n, 0.2)) }

// seconds is the given share of n seconds.
func seconds(n int, share float64) time.Duration {
	return time.Duration(float64(n) * share * float64(time.Second))
}

func us(ns float64) float64 { return ns / 1e3 }

// checkpointPause is the open phase's midpoint pause on the arrangements
// that have something to checkpoint.
func checkpointPause(e *engine) func() error {
	if e.dir == "" {
		return nil
	}
	return func() error {
		var err error
		// The pool is quiesced, but a server may still be retiring the
		// last transaction's descriptor.
		for try := 0; try < 100; try++ {
			if err = e.checkpoint(); err == nil {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return err
	}
}

func openArrivals(cfg runConfig, dur time.Duration) []int64 {
	rate := openRate[cfg.workload]
	return poissonArrivals(cfg.seed, rate, int(rate*dur.Seconds()))
}

// runEndToEnd measures the end-to-end metrics, with tracing off: set-up
// (which ends with a warm-up whose results are discarded), the closed phase,
// the open phase, the checker, whose reopen on a durable arrangement is the
// timed recovery, and then set-up again, twice, for its median. The repeats
// come last so that the measured phases start from one set-up's worth of
// written pages, not three.
func runEndToEnd(cfg runConfig) (*runResult, error) {
	sc := newScript(cfg.seed)
	c := clients()
	res := &runResult{metrics: values{}}
	m := res.metrics
	setups := make([]float64, 0, setupRepeats)
	// setUp opens and loads the arrangement and warms it up with the first c
	// of the given workers.
	setUp := func(pool []*worker) (*engine, error) {
		t0 := time.Now()
		e, err := openEngine(cfg.workload, cfg.scratch, c)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := runClosed(newExecutor(e), sc, pool[:c], idxWarmup, warmUp(cfg.seconds), 0, 1)
		res.attempted += warm.ok + warm.fail
		res.failed += warm.fail
		setups = append(setups, time.Since(t0).Seconds())
		return e, nil
	}
	pool := newWorkers(4 * c)
	e, err := setUp(pool)
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }() //nolint:errcheck // the run's outcome is already decided
	x := newExecutor(e)

	// As testing.B does, a timed phase starts from a collected heap.
	heapSetUp := liveHeap()
	before := readUsage(e)
	closed := runClosed(x, sc, pool[:c], idxClosed, seconds(cfg.seconds, 1.0/3), 0, windows)
	after := readUsage(e)
	res.attempted += closed.ok + closed.fail
	res.failed += closed.fail
	closed.closedMetrics(cfg.workload, m)
	ok := float64(max(closed.ok, 1))
	m["allocs_per_txn"] = float64(after.mallocs-before.mallocs) / ok
	m["alloc_bytes_per_txn"] = float64(after.bytes-before.bytes) / ok
	if e.dir != "" {
		m["log_bytes_per_txn"] = float64(after.logBytes-before.logBytes) / ok
	}

	heapClosed := liveHeap()
	open, err := runOpen(x, sc, pool, idxOpen, openArrivals(cfg, seconds(cfg.seconds, 2.0/3)), windows, drainAfter, checkpointPause(e))
	if err != nil {
		return nil, fmt.Errorf("open phase: %w", err)
	}
	res.attempted += open.ok + open.fail
	res.failed += open.fail
	open.openMetrics(cfg.workload, m)
	res.violations.saturation(open)

	// The closed phase runs for a fixed time, so what it leaves on the heap
	// follows the host's speed of the minute (a tenth of mem's heap, either
	// way); the open phase runs a fixed number of transactions. The live
	// heap is therefore reported without the closed phase's share.
	m["heap_live_mb"] = float64(liveHeap()-(heapClosed-heapSetUp)) / (1 << 20)

	found, reopen, err := checkAll(e, pool)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	res.reportFailures(pool)
	res.violations = append(res.violations, found...)
	if e.dir != "" {
		m["recover_s"] = reopen.Seconds()
	}
	m["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))

	for len(setups) < setupRepeats {
		if err := e.close(); err != nil {
			return nil, err
		}
		runtime.GC()
		if e, err = setUp(newWorkers(c)); err != nil {
			return nil, err
		}
	}
	m["setup_s"] = median(setups)
	return res, nil
}

// closedMetrics fills the end-to-end metrics a closed phase yields, each
// the quiet quartile of the phase's windows.
func (r *phaseResult) closedMetrics(wl string, m values) {
	m["closed_goodput_txn_s"] = quiet(r.winGoodput, higher)
	m["cpu_us_per_txn"] = quiet(r.winCPU, lower)
	printWindows(wl, "closed goodput txn/s", r.winGoodput, 1)
	printWindows(wl, "closed cpu us/txn", r.winCPU, 1)
}

// openMetrics fills the end-to-end metrics an open phase yields, likewise,
// and prints what the whole phase read next to them: its percentiles take in
// the checkpoint, every collection and every stolen vCPU, and move by
// multiples from run to run.
func (r *phaseResult) openMetrics(wl string, m values) {
	p50, p99 := r.winQuantile(0.50), r.winQuantile(0.99)
	m["open_p50_us"] = us(quiet(p50, lower))
	m["open_p99_us"] = us(quiet(p99, lower))
	printWindows(wl, "open p50 us", p50, 1e-3)
	printWindows(wl, "open p99 us", p99, 1e-3)
	fmt.Printf("%s open phase: %d samples, whole-phase p50 %.1f us, p99 %.1f us, offered %.0f txn/s, achieved %.0f, generator lag p99 %.1f us\n",
		wl, r.lat.Count(), us(r.lat.Quantile(0.50)), us(r.lat.Quantile(0.99)), r.offered, r.achieved, us(r.schedLag.Quantile(0.99)))
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// printWindows prints a phase's per-window figures, so that a run whose
// metrics look odd shows which windows were disturbed.
func printWindows(wl, what string, v []float64, scale float64) {
	fmt.Printf("%s windows, %s:", wl, what)
	for _, x := range v {
		fmt.Printf(" %.1f", x*scale)
	}
	fmt.Println()
}

// saturation makes an open phase the pool could not keep up with a
// violation: its latencies measure the backlog, not the engine.
func (v *violations) saturation(open *phaseResult) {
	if open.saturated {
		v.addf("open phase saturated: offered %.0f txn/s, achieved %.0f, %d arrivals never started",
			open.offered, open.achieved, open.undrained)
	}
}

// runTraced measures the per-layer metrics: the standalone probes, an
// untraced closed window with the public counters read around it, the
// traced pass, an open phase for the per-type latencies, and on a durable
// arrangement the recover tail.
func runTraced(cfg runConfig) (*runResult, error) {
	sc := newScript(cfg.seed)
	c := clients()
	res := &runResult{metrics: values{}}
	m := res.metrics
	if err := runProbes(cfg.scratch, c, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	hash, _ := sc.digest(scriptHashLen)
	// The low 32 bits are exact in a float64 and enough to tell scripts
	// apart.
	m["harness.script_hash"] = float64(hash & math.MaxUint32)

	e, err := openEngine(cfg.workload, cfg.scratch, c)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close() //nolint:errcheck // the run's outcome is already decided
	x := newExecutor(e)
	pool := newWorkers(4 * c)
	count := func(r *phaseResult) {
		res.attempted += r.ok + r.fail
		res.failed += r.fail
	}
	count(runClosed(x, sc, pool[:c], idxWarmup, warmUp(cfg.seconds), 0, 1))
	e.dev.st.reset() // what the load cost the device is set-up's

	// Untraced closed window, counters read at its boundaries.
	runtime.GC()
	before, retries0 := readUsage(e), harnessRetries(pool)
	plain := runClosed(x, sc, pool[:c], idxClosed, seconds(cfg.seconds, 1.0/8), 0, windows)
	after, retries1 := readUsage(e), harnessRetries(pool)
	count(plain)
	plain.closedMetrics(cfg.workload, m)
	ok := float64(max(plain.ok, 1))
	commits := float64(max(after.stats.Commits-before.stats.Commits, 1))
	m["core.commits"] = float64(after.stats.Commits-before.stats.Commits) / ok
	m["core.aborts"] = float64(after.stats.Aborts-before.stats.Aborts) / ok
	m["core.deadlocks"] = float64(after.stats.Deadlocks-before.stats.Deadlocks) / ok
	m["core.retries"] = (float64(after.stats.Retries-before.stats.Retries) + float64(retries1-retries0)) / ok
	if forces := after.stats.LogForces - before.stats.LogForces; forces > 0 {
		m["core.group_size_avg"] = float64(after.stats.GroupSize-before.stats.GroupSize) / float64(forces)
	}
	m["wal.forces_per_commit"] = float64(after.forces-before.forces) / commits
	m["wal.bytes_per_commit"] = float64(after.logBytes-before.logBytes) / commits
	m["log_bytes_per_txn"] = float64(after.logBytes-before.logBytes) / ok

	// Traced pass.
	traced, st, err := tracedPass(cfg, e, x, sc, pool[:c], idxTraced, seconds(cfg.seconds, 1.0/4), tracedLimit,
		filepath.Join(outDir, "trace-"+cfg.workload+".jsonl"))
	if err != nil {
		return nil, err
	}
	count(traced)
	m["harness.trace_overhead_pct"] = 100 * (1 - traced.goodput()/plain.goodput())
	m["harness.spans_dropped"] = float64(st.dropped)
	spanMetrics(m, st, m["lock.probe.acquire_release_ns"], e.nullRTT)
	if cfg.workload == wlRemote {
		// The same manager, driven locally for a moment: what a commit
		// costs without the wire, to set against what it cost with it.
		_, ref, err := tracedPass(cfg, e, &localExec{m: e.nodes[0].m}, sc, pool[:1], idxLocalRef, time.Second, 2000, "")
		if err != nil {
			return nil, err
		}
		coreSpanMetrics(m, ref)
		m["wire.overhead_us"] = m["client.commit_p50_us"] - m["core.commit_p50_us"]
	}

	// Open phase, for the per-type latencies and the generator's own figures.
	runtime.GC()
	open, err := runOpen(x, sc, pool, idxOpen, openArrivals(cfg, seconds(cfg.seconds, 1.0/2)), windows, drainAfter, checkpointPause(e))
	if err != nil {
		return nil, fmt.Errorf("open phase: %w", err)
	}
	count(open)
	for k, name := range kindNames {
		m["txn."+name+"_p50_us"] = us(open.byKind[k].Quantile(0.50))
		m["txn."+name+"_p99_us"] = us(open.byKind[k].Quantile(0.99))
	}
	open.openMetrics(cfg.workload, m)
	m["harness.open_samples"] = float64(open.lat.Count())
	m["harness.offered_txn_s"] = open.offered
	m["harness.achieved_txn_s"] = open.achieved
	m["harness.sched_lag_p99_us"] = us(open.schedLag.Quantile(0.99))
	res.violations.saturation(open)
	e.dev.st.report(m)
	m["storage.checkpoint_s"] = open.pauseDur.Seconds()
	m["storage.checkpoint_stall_p99_us"] = us(open.pauseStall.Quantile(0.99))

	for _, nd := range e.nodes {
		if nd.srv != nil {
			live, expired := nd.srv.SessionCounts()
			m["server.sessions_live"] += float64(live)
			m["server.sessions_expired"] += float64(expired)
		}
	}

	// Recover tail: a checkpoint, a fixed number of transactions, and the
	// checker's timed reopen.
	if e.dir != "" {
		if err := checkpointPause(e)(); err != nil {
			return nil, fmt.Errorf("recover tail: %w", err)
		}
		count(runClosed(x, sc, pool, idxRecover, time.Hour, recoverTail, 1))
	}
	for _, nd := range e.nodes {
		m["txcoord.in_doubt_end"] += float64(len(nd.m.InDoubt()))
	}
	found, reopen, err := checkAll(e, pool)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	res.reportFailures(pool)
	res.violations = append(res.violations, found...)
	m["recover_s"] = reopen.Seconds()
	m["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	return res, nil
}

// tracedPass runs limit scripted transactions (or dur, whichever ends
// first) closed-loop with a span buffer on every worker, folds the spans
// and, when path is not empty, writes them out.
func tracedPass(cfg runConfig, e *engine, x executor, sc *script, workers []*worker, base uint32, dur time.Duration, limit uint32, path string) (*phaseResult, *traceStats, error) {
	epoch := time.Now()
	// Generous: the mix averages under 20 spans a transaction, and any one
	// worker may run most of them.
	perWorker := int(limit) * 48 / len(workers)
	tracers := make([]*tracer, len(workers))
	for i, w := range workers {
		tracers[i] = newTracer(epoch, perWorker)
		w.tr = tracers[i]
	}
	r := runClosed(x, sc, workers, base, dur, limit, 1)
	for _, w := range workers {
		w.tr = nil
	}
	st := analyze(tracers, e.nullRTT)
	if path != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, nil, err
		}
		if err := writeTrace(path, tracers); err != nil {
			return nil, nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return r, st, nil
}

// coreSpanMetrics fills the metrics that come from spans around local
// calls into core.
func coreSpanMetrics(m values, st *traceStats) {
	p50 := func(n spanName) float64 { return us(st.dur[n].Quantile(0.50)) }
	m["core.initiate_p50_us"] = p50(spInitiate)
	m["core.begin_p50_us"] = p50(spBegin)
	m["core.read_p50_us"] = p50(spRead)
	m["core.write_p50_us"] = p50(spWrite)
	m["core.add_p50_us"] = p50(spAdd)
	m["core.abort_p50_us"] = p50(spAbort)
	m["core.permit_p50_us"] = p50(spPermit)
	m["core.delegate_p50_us"] = p50(spDelegate)
	m["core.form_dependency_p50_us"] = p50(spFormDep)
	m["core.lock_p50_us"] = p50(spLock)
	m["core.lock_p99_us"] = us(st.dur[spLock].Quantile(0.99))
	m["core.commit_p50_us"] = p50(spCommit)
	m["core.commit_p99_us"] = us(st.dur[spCommit].Quantile(0.99))
}

// spanMetrics fills every metric the traced pass yields. lockProbeNS is
// the standalone acquire-and-release time: a lock call more than twenty
// times that (plus, over the wire, the null round trip) is a slow one.
func spanMetrics(m values, st *traceStats, lockProbeNS float64, nullRTT int64) {
	coreSpanMetrics(m, st)
	p50 := func(n spanName) float64 { return us(st.dur[n].Quantile(0.50)) }
	self := func(n spanName) float64 { return us(st.self[n].Quantile(0.50)) }
	m["models.saga_run_p50_us"] = p50(spSagaRun)
	m["models.saga_self_us"] = self(spSagaRun)
	m["models.workspace_p50_us"] = p50(spWorkspace)
	m["models.distributed_p50_us"] = p50(spDistributed)
	m["workflow.run_p50_us"] = p50(spWorkflowRun)
	m["workflow.self_us"] = self(spWorkflowRun)
	m["client.begin_p50_us"] = p50(spClientBegin)
	m["client.op_p50_us"] = p50(spClientOp)
	m["client.commit_p50_us"] = p50(spClientCommit)
	m["client.commit_p99_us"] = us(st.dur[spClientCommit].Quantile(0.99))
	m["client.null_rtt_us"] = us(float64(nullRTT))
	m["txcoord.commit_group_p50_us"] = p50(spCommitGroup)
	m["txcoord.commit_group_p99_us"] = us(st.dur[spCommitGroup].Quantile(0.99))
	m["txcoord.prepare_p50_us"] = p50(spPrepare)
	m["txcoord.decision_force_p50_us"] = self(spCommitGroup)
	m["txcoord.deliver_p50_us"] = p50(spDeliver)
	if st.roots > 0 {
		m["client.round_trips_per_txn"] = float64(st.rpcSpans) / float64(st.roots)
	}
	if st.rootTotal > 0 {
		for l, name := range layerNames {
			m["budget."+name+"_pct"] = 100 * float64(st.layerSelf[l]) / float64(st.rootTotal)
		}
	}
	locks, slowAbove := &st.dur[spLock], 20*lockProbeNS
	if locks.Count() == 0 {
		locks, slowAbove = &st.dur[spClientLock], slowAbove+float64(nullRTT)
	}
	m["lock.slow_ratio"] = locks.ShareAbove(slowAbove)
}
