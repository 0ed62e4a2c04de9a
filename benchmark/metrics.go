package main

import "fmt"

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// The eleven end-to-end metrics, all measured with tracing off, each with the
// share of the parent's median by which it may worsen before a change counts
// as a regression. -repeat and -compare judge all of them. BENCHMARK.json
// can list as end_to_end only those a driver may hold every workload to on
// a box like the one described in README.md, which are the first four.

// endToEnd are the end_to_end metrics of BENCHMARK.json: above 0 on every
// workload, and steady enough here that ten runs of identical code stay
// inside the bound. Three of them count; set-up is timed, and has the widest
// bound a metric may have.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_txn", "count", lower, 0.05},
	{"alloc_bytes_per_txn", "B", lower, 0.05},
	{"heap_live_mb", "MB", lower, 0.15},
}

// timed are the end-to-end metrics read off the wall clock or the CPU
// clock. Their bound is the tenth the issue caps bounds at. On the two
// arrangements that saturate both vCPUs (mem, remote) ten runs of identical
// code spread by a fifth to a half, because the host itself is a third
// faster in some minutes than in others; a driver that refuses a benchmark
// whose spread exceeds its bound would refuse this one, so BENCHMARK.json
// lists them with the per-layer metrics and -compare answers "unresolved"
// where the spread is wider than the bound.
var timed = []metricDef{
	{"closed_goodput_txn_s", "txn/s", higher, 0.10},
	{"open_p50_us", "us", lower, 0.10},
	{"open_p99_us", "us", lower, 0.10},
	{"cpu_us_per_txn", "us", lower, 0.10},
}

// durableOnly are the end-to-end metrics that exist only where there is a
// log on disk. A metric BENCHMARK.json bounds may never read 0, and these
// read 0 on mem and remote.
var durableOnly = []metricDef{
	{"log_bytes_per_txn", "B", lower, 0.05},
	{"recover_s", "s", lower, 0.10},
}

// failRatio is the eleventh. Its expected value is 0, so no share of it can
// bound it: any failed transaction makes the run incorrect instead.
var failRatio = metricDef{Name: "fail_ratio", Unit: "ratio", Better: lower}

// gated returns the end-to-end metrics -repeat and -compare judge on wl.
func gated(wl string) []metricDef {
	defs := append(append([]metricDef(nil), endToEnd...), timed...)
	if wlDurableLog(wl) {
		defs = append(defs, durableOnly...)
	}
	return defs
}

// perLayer are the per_layer metrics of BENCHMARK.json: the seven
// end-to-end metrics it cannot bound, which the per-layer pass measures
// again in its own phases, and then the metrics of single layers, from the
// traced pass, from public counters read at phase boundaries and from the
// standalone probes.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{failRatio}
	for _, d := range append(append([]metricDef(nil), durableOnly...), timed...) {
		defs = append(defs, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, k := range kindNames {
		add("us", lower, "txn."+k+"_p50_us", "txn."+k+"_p99_us")
	}
	for _, p := range []string{"initiate", "begin", "read", "write", "add", "abort", "permit", "delegate", "form_dependency"} {
		add("us", lower, "core."+p+"_p50_us")
	}
	add("us", lower, "core.lock_p50_us", "core.lock_p99_us")
	add("ratio", lower, "lock.slow_ratio")
	add("us", lower, "core.commit_p50_us", "core.commit_p99_us")
	add("1/txn", lower, "core.commits", "core.aborts", "core.deadlocks", "core.retries")
	add("count", higher, "core.group_size_avg")
	for _, l := range layerNames {
		add("pct", lower, "budget."+l+"_pct")
	}
	add("us", lower, "models.saga_run_p50_us", "models.saga_self_us", "models.workspace_p50_us",
		"models.distributed_p50_us", "workflow.run_p50_us", "workflow.self_us")
	add("count", lower, "wal.forces_per_commit")
	add("B", lower, "wal.bytes_per_commit")
	add("us", lower, "device.fsync_p50_us", "device.fsync_p99_us", "device.force_p50_us")
	add("ratio", lower, "device.over_floor_ratio")
	add("ns", lower, "wal.probe.append_ns")
	add("us", lower, "wal.probe.force_us")
	add("count", higher, "wal.probe.batch_recs")
	add("MB/s", higher, "wal.probe.recover_mb_s")
	add("s", lower, "storage.checkpoint_s")
	add("us", lower, "storage.checkpoint_stall_p99_us")
	add("ns", lower, "storage.probe.cache_read_ns", "storage.probe.cache_install_ns",
		"lock.probe.acquire_release_ns", "lock.probe.relock_ns", "lock.probe.escrow_reserve_ns",
		"lock.probe.permit_ns", "lock.probe.delegate_ns",
		"dep.probe.form_ns", "dep.probe.gc_closure_ns", "waitgraph.probe.add_remove_ns",
		"htab.probe.get_ns", "htab.probe.put_ns", "latch.probe.xlock_ns", "latch.probe.rlock_ns")
	add("us", lower, "client.begin_p50_us", "client.op_p50_us", "client.commit_p50_us", "client.commit_p99_us",
		"client.null_rtt_us", "wire.overhead_us")
	add("count", lower, "client.round_trips_per_txn")
	add("ns", lower, "rpc.probe.encode_request_ns", "rpc.probe.decode_request_ns",
		"rpc.probe.encode_response_ns", "rpc.probe.decode_response_ns", "rpc.probe.frame_roundtrip_ns")
	add("count", lower, "rpc.probe.allocs_per_msg")
	add("count", higher, "server.sessions_live")
	add("count", lower, "server.sessions_expired")
	add("us", lower, "txcoord.commit_group_p50_us", "txcoord.commit_group_p99_us", "txcoord.prepare_p50_us",
		"txcoord.decision_force_p50_us", "txcoord.deliver_p50_us")
	add("count", lower, "txcoord.in_doubt_end")
	add("count", higher, "harness.open_samples")
	add("txn/s", higher, "harness.offered_txn_s", "harness.achieved_txn_s")
	add("us", lower, "harness.sched_lag_p99_us")
	add("pct", lower, "harness.trace_overhead_pct")
	add("count", lower, "harness.spans_dropped")
	add("hash", higher, "harness.script_hash")
	return defs
}

// values maps metric names to measurements.
type values map[string]float64

// reportValue is one metric in the result line.
type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// known reports a measured value that none of defs names, which is a bug
// in the benchmark. A listed metric the workload does not exercise reads 0.
func (v values) known(defs []metricDef) error {
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.Name] = true
	}
	for name := range v {
		if !listed[name] {
			return fmt.Errorf("measured %q, which no metric list names", name)
		}
	}
	return nil
}
