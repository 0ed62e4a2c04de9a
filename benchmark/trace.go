package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/benchmark/hist"
)

// Spans are recorded from the benchmark's own files, around every call an
// executor makes into a layer. A span knows its business transaction (the
// trace id is the script id), its own id, the span that caused it, and
// when it ran. Transaction bodies run on the engine's goroutines, so
// several goroutines record into one worker's buffer; slots are handed out
// by an atomic counter and each slot has one writer.

type spanName uint8

const (
	spTxn spanName = iota // root: one business transaction
	spSagaRun
	spWorkflowRun
	spDistributed
	spWorkspace
	spInitiate
	spBegin
	spWait
	spCommit
	spAbort
	spPermit
	spDelegate
	spFormDep
	spLock
	spRead
	spWrite
	spAdd
	spCreate
	spClientBegin // client.Initiate + client.Begin
	spClientControl
	spClientLock
	spClientOp
	spClientCommit
	spClientAbort
	spCommitGroup
	spPrepare
	spDeliver
	numSpanNames
)

// layer is the budget line a span's self time is charged to.
type layer uint8

const (
	layHarness layer = iota
	layModel
	layControl
	layLock
	layData
	layCommit
	layWire
	layTwoPC
	numLayers
)

var layerNames = [numLayers]string{"harness", "model", "control", "lock", "data", "commit", "wire", "twopc"}

var spanInfo = [numSpanNames]struct {
	name  string
	layer layer
	// rpc marks a span that is one client round trip: one unloaded null
	// round trip of its self time is charged to the wire, the rest to
	// its layer.
	rpc bool
}{
	spTxn:           {"txn", layHarness, false},
	spSagaRun:       {"models.saga_run", layModel, false},
	spWorkflowRun:   {"workflow.run", layModel, false},
	spDistributed:   {"models.distributed", layModel, false},
	spWorkspace:     {"models.workspace", layModel, false},
	spInitiate:      {"core.initiate", layControl, false},
	spBegin:         {"core.begin", layControl, false},
	spWait:          {"core.wait", layControl, false},
	spCommit:        {"core.commit", layCommit, false},
	spAbort:         {"core.abort", layControl, false},
	spPermit:        {"core.permit", layControl, false},
	spDelegate:      {"core.delegate", layControl, false},
	spFormDep:       {"core.form_dependency", layControl, false},
	spLock:          {"core.lock", layLock, false},
	spRead:          {"core.read", layData, false},
	spWrite:         {"core.write", layData, false},
	spAdd:           {"core.add", layData, false},
	spCreate:        {"core.create", layData, false},
	spClientBegin:   {"client.begin", layControl, true},
	spClientControl: {"client.control", layControl, true},
	spClientLock:    {"client.lock", layLock, true},
	spClientOp:      {"client.op", layData, true},
	spClientCommit:  {"client.commit", layCommit, true},
	spClientAbort:   {"client.abort", layControl, true},
	spCommitGroup:   {"txcoord.commit_group", layTwoPC, false},
	spPrepare:       {"txcoord.prepare", layTwoPC, true},
	spDeliver:       {"txcoord.deliver", layTwoPC, true},
}

type span struct {
	trace  uint32
	parent int32 // span id within this tracer, 0 for a root
	name   spanName
	start  int64 // nanoseconds since the tracer's epoch
	end    int64
}

// spanID names a span within its tracer; 0 means "not traced".
type spanID int32

// tracer is one worker's preallocated span buffer. A nil *tracer records
// nothing, which is how the timed phases run.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Int64
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, capacity)}
}

func (t *tracer) begin(trace uint32, parent spanID, name spanName) spanID {
	if t == nil {
		return 0
	}
	i := t.n.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	s := &t.spans[i-1]
	s.trace, s.parent, s.name = trace, int32(parent), name
	s.start = int64(time.Since(t.epoch))
	return spanID(i)
}

func (t *tracer) end(id spanID) {
	if id == 0 {
		return
	}
	t.spans[id-1].end = int64(time.Since(t.epoch))
}

// now is the tracer's clock; 0 when tracing is off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// record adds a finished span whose start the caller worked out itself: a
// call that first blocks on something else is charged from the moment that
// something had finished.
func (t *tracer) record(trace uint32, parent spanID, name spanName, start, end int64) {
	if id := t.begin(trace, parent, name); id != 0 {
		s := &t.spans[id-1]
		s.start, s.end = min(start, end), end
	}
}

func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// traceStats is what the traced pass yields: duration and self-time
// histograms per span name, self time per layer, and the root total.
type traceStats struct {
	dur       [numSpanNames]hist.Hist
	self      [numSpanNames]hist.Hist
	layerSelf [numLayers]int64
	rootTotal int64
	roots     int64
	rpcSpans  int64
	dropped   int64
}

// analyze folds the tracers' spans into stats. nullRTT is the unloaded
// null round trip in nanoseconds, the wire's share of each rpc span.
func analyze(tracers []*tracer, nullRTT int64) *traceStats {
	st := &traceStats{}
	for _, t := range tracers {
		spans := t.recorded()
		st.dropped += t.dropped.Load()
		// Children by parent, in buffer order; then sorted by start for
		// the union sweep.
		kids := make([][]int32, len(spans)+1)
		for i := range spans {
			if spans[i].end == 0 {
				continue // the call never returned before the pass ended
			}
			if p := spans[i].parent; p > 0 {
				kids[p] = append(kids[p], int32(i))
			}
		}
		for i := range spans {
			s := &spans[i]
			if s.end == 0 {
				continue
			}
			d := s.end - s.start
			st.dur[s.name].Record(d)
			self := d - unionLen(spans, kids[i+1], s.start, s.end)
			st.self[s.name].Record(self)
			info := spanInfo[s.name]
			if info.rpc {
				st.rpcSpans++
				wire := min(self, nullRTT)
				st.layerSelf[layWire] += wire
				self -= wire
			}
			st.layerSelf[info.layer] += self
			if s.name == spTxn {
				st.rootTotal += d
				st.roots++
			}
		}
	}
	return st
}

// unionLen is the length of the union of the children's intervals clipped
// to [lo, hi]. Children overlap when a layer fans out (parallel prepares,
// the components of a distributed transaction), so summing them would
// subtract the same nanosecond twice.
func unionLen(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(spans[k].start, lo), min(spans[k].end, hi)
		if e <= s {
			continue
		}
		if curHi < 0 || s > curHi {
			if curHi >= 0 {
				total += curHi - curLo
			}
			curLo, curHi = s, e
		} else if e > curHi {
			curHi = e
		}
	}
	if curHi >= 0 {
		total += curHi - curLo
	}
	return total
}

// writeTrace flushes every span as one JSON object per line.
func writeTrace(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for wi, t := range tracers {
		for i, s := range t.recorded() {
			if s.end == 0 {
				continue
			}
			line = line[:0]
			line = append(line, `{"trace":`...)
			line = strconv.AppendUint(line, uint64(s.trace), 10)
			line = append(line, `,"worker":`...)
			line = strconv.AppendInt(line, int64(wi), 10)
			line = append(line, `,"span":`...)
			line = strconv.AppendInt(line, int64(i+1), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"name":"`...)
			line = append(line, spanInfo[s.name].name...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
