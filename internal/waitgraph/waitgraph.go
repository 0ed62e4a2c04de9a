// Package waitgraph maintains a single waits-for graph spanning every kind
// of blocking in ASSET: transactions waiting for conflicting locks (§4.2
// read-lock/write-lock step 1b) and transactions whose commit is delayed by
// commit/abort dependencies (§4.2 commit steps 2a/2b). Because both kinds of
// wait feed one graph, deadlocks that cross the two mechanisms — ti blocked
// in commit on tj while tj is blocked on a lock ti holds — are detected,
// not just lock-lock cycles.
//
// An edge waiter → holder means "waiter cannot proceed until holder changes
// state". A cycle is a deadlock. Cycles are detected eagerly when an edge is
// added; the victim is the youngest transaction on the cycle (the one with
// the largest tid, since tids are assigned monotonically), which minimizes
// lost work.
//
// Victim selection is exactly-once per blocking episode: a selected victim
// is marked doomed until it stops waiting, and doomed transactions are
// treated as non-blocking by the cycle search (their outgoing edges are
// about to disappear — the victim is being aborted or is returning
// ErrDeadlock to its caller). Concurrent detectors racing through
// overlapping cycles therefore never double-select the same victim, which
// matters now that the sharded lock manager runs detection from many latches
// at once instead of under one global mutex.
package waitgraph

import (
	"sort"
	"sync"

	"repro/internal/xid"
)

// Graph is a concurrent waits-for graph. The zero value is not usable;
// create one with New. Its mutex is a leaf in the system's latch order: it
// is acquired with lock-shard latches held, and no Graph method calls back
// into the lock manager.
//
// A blocking episode allocates nothing once the graph has warmed: a
// waiter's edge set comes from a free list its predecessors' sets went back
// to, emptied but with their room kept, and the cycle search runs on a path
// stack and a mark table the graph keeps between searches.
type Graph struct {
	//asset:latch order=50
	mu    sync.Mutex
	edges map[xid.TID]map[xid.TID]int // waiter -> holder -> refcount
	// doomed holds transactions selected as deadlock victims whose blocking
	// episode has not ended yet (they still have outgoing edges). They are
	// skipped by the cycle search and never re-selected.
	doomed map[xid.TID]bool

	free []map[xid.TID]int    // emptied edge sets, for the next waiters
	path []xid.TID            // the cycle search's DFS path
	mark map[xid.TID]dfsState // the cycle search's visited set
}

// dfsState is a node's state in the current cycle search.
type dfsState uint8

const (
	unseen dfsState = iota
	onPath
	visited
)

// maxFreeEdgeSets bounds the free list. An edge set holds the holders one
// waiter blocks on, so the sets it keeps are small.
const maxFreeEdgeSets = 64

// New returns an empty waits-for graph.
func New() *Graph {
	return &Graph{
		edges:  make(map[xid.TID]map[xid.TID]int),
		doomed: make(map[xid.TID]bool),
		mark:   make(map[xid.TID]dfsState),
	}
}

// Add records that waiter is blocked on each holder. If the new edges close
// one or more cycles, Add selects the youngest transaction on the first
// cycle found as the deadlock victim and returns it together with the cycle
// path (victim first). When no deadlock arises, the returned victim is the
// null tid.
//
// A cycle that passes through an already-doomed transaction reports no
// victim: that cycle is already being resolved, and resolving it twice
// would abort two transactions where one suffices.
//
// Edges are reference counted: a waiter blocked on the same holder through
// two mechanisms must Remove twice.
func (g *Graph) Add(waiter xid.TID, holders ...xid.TID) (victim xid.TID, cycle []xid.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.edges[waiter]
	if m == nil {
		if n := len(g.free); n > 0 {
			m, g.free[n-1], g.free = g.free[n-1], nil, g.free[:n-1]
		} else {
			m = make(map[xid.TID]int)
		}
		g.edges[waiter] = m
	}
	for _, h := range holders {
		if h == waiter || h.IsNil() {
			continue
		}
		if g.doomed[h] {
			// The holder is already condemned (deadlock victim being
			// aborted, or a transaction cancelled by its context): its locks
			// are about to be released, so recording an edge toward it would
			// only let detectors pick a second victim for a cycle that is
			// already breaking. Dying transactions attract no edges.
			continue
		}
		m[h]++
	}
	if len(m) == 0 {
		g.dropEdgesLocked(waiter)
		return xid.NilTID, nil
	}
	cycle = g.findCycleFrom(waiter)
	if cycle == nil {
		return xid.NilTID, nil
	}
	victim = youngest(cycle)
	g.doomed[victim] = true
	// Rotate the cycle so the victim is first, for readable diagnostics.
	for i, t := range cycle {
		if t == victim {
			cycle = append(cycle[i:], cycle[:i]...)
			break
		}
	}
	return victim, cycle
}

// Doom marks t as condemned outside victim selection: the transaction is
// being aborted (context cancellation, deadline expiry, explicit abort) and
// its locks will be released shortly. Until its node is removed, the cycle
// search treats it as non-blocking — cycles through it never select a fresh
// victim — and new waiters record no edges toward it. The abort path calls
// this before cancelling the transaction's lock waits, so concurrent
// detectors racing the teardown cannot kill an innocent second transaction
// for a deadlock the abort is already resolving.
func (g *Graph) Doom(t xid.TID) {
	g.mu.Lock()
	g.doomed[t] = true
	g.mu.Unlock()
}

// Remove drops one reference on the edge waiter → holder. Removing a
// non-existent edge is a no-op. A waiter that loses its last outgoing edge
// has ended its blocking episode, so its doomed mark (if any) is cleared.
func (g *Graph) Remove(waiter, holder xid.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.edges[waiter]; m != nil {
		if m[holder] > 1 {
			m[holder]--
		} else {
			delete(m, holder)
			if len(m) == 0 {
				g.dropWaiterLocked(waiter)
			}
		}
	}
}

// RemoveWaiter drops every outgoing edge of waiter (it stopped waiting).
func (g *Graph) RemoveWaiter(waiter xid.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropWaiterLocked(waiter)
}

// RemoveNode drops the transaction entirely, both as waiter and as holder,
// when it terminates.
func (g *Graph) RemoveNode(t xid.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropWaiterLocked(t)
	for w, m := range g.edges {
		delete(m, t)
		if len(m) == 0 {
			g.dropWaiterLocked(w)
		}
	}
}

// dropWaiterLocked removes w's outgoing edges and ends its blocking
// episode. Caller holds g.mu.
func (g *Graph) dropWaiterLocked(w xid.TID) {
	g.dropEdgesLocked(w)
	delete(g.doomed, w)
}

// dropEdgesLocked removes w's edge set, giving it back to the free list.
// Caller holds g.mu.
func (g *Graph) dropEdgesLocked(w xid.TID) {
	m, ok := g.edges[w]
	if !ok {
		return
	}
	delete(g.edges, w)
	if len(g.free) < maxFreeEdgeSets {
		clear(m)
		g.free = append(g.free, m)
	}
}

// Waiters returns the transactions currently blocked, in ascending tid
// order. Intended for diagnostics and tests.
func (g *Graph) Waiters() []xid.TID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]xid.TID, 0, len(g.edges))
	for w := range g.edges {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Doomed reports whether t has been selected as a deadlock victim and has
// not yet stopped waiting. Diagnostics and tests.
func (g *Graph) Doomed(t xid.TID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.doomed[t]
}

// findCycleFrom performs a DFS from start and returns the first cycle that
// passes through start, or nil. Doomed transactions are treated as
// non-blocking and not traversed: their outgoing edges are about to vanish,
// so any cycle through them is already scheduled to break. Caller holds
// g.mu.
func (g *Graph) findCycleFrom(start xid.TID) []xid.TID {
	if g.doomed[start] {
		// The requester itself is already a pending victim; its episode
		// resolves without a second selection.
		return nil
	}
	cycle := g.dfs(start)
	g.path = g.path[:0]
	clear(g.mark)
	return cycle
}

// dfs extends the search's path with t and returns a fresh copy of the
// first cycle found below it, or nil. Caller holds g.mu.
func (g *Graph) dfs(t xid.TID) []xid.TID {
	g.path = append(g.path, t)
	g.mark[t] = onPath
	for h := range g.edges[t] {
		if g.doomed[h] {
			continue
		}
		switch g.mark[h] {
		case onPath:
			// Found a cycle: the suffix of path from h onward.
			for i, p := range g.path {
				if p == h {
					return append([]xid.TID(nil), g.path[i:]...)
				}
			}
		case unseen:
			if c := g.dfs(h); c != nil {
				return c
			}
		}
	}
	g.path = g.path[:len(g.path)-1]
	g.mark[t] = visited
	return nil
}

func youngest(cycle []xid.TID) xid.TID {
	v := cycle[0]
	for _, t := range cycle[1:] {
		if t > v {
			v = t
		}
	}
	return v
}
