// Package dep implements ASSET's transaction dependency graph (§4.1/§4.2).
// Nodes are transactions; an edge records a dependency formed with
// form_dependency. Internally edges point from the *dependent* transaction
// to the transaction it depends on:
//
//	form_dependency(CD, ti, tj)  ⇒  edge tj → ti (tj cannot commit before ti
//	                                terminates; if ti aborts, tj may commit)
//	form_dependency(AD, ti, tj)  ⇒  edge tj → ti (if ti aborts, tj must
//	                                abort; AD covers CD)
//	form_dependency(GC, ti, tj)  ⇒  symmetric edges (both commit or neither)
//	form_dependency(BD, ti, tj)  ⇒  edge tj → ti (extension: tj may not
//	                                begin until ti commits)
//
// The paper's commit algorithm blocks on outgoing edges, so a cycle of
// blocking (CD/AD/BD) edges would deadlock every commit on it; group-commit
// cycles, in contrast, are the mechanism itself. Form therefore performs
// the "check to prevent certain dependency cycles": it contracts GC
// components into super-nodes and rejects any blocking edge (or GC merge)
// that would close a cycle among super-nodes.
package dep

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/xid"
)

// ErrCycle reports that forming the dependency would deadlock the commit
// protocol.
var ErrCycle = errors.New("dep: dependency would create a commit-blocking cycle")

// Mask is a set of dependency types between one ordered pair.
type Mask uint8

// Mask bits.
const (
	MCD Mask = 1 << iota
	MAD
	MGC
	MBD
	MBAD
	MEXC
)

// Has reports whether the mask contains the given dependency type.
func (m Mask) Has(t xid.DepType) bool { return m&maskOf(t) != 0 }

// Blocking reports whether the mask contains a type that makes the
// dependent wait for the supporter's progress (everything but GC and the
// non-waiting EXC). A cycle of blocking edges would deadlock.
func (m Mask) Blocking() bool { return m&(MCD|MAD|MBD|MBAD) != 0 }

// CommitBlocking reports whether the mask delays the dependent's *commit*
// until the supporter terminates (BD/BAD only gate begin).
func (m Mask) CommitBlocking() bool { return m&(MCD|MAD) != 0 }

func maskOf(t xid.DepType) Mask {
	switch t {
	case xid.DepCD:
		return MCD
	case xid.DepAD:
		return MAD
	case xid.DepGC:
		return MGC
	case xid.DepBD:
		return MBD
	case xid.DepBAD:
		return MBAD
	case xid.DepEXC:
		return MEXC
	}
	return 0
}

// Edge is one adjacency of a transaction in the graph.
type Edge struct {
	Other xid.TID
	Types Mask
}

// Graph is the dependency graph. All methods are safe for concurrent use.
type Graph struct {
	//asset:latch order=60
	mu  sync.Mutex
	out map[xid.TID]map[xid.TID]Mask // dependent -> supporter
	in  map[xid.TID]map[xid.TID]Mask // supporter -> dependent
	// spare holds emptied adjacency maps of removed nodes for addEdge to
	// reuse; they never leave the graph (readers get copies), so a map is
	// free the moment its node is deleted.
	spare []map[xid.TID]Mask
}

// maxSpare bounds the adjacency maps kept for reuse.
const maxSpare = 64

// New returns an empty dependency graph.
func New() *Graph {
	return &Graph{
		out: make(map[xid.TID]map[xid.TID]Mask),
		in:  make(map[xid.TID]map[xid.TID]Mask),
	}
}

// Form records form_dependency(typ, ti, tj). It returns ErrCycle if the new
// dependency would deadlock the commit protocol, leaving the graph
// unchanged.
func (g *Graph) Form(typ xid.DepType, ti, tj xid.TID) error {
	if ti == tj || ti.IsNil() || tj.IsNil() {
		return nil // self- and null-dependencies are vacuous
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch typ {
	case xid.DepGC:
		if g.wouldCycleWithGC(ti, tj) {
			return ErrCycle
		}
		g.addEdge(ti, tj, MGC)
		g.addEdge(tj, ti, MGC)
	case xid.DepEXC:
		// Exclusion is symmetric and never blocks anyone's progress, so no
		// cycle check is needed.
		g.addEdge(ti, tj, MEXC)
		g.addEdge(tj, ti, MEXC)
	default:
		// Dependent tj blocks on supporter ti.
		if g.wouldCycleWithBlocking(tj, ti) {
			return ErrCycle
		}
		g.addEdge(tj, ti, maskOf(typ))
	}
	return nil
}

func (g *Graph) addEdge(from, to xid.TID, m Mask) {
	om := g.out[from]
	if om == nil {
		om = g.adjacency()
		g.out[from] = om
	}
	om[to] |= m
	im := g.in[to]
	if im == nil {
		im = g.adjacency()
		g.in[to] = im
	}
	im[from] |= m
}

// adjacency returns an empty adjacency map, a spare one if there is one.
func (g *Graph) adjacency() map[xid.TID]Mask {
	if n := len(g.spare); n > 0 {
		m := g.spare[n-1]
		g.spare[n-1] = nil
		g.spare = g.spare[:n-1]
		return m
	}
	return make(map[xid.TID]Mask)
}

// dropAdjacency unlinks side[t] and keeps the emptied map for reuse.
func (g *Graph) dropAdjacency(side map[xid.TID]map[xid.TID]Mask, t xid.TID) {
	m, ok := side[t]
	if !ok {
		return
	}
	delete(side, t)
	if len(g.spare) < maxSpare {
		clear(m)
		g.spare = append(g.spare, m)
	}
}

// isolated reports whether t has no dependency in either direction.
func (g *Graph) isolated(t xid.TID) bool {
	return len(g.out[t]) == 0 && len(g.in[t]) == 0
}

// Outgoing returns the dependencies t has on other transactions
// ("dependencies emanating from t" in the commit algorithm).
func (g *Graph) Outgoing(t xid.TID) []Edge { return g.AppendOutgoing(nil, t) }

// Incoming returns the dependencies other transactions have on t
// ("dependencies incoming to t" in the abort algorithm).
func (g *Graph) Incoming(t xid.TID) []Edge { return g.AppendIncoming(nil, t) }

// AppendOutgoing appends t's outgoing dependencies to dst and returns the
// extended slice, so the commit and abort protocols can walk edges through a
// buffer of their own instead of a fresh slice per transaction.
func (g *Graph) AppendOutgoing(dst []Edge, t xid.TID) []Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	return appendEdges(dst, g.out[t])
}

// AppendIncoming is AppendOutgoing for the dependencies others have on t.
func (g *Graph) AppendIncoming(dst []Edge, t xid.TID) []Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	return appendEdges(dst, g.in[t])
}

func appendEdges(dst []Edge, m map[xid.TID]Mask) []Edge {
	for other, mask := range m {
		dst = append(dst, Edge{Other: other, Types: mask})
	}
	return dst
}

// GCComponent returns the transactions connected to t by GC edges,
// including t itself.
func (g *Graph) GCComponent(t xid.TID) []xid.TID { return g.AppendGCComponent(nil, t) }

// AppendGCComponent appends t's GC component (t first) to dst and returns
// the extended slice. A transaction with no dependencies at all — nearly
// every one — costs a map miss and an append.
func (g *Graph) AppendGCComponent(dst []xid.TID, t xid.TID) []xid.TID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.appendComponentLocked(dst, t)
}

// appendComponentLocked grows the component breadth-first in place: the
// part of dst appended here is both the result and the work queue.
// Membership is a scan of that part while it is small and a set beyond
// that. Caller holds g.mu.
func (g *Graph) appendComponentLocked(dst []xid.TID, t xid.TID) []xid.TID {
	const scanLimit = 16
	start := len(dst)
	dst = append(dst, t)
	var seen map[xid.TID]bool
	for i := start; i < len(dst); i++ {
		for other, mask := range g.out[dst[i]] {
			if mask&MGC == 0 {
				continue
			}
			if seen != nil {
				if seen[other] {
					continue
				}
				seen[other] = true
			} else if slices.Contains(dst[start:], other) {
				continue
			}
			dst = append(dst, other)
			if seen == nil && len(dst)-start > scanLimit {
				seen = make(map[xid.TID]bool, 2*scanLimit)
				for _, m := range dst[start:] {
					seen[m] = true
				}
			}
		}
	}
	return dst
}

// RemoveNode deletes t and all its edges (commit step 5 / abort step 5).
func (g *Graph) RemoveNode(t xid.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for other := range g.out[t] {
		delete(g.in[other], t)
		if len(g.in[other]) == 0 {
			g.dropAdjacency(g.in, other)
		}
	}
	g.dropAdjacency(g.out, t)
	for other := range g.in[t] {
		delete(g.out[other], t)
		if len(g.out[other]) == 0 {
			g.dropAdjacency(g.out, other)
		}
	}
	g.dropAdjacency(g.in, t)
}

// DropEdge removes every dependency of dependent on supporter (the abort
// algorithm removes CD edges of dependents without aborting them).
func (g *Graph) DropEdge(dependent, supporter xid.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m := g.out[dependent]; m != nil {
		delete(m, supporter)
		if len(m) == 0 {
			g.dropAdjacency(g.out, dependent)
		}
	}
	if m := g.in[supporter]; m != nil {
		delete(m, dependent)
		if len(m) == 0 {
			g.dropAdjacency(g.in, supporter)
		}
	}
}

// --- cycle prevention -------------------------------------------------
//
// GC components are contracted into super-nodes; blocking (CD/AD/BD) edges
// between distinct super-nodes form the contracted graph. A blocking edge
// inside one GC component is satisfied by the simultaneous group commit and
// never deadlocks, so intra-component edges are dropped.

// contractedGraph builds the super-node adjacency. extraA/extraB, when
// non-nil, are treated as already GC-merged (to test a prospective GC
// edge). Caller holds g.mu.
func (g *Graph) contractedGraph(extraA, extraB xid.TID) (comp map[xid.TID]int, adj map[int]map[int]bool) {
	// Collect nodes.
	nodes := make(map[xid.TID]bool)
	for t, m := range g.out {
		nodes[t] = true
		for o := range m {
			nodes[o] = true
		}
	}
	if !extraA.IsNil() {
		nodes[extraA] = true
		nodes[extraB] = true
	}
	// Union-find over GC edges.
	parent := make(map[xid.TID]xid.TID, len(nodes))
	var find func(t xid.TID) xid.TID
	find = func(t xid.TID) xid.TID {
		p, ok := parent[t]
		if !ok || p == t {
			parent[t] = t
			return t
		}
		r := find(p)
		parent[t] = r
		return r
	}
	union := func(a, b xid.TID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for t, m := range g.out {
		for o, mask := range m {
			if mask&MGC != 0 {
				union(t, o)
			}
		}
	}
	if !extraA.IsNil() {
		union(extraA, extraB)
	}
	// Number the components and build blocking adjacency.
	comp = make(map[xid.TID]int, len(nodes))
	next := 0
	id := func(t xid.TID) int {
		r := find(t)
		if c, ok := comp[r]; ok {
			comp[t] = c
			return c
		}
		comp[r] = next
		comp[t] = next
		next++
		return comp[t]
	}
	adj = make(map[int]map[int]bool)
	for t := range nodes {
		id(t)
	}
	for t, m := range g.out {
		for o, mask := range m {
			if !mask.Blocking() {
				continue
			}
			ca, cb := id(t), id(o)
			if ca == cb {
				continue
			}
			if adj[ca] == nil {
				adj[ca] = make(map[int]bool)
			}
			adj[ca][cb] = true
		}
	}
	return comp, adj
}

func reach(adj map[int]map[int]bool, from, to int) bool {
	if from == to {
		return true
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for n := range adj[c] {
			if n == to {
				return true
			}
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return false
}

// wouldCycleWithBlocking reports whether adding the blocking edge
// dependent → supporter closes a cycle in the contracted graph. Caller
// holds g.mu.
func (g *Graph) wouldCycleWithBlocking(dependent, supporter xid.TID) bool {
	if g.isolated(dependent) || g.isolated(supporter) {
		return false // no path can enter or leave a node without edges
	}
	comp, adj := g.contractedGraph(xid.NilTID, xid.NilTID)
	cs, okS := comp[supporter]
	cd, okD := comp[dependent]
	if !okS || !okD {
		return false // an isolated endpoint cannot be on a path back
	}
	if cd == cs {
		return false // intra-component: satisfied by group commit
	}
	return reach(adj, cs, cd)
}

// wouldCycleWithGC reports whether merging a's and b's GC components would
// put the merged super-node on a blocking cycle. Caller holds g.mu.
func (g *Graph) wouldCycleWithGC(a, b xid.TID) bool {
	if g.isolated(a) || g.isolated(b) {
		// Merging a node without edges into a component leaves the
		// component's blocking adjacency as it was.
		return false
	}
	comp, adj := g.contractedGraph(a, b)
	merged := comp[a]
	for n := range adj[merged] {
		if reach(adj, n, merged) {
			return true
		}
	}
	return false
}
