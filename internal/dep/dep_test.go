package dep

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xid"
)

func edgeTypes(es []Edge, other xid.TID) Mask {
	for _, e := range es {
		if e.Other == other {
			return e.Types
		}
	}
	return 0
}

func TestCDEdgeDirection(t *testing.T) {
	g := New()
	// form_dependency(CD, t1, t2): t2 cannot commit before t1 terminates.
	if err := g.Form(xid.DepCD, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !edgeTypes(g.Outgoing(2), 1).Has(xid.DepCD) {
		t.Fatal("t2 should have an outgoing CD on t1")
	}
	if len(g.Outgoing(1)) != 0 {
		t.Fatal("t1 must not block on t2")
	}
	if !edgeTypes(g.Incoming(1), 2).Has(xid.DepCD) {
		t.Fatal("t1 should have incoming CD from t2")
	}
}

func TestADMask(t *testing.T) {
	g := New()
	g.Form(xid.DepAD, 1, 2)
	m := edgeTypes(g.Outgoing(2), 1)
	if !m.Has(xid.DepAD) || !m.Blocking() {
		t.Fatalf("mask = %v", m)
	}
}

func TestGCSymmetric(t *testing.T) {
	g := New()
	g.Form(xid.DepGC, 1, 2)
	if !edgeTypes(g.Outgoing(1), 2).Has(xid.DepGC) ||
		!edgeTypes(g.Outgoing(2), 1).Has(xid.DepGC) {
		t.Fatal("GC edge not symmetric")
	}
}

func TestGCComponentTransitive(t *testing.T) {
	g := New()
	g.Form(xid.DepGC, 1, 2)
	g.Form(xid.DepGC, 2, 3)
	g.Form(xid.DepGC, 5, 6) // separate component
	comp := g.GCComponent(1)
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	if len(comp) != 3 || comp[0] != 1 || comp[1] != 2 || comp[2] != 3 {
		t.Fatalf("component = %v, want [1 2 3]", comp)
	}
	if len(g.GCComponent(7)) != 1 {
		t.Fatal("singleton component wrong")
	}
}

func TestSelfAndNilVacuous(t *testing.T) {
	g := New()
	if err := g.Form(xid.DepAD, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Form(xid.DepCD, xid.NilTID, 2); err != nil {
		t.Fatal(err)
	}
	if len(g.Outgoing(1))+len(g.Outgoing(2)) != 0 {
		t.Fatal("vacuous dependencies stored")
	}
}

func TestCDCycleRejected(t *testing.T) {
	g := New()
	g.Form(xid.DepCD, 1, 2) // 2 blocks on 1
	err := g.Form(xid.DepCD, 2, 1)
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	// Graph unchanged: t1 has no outgoing edge.
	if len(g.Outgoing(1)) != 0 {
		t.Fatal("rejected edge partially applied")
	}
}

func TestLongBlockingCycleRejected(t *testing.T) {
	g := New()
	g.Form(xid.DepCD, 1, 2)
	g.Form(xid.DepAD, 2, 3)
	g.Form(xid.DepBD, 3, 4)
	if err := g.Form(xid.DepCD, 4, 1); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestGCCycleAllowed(t *testing.T) {
	// A pure GC "cycle" is just one group.
	g := New()
	g.Form(xid.DepGC, 1, 2)
	g.Form(xid.DepGC, 2, 3)
	if err := g.Form(xid.DepGC, 3, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBlockingInsideGCGroupAllowed(t *testing.T) {
	// CD within a group is satisfied by simultaneous commit.
	g := New()
	g.Form(xid.DepGC, 1, 2)
	if err := g.Form(xid.DepCD, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Form(xid.DepCD, 2, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGCMergeClosingBlockingCycleRejected(t *testing.T) {
	// CD a→c and CD c→b exist (c blocks on a... direction check):
	// form(CD, c, a): a blocks on c. form(CD, b, c): c blocks on b.
	// Merging {a,b} by GC creates: merged blocks on c, c blocks on merged.
	g := New()
	g.Form(xid.DepCD, 3, 1) // 1 blocks on 3
	g.Form(xid.DepCD, 2, 3) // 3 blocks on 2
	if err := g.Form(xid.DepGC, 1, 2); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle (merge closes 1↔3 loop)", err)
	}
}

func TestBlockingEdgeThroughGCGroupRejected(t *testing.T) {
	// GC(1,2); 3 blocks on 1; forming "2 blocks on 3" closes a loop through
	// the super-node {1,2}.
	g := New()
	g.Form(xid.DepGC, 1, 2)
	g.Form(xid.DepCD, 1, 3) // 3 blocks on 1
	if err := g.Form(xid.DepCD, 3, 2); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	g.Form(xid.DepCD, 1, 2)
	g.Form(xid.DepAD, 2, 3)
	g.Form(xid.DepGC, 1, 4)
	g.RemoveNode(1)
	if len(g.Outgoing(2)) != 0 {
		t.Fatal("incoming edge to removed node survived")
	}
	if len(g.Outgoing(4)) != 0 {
		t.Fatal("GC edge to removed node survived")
	}
	// After removal the previously cyclic edge is legal.
	if err := g.Form(xid.DepCD, 2, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDropEdge(t *testing.T) {
	g := New()
	g.Form(xid.DepCD, 1, 2) // 2 blocks on 1
	g.DropEdge(2, 1)
	if len(g.Outgoing(2)) != 0 {
		t.Fatal("edge not dropped")
	}
	if err := g.Form(xid.DepCD, 2, 1); err != nil {
		t.Fatal("drop did not unblock reverse edge")
	}
}

func TestMaskCombination(t *testing.T) {
	g := New()
	g.Form(xid.DepCD, 1, 2)
	g.Form(xid.DepAD, 1, 2)
	m := edgeTypes(g.Outgoing(2), 1)
	if !m.Has(xid.DepCD) || !m.Has(xid.DepAD) {
		t.Fatalf("mask = %v, want CD|AD", m)
	}
}

// TestQuickNoCommitDeadlock: after any sequence of Form calls (some
// rejected), the contracted blocking graph must remain acyclic — i.e. there
// is always a super-node with no outgoing blocking edge among those with
// edges (a topological "exit"), which is what lets the commit protocol make
// progress.
func TestQuickNoCommitDeadlock(t *testing.T) {
	f := func(ops []struct {
		T    uint8
		A, B uint8
	}) bool {
		g := New()
		for _, op := range ops {
			typ := []xid.DepType{xid.DepCD, xid.DepAD, xid.DepGC, xid.DepBD}[op.T%4]
			a := xid.TID(op.A%8) + 1
			b := xid.TID(op.B%8) + 1
			_ = g.Form(typ, a, b) // may reject; both outcomes fine
		}
		// Verify acyclicity of the contracted blocking graph by Kahn.
		g.mu.Lock()
		comp, adj := g.contractedGraph(xid.NilTID, xid.NilTID)
		g.mu.Unlock()
		_ = comp
		indeg := map[int]int{}
		for c := range adj {
			if _, ok := indeg[c]; !ok {
				indeg[c] = 0
			}
			for n := range adj[c] {
				indeg[n]++
			}
		}
		queue := []int{}
		for c, d := range indeg {
			if d == 0 {
				queue = append(queue, c)
			}
		}
		removed := 0
		for len(queue) > 0 {
			c := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			removed++
			for n := range adj[c] {
				indeg[n]--
				if indeg[n] == 0 {
					queue = append(queue, n)
				}
			}
		}
		return removed == len(indeg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendGCComponentMatchesAcrossSizes: the in-place breadth-first walk
// switches from scanning to a set as the component grows; both sides of the
// switch must return every member exactly once, t first, after whatever the
// caller's buffer already held.
func TestAppendGCComponentMatchesAcrossSizes(t *testing.T) {
	for _, n := range []int{1, 2, 16, 17, 40} {
		g := New()
		for i := 1; i < n; i++ {
			// A chain with a few chords, so members are reached twice.
			if err := g.Form(xid.DepGC, xid.TID(i), xid.TID(i+1)); err != nil {
				t.Fatal(err)
			}
			if i > 2 {
				if err := g.Form(xid.DepGC, xid.TID(i-2), xid.TID(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		buf := []xid.TID{99}
		got := g.AppendGCComponent(buf, 1)
		if got[0] != 99 || got[1] != 1 {
			t.Fatalf("n=%d: result starts %v, want the caller's 99 then 1", n, got[:2])
		}
		seen := map[xid.TID]bool{}
		for _, m := range got[1:] {
			if seen[m] {
				t.Fatalf("n=%d: member %v listed twice", n, m)
			}
			seen[m] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: component has %d members", n, len(seen))
		}
	}
}

// TestAdjacencyMapsAreReused: removing a node hands its emptied adjacency
// maps to the next edge, and a reused map starts empty.
func TestAdjacencyMapsAreReused(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		a, b := xid.TID(2*i+1), xid.TID(2*i+2)
		if err := g.Form(xid.DepGC, a, b); err != nil {
			t.Fatal(err)
		}
		if out := g.Outgoing(a); len(out) != 1 || out[0].Other != b {
			t.Fatalf("round %d: outgoing of %v = %v", i, a, out)
		}
		g.RemoveNode(a)
		g.RemoveNode(b)
	}
	if len(g.out) != 0 || len(g.in) != 0 {
		t.Fatalf("graph not empty: %d out, %d in", len(g.out), len(g.in))
	}
	if len(g.spare) == 0 || len(g.spare) > maxSpare {
		t.Fatalf("%d spare adjacency maps, want 1..%d", len(g.spare), maxSpare)
	}
}
