package waitgraph

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/race"
	"repro/internal/xid"
)

func TestNoCycleNoVictim(t *testing.T) {
	g := New()
	if v, _ := g.Add(1, 2); !v.IsNil() {
		t.Fatalf("victim %v on acyclic add", v)
	}
	if v, _ := g.Add(2, 3); !v.IsNil() {
		t.Fatalf("victim %v on acyclic add", v)
	}
	if v, _ := g.Add(1, 3); !v.IsNil() {
		t.Fatalf("victim %v on acyclic add", v)
	}
}

func TestTwoCycleVictimIsYoungest(t *testing.T) {
	g := New()
	g.Add(1, 2)
	v, cycle := g.Add(2, 1)
	if v != 2 {
		t.Fatalf("victim = %v, want t2 (youngest)", v)
	}
	if len(cycle) != 2 || cycle[0] != 2 {
		t.Fatalf("cycle = %v, want rotated to start at victim", cycle)
	}
}

func TestThreeCycle(t *testing.T) {
	g := New()
	g.Add(3, 7)
	g.Add(7, 5)
	v, cycle := g.Add(5, 3)
	if v != 7 {
		t.Fatalf("victim = %v, want t7", v)
	}
	if len(cycle) != 3 {
		t.Fatalf("cycle length = %d, want 3", len(cycle))
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g := New()
	if v, _ := g.Add(4, 4); !v.IsNil() {
		t.Fatalf("self edge produced victim %v", v)
	}
	if len(g.Waiters()) != 0 {
		t.Fatal("self edge stored")
	}
}

func TestRefcountedRemove(t *testing.T) {
	g := New()
	g.Add(1, 2)
	g.Add(1, 2) // second mechanism blocks 1 on 2
	g.Remove(1, 2)
	// Edge must still exist: closing the cycle should detect it.
	if v, _ := g.Add(2, 1); v.IsNil() {
		t.Fatal("edge dropped after single Remove of double-added edge")
	}
	g.Remove(2, 1)
	g.Remove(1, 2)
	if v, _ := g.Add(2, 1); !v.IsNil() {
		t.Fatal("cycle detected after all edges removed")
	}
}

func TestRemoveWaiterAndNode(t *testing.T) {
	g := New()
	g.Add(1, 2)
	g.Add(2, 3)
	g.RemoveWaiter(1)
	if v, _ := g.Add(2, 1); !v.IsNil() {
		t.Fatal("cycle via removed waiter")
	}
	g.RemoveNode(2)
	if got := g.Waiters(); len(got) != 0 {
		t.Fatalf("Waiters after RemoveNode = %v", got)
	}
}

func TestMultiHolderAdd(t *testing.T) {
	g := New()
	g.Add(1, 2, 3, 4)
	g.Add(4, 5)
	v, cycle := g.Add(5, 1)
	if v != 5 {
		t.Fatalf("victim = %v, want t5", v)
	}
	if len(cycle) != 3 {
		t.Fatalf("cycle = %v, want length 3 (1->4->5)", cycle)
	}
}

// TestQuickAcyclicNeverVictims: inserting only forward edges (small tid
// waits on larger tid) can never produce a cycle.
func TestQuickAcyclicNeverVictims(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := New()
		for _, p := range pairs {
			a, b := xid.TID(p[0])+1, xid.TID(p[1])+1
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if v, _ := g.Add(a, b); !v.IsNil() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCycleAlwaysDetected: adding a ring of edges must report a victim
// on the closing edge.
func TestQuickCycleAlwaysDetected(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%10) + 2
		g := New()
		for i := 1; i < size; i++ {
			if v, _ := g.Add(xid.TID(i), xid.TID(i+1)); !v.IsNil() {
				return false
			}
		}
		v, cycle := g.Add(xid.TID(size), 1)
		return v == xid.TID(size) && len(cycle) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDoomedVictimNotSelectedTwice: once a victim is selected, further
// cycles through it must not select it (or anyone else on its behalf)
// again until its blocking episode ends.
func TestDoomedVictimNotSelectedTwice(t *testing.T) {
	g := New()
	g.Add(1, 2)
	v, _ := g.Add(2, 1)
	if v != 2 {
		t.Fatalf("victim = %v, want t2", v)
	}
	if !g.Doomed(2) {
		t.Fatal("victim not marked doomed")
	}
	// A second mechanism blocks 2 on 1 again: same cycle, but the victim
	// is already being resolved — no second selection.
	if v, _ := g.Add(2, 1); !v.IsNil() {
		t.Fatalf("doomed victim re-selected: %v", v)
	}
	// A third transaction closing a cycle THROUGH the doomed victim also
	// sees no deadlock: 3 -> 2 (doomed) -> 1 -> ... is already breaking.
	g.Add(1, 3)
	if v, _ := g.Add(3, 2); !v.IsNil() {
		t.Fatalf("cycle through doomed victim selected %v", v)
	}
	// Once the victim stops waiting (abort removed its waits), the mark
	// clears and fresh cycles are detected again.
	g.RemoveWaiter(2)
	if g.Doomed(2) {
		t.Fatal("doomed mark survived end of blocking episode")
	}
	v, _ = g.Add(3, 1) // 1->3 already present: closes 1<->3
	if v != 3 {
		t.Fatalf("victim after episode end = %v, want t3", v)
	}
}

// TestDoomedClearedByLastEdgeRemove: clearing must trigger through Remove
// and through RemoveNode side effects, not only RemoveWaiter.
func TestDoomedClearedByLastEdgeRemove(t *testing.T) {
	g := New()
	g.Add(1, 2)
	if v, _ := g.Add(2, 1); v != 2 {
		t.Fatal("setup: no victim")
	}
	g.Remove(2, 1) // last outgoing edge of the victim
	if g.Doomed(2) {
		t.Fatal("doomed mark survived Remove of last edge")
	}

	g2 := New()
	g2.Add(1, 2)
	if v, _ := g2.Add(2, 1); v != 2 {
		t.Fatal("setup: no victim")
	}
	g2.RemoveNode(1) // deletes 2's only holder, emptying 2's edge set
	if g2.Doomed(2) {
		t.Fatal("doomed mark survived RemoveNode emptying the edge set")
	}
}

// TestStressConcurrentCycles hammers the detector with concurrent cycle
// creation and resolution across many disjoint rings at once (the shape
// the sharded lock manager produces: detections fired from many shard
// latches in parallel). Per ring it runs three phases:
//
//  1. ringSize goroutines concurrently add the ring's edges — exactly one
//     of them must be told it closed a deadlock (one victim per episode);
//  2. with the victim still doomed, ringSize goroutines concurrently
//     re-add the same edges — none may select a second victim, even
//     though the cycle is structurally present on every one of those
//     calls;
//  3. resolution and teardown run concurrently across rings.
//
// Completion of the test is itself the "detector never deadlocks" check.
func TestStressConcurrentCycles(t *testing.T) {
	const (
		rounds   = 100
		ringsPer = 8 // concurrent rings per round
		ringSize = 5
	)
	g := New()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for r := 0; r < ringsPer; r++ {
			// Disjoint tid ranges per ring so rings share the graph and its
			// doomed set but not nodes: cross-ring interference cannot mask
			// a double selection within a ring.
			base := xid.TID(round*ringsPer*ringSize + r*ringSize + 1)
			edge := func(i int) (w, h xid.TID) {
				return base + xid.TID(i), base + xid.TID((i+1)%ringSize)
			}
			round, r := round, r
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Phase 1: build the ring concurrently. Adds serialize on
				// g.mu, so whichever Add lands last completes the cycle and
				// must be the single one that reports a victim.
				var selected int32
				var victim atomic.Uint64
				var inner sync.WaitGroup
				for i := 0; i < ringSize; i++ {
					i := i
					inner.Add(1)
					go func() {
						defer inner.Done()
						w, h := edge(i)
						if v, _ := g.Add(w, h); !v.IsNil() {
							atomic.AddInt32(&selected, 1)
							victim.Store(uint64(v))
						}
					}()
				}
				inner.Wait()
				if n := atomic.LoadInt32(&selected); n != 1 {
					t.Errorf("round %d ring %d: %d victims on creation, want exactly 1", round, r, n)
					return
				}
				v := xid.TID(victim.Load())
				// Phase 2: the victim is doomed and unresolved; concurrent
				// re-adds of every ring edge all see the complete cycle but
				// must not select again.
				var second int32
				for i := 0; i < ringSize; i++ {
					i := i
					inner.Add(1)
					go func() {
						defer inner.Done()
						w, h := edge(i)
						if v2, _ := g.Add(w, h); !v2.IsNil() {
							atomic.AddInt32(&second, 1)
						}
					}()
				}
				inner.Wait()
				if n := atomic.LoadInt32(&second); n != 0 {
					t.Errorf("round %d ring %d: %d extra victims while episode unresolved", round, r, n)
					return
				}
				// Phase 3: resolve as the lock manager would — the victim
				// stops waiting and terminates — then tear the ring down,
				// racing the other rings' phases.
				g.RemoveWaiter(v)
				g.RemoveNode(v)
				for i := 0; i < ringSize; i++ {
					g.RemoveNode(base + xid.TID(i))
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if got := g.Waiters(); len(got) != 0 {
			t.Fatalf("round %d: graph not empty after teardown: %v", round, got)
		}
	}
}

// TestDoomAttractsNoEdges: a transaction condemned via Doom (being aborted
// by context cancellation or deadline) must not attract new edges, and
// cycles through it must not select fresh victims — the abort already
// breaks them.
func TestDoomAttractsNoEdges(t *testing.T) {
	g := New()
	g.Doom(2)
	if v, _ := g.Add(1, 2); !v.IsNil() {
		t.Fatalf("victim %v from edge to doomed holder", v)
	}
	// The edge was not recorded: 1 is not a waiter.
	if ws := g.Waiters(); len(ws) != 0 {
		t.Fatalf("edge toward doomed holder recorded: waiters %v", ws)
	}
	// A would-be cycle through the doomed node selects no victim.
	if v, _ := g.Add(2, 3); !v.IsNil() {
		t.Fatalf("doomed waiter's own add selected victim %v", v)
	}
	if v, _ := g.Add(3, 2); !v.IsNil() {
		t.Fatalf("victim %v for a cycle the abort already breaks", v)
	}
	// Termination clears the mark with the node.
	g.RemoveNode(2)
	if g.Doomed(2) {
		t.Fatal("doomed mark survived RemoveNode")
	}
	// After the doomed transaction is gone, real cycles detect normally.
	if v, _ := g.Add(4, 3); !v.IsNil() {
		t.Fatalf("unexpected victim %v", v)
	}
	if v, _ := g.Add(3, 4); v.IsNil() {
		t.Fatal("genuine cycle not detected after doomed node removed")
	}
}

// TestEpisodeAllocBudget: once the graph has warmed, a blocking episode —
// a waiter's edges added, the cycle search walking a standing chain behind
// them, the edges removed — allocates nothing. It cost an edge set and its
// growth per waiter, and a closure, a path and two visited sets per search.
func TestEpisodeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g := New()
	g.Add(2, 3)
	g.Add(3, 4)
	episode := func() {
		if v, _ := g.Add(1, 2, 5); !v.IsNil() {
			t.Fatalf("victim %v without a cycle", v)
		}
		g.Remove(1, 2)
		g.Remove(1, 5)
	}
	episode()
	if n := testing.AllocsPerRun(1000, episode); n != 0 {
		t.Fatalf("a blocking episode allocates %.1f objects, want 0", n)
	}
	// Victim choice is what it was: closing the chain into a cycle picks
	// its youngest member.
	if v, cycle := g.Add(4, 2); v != 4 || len(cycle) != 3 {
		t.Fatalf("victim %v on cycle %v, want 4 on 2 -> 3 -> 4", v, cycle)
	}
}
