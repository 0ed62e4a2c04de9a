package pool

import (
	"sync"
	"testing"

	"repro/internal/race"
)

type item struct {
	v int
	Link[item]
}

type stack = Stack[item, *item]

// isLinked reports whether x's link is set.
func isLinked(x *item) bool { return x.Link != Link[item]{} }

// TestStackIsLIFO: values come off in the reverse of the order they went
// on, each with its link cleared, Len follows the depth, and an empty stack
// pops nil.
func TestStackIsLIFO(t *testing.T) {
	var s stack
	if x := s.Pop(); x != nil || s.Len() != 0 {
		t.Fatalf("empty stack: Pop = %v, Len %d", x, s.Len())
	}
	items := make([]item, 5)
	for i := range items {
		items[i].v = i
		if !s.Push(&items[i], len(items)) {
			t.Fatalf("push %d refused under the cap", i)
		}
		if s.Len() != i+1 {
			t.Fatalf("after %d pushes Len = %d", i+1, s.Len())
		}
	}
	if err := s.Audit(nil); err != nil {
		t.Fatal(err)
	}
	for i := len(items) - 1; i >= 0; i-- {
		x := s.Pop()
		if x != &items[i] {
			t.Fatalf("pop %d: got item %v, want %d", len(items)-1-i, x, i)
		}
		if isLinked(x) {
			t.Errorf("item %d popped with its link set: %+v", i, x.Link)
		}
		if s.Len() != i {
			t.Fatalf("after popping item %d Len = %d", i, s.Len())
		}
	}
	if x := s.Pop(); x != nil {
		t.Fatalf("drained stack popped item %d", x.v)
	}
}

// TestPushPastCapRefuses: a push onto a full stack reports false and leaves
// both the value and the stack as they were.
func TestPushPastCapRefuses(t *testing.T) {
	var s stack
	a, b, c := &item{v: 1}, &item{v: 2}, &item{v: 3}
	s.Push(a, 2)
	s.Push(b, 2)
	if s.Push(c, 2) {
		t.Fatal("push past the cap accepted")
	}
	if isLinked(c) {
		t.Errorf("refused value was linked: %+v", c.Link)
	}
	if s.Len() != 2 || s.Pop() != b || s.Pop() != a {
		t.Fatal("a refused push disturbed the stack")
	}
	if s.Push(c, 0) {
		t.Fatal("push onto a stack capped at 0 accepted")
	}
}

// TestAuditCatchesBrokenChains: the audit visits every value top down on a
// sound stack and reports a forged depth, a chain that ends early and a
// loop.
func TestAuditCatchesBrokenChains(t *testing.T) {
	build := func() (*stack, []*item) {
		var s stack
		items := []*item{{v: 0}, {v: 1}, {v: 2}}
		for _, x := range items {
			s.Push(x, 8)
		}
		return &s, items
	}
	s, _ := build()
	var seen []int
	if err := s.Audit(func(x *item) { seen = append(seen, x.v) }); err != nil {
		t.Fatalf("sound stack: %v", err)
	}
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 1 || seen[2] != 0 {
		t.Fatalf("audit visited %v, want [2 1 0]", seen)
	}

	for _, tc := range []struct {
		name  string
		forge func(items []*item)
	}{
		{"forged middle depth", func(items []*item) { items[1].n = 5 }},
		{"forged top depth", func(items []*item) { items[2].n = 7 }},
		{"chain cut short", func(items []*item) { items[1].next = nil }},
		{"loop", func(items []*item) { items[0].next = items[2] }},
		{"loop past a forged bottom", func(items []*item) { items[0].n, items[0].next = 2, items[2] }},
	} {
		s, items := build()
		tc.forge(items)
		if err := s.Audit(nil); err == nil {
			t.Errorf("%s: audit found nothing", tc.name)
		}
	}
}

// TestSharedConcurrentPushPop: goroutines push and pop one shared list at
// once; every value is on the list or held by exactly one goroutine, the
// cap holds, and the chain is sound at the end. Run under -race.
func TestSharedConcurrentPushPop(t *testing.T) {
	const workers, rounds, max = 4, 2000, 16
	var s Shared[item, *item]
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := make(map[*item]bool)
			for i := 0; i < rounds; i++ {
				if i%3 == 2 {
					for x := range held {
						delete(held, x)
						x.v = -1
						s.Push(x, max)
						break
					}
					continue
				}
				x := s.Pop()
				if x == nil {
					x = &item{}
				} else if x.v != -1 || isLinked(x) {
					errs <- "popped a value that is in use or still linked"
					return
				}
				x.v = w
				held[x] = true
			}
			for x := range held {
				x.v = -1
				s.Push(x, max)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	n := 0
	if err := s.Audit(func(x *item) {
		n++
		if x.v != -1 {
			t.Errorf("a value on the list is marked in use by %d", x.v)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n > max || n != s.s.Len() {
		t.Errorf("list holds %d values, Len %d, cap %d", n, s.s.Len(), max)
	}
}

// TestWarmPushPopAllocatesNothing: recycling through a warmed list is free.
func TestWarmPushPopAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	var s Stack[item, *item]
	var sh Shared[item, *item]
	x, y := &item{}, &item{}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Push(x, 4)
		x = s.Pop()
		sh.Push(y, 4)
		y = sh.Pop()
	})
	if allocs != 0 {
		t.Errorf("warm push/pop: %v allocations, want 0", allocs)
	}
}
