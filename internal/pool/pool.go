// Package pool is the engine's one free list: a bounded intrusive LIFO of
// retired descriptors. A recyclable type embeds Link, which records the
// next value and the depth below it, so pushing and popping never allocate
// and a stack's header is one pointer. The owner resets a value before
// Push; Pop returns it as it was pushed, its link cleared.
package pool

import (
	"fmt"

	"repro/internal/latch"
)

// Link is what a recyclable type embeds. It is zero while the value is in
// use.
type Link[T any] struct {
	next *T
	n    int32 // values below this one
}

func (l *Link[T]) link() *Link[T] { return l }

// linked is satisfied by a pointer to a type that embeds Link.
type linked[T any] interface {
	*T
	link() *Link[T]
}

// Stack is a bounded LIFO, guarded by its owner's latch. The zero value is
// empty.
type Stack[T any, P linked[T]] struct {
	top P
}

// Len returns the number of values on the stack.
func (s *Stack[T, P]) Len() int {
	if s.top == nil {
		return 0
	}
	return int(s.top.link().n) + 1
}

// Pop takes the top value off the stack, or returns nil if it is empty.
func (s *Stack[T, P]) Pop() P {
	x := s.top
	if x != nil {
		l := x.link()
		s.top = P(l.next)
		*l = Link[T]{}
	}
	return x
}

// Push puts x on the stack unless it holds max values already, and reports
// whether it did. A refused value stays unlinked, for the collector.
func (s *Stack[T, P]) Push(x P, max int) bool {
	n := s.Len()
	if n >= max {
		return false
	}
	l := x.link()
	l.next, l.n = (*T)(s.top), int32(n)
	s.top = x
	return true
}

// Audit calls visit (if not nil) on each value from the top and reports the
// first break in the depth chain: a depth that does not fall by one from
// the top's, or a chain that ends above depth 0. A loop revisits a depth it
// has passed, so it is such a break and the walk always ends.
func (s *Stack[T, P]) Audit(visit func(P)) error {
	want := int32(s.Len() - 1)
	for x := s.top; x != nil; x, want = P(x.link().next), want-1 {
		if n := x.link().n; n != want {
			return fmt.Errorf("pool: a value says depth %d where %d is due", n, want)
		}
		if visit != nil {
			visit(x)
		}
	}
	if want != -1 {
		return fmt.Errorf("pool: the chain ends at depth %d", want+1)
	}
	return nil
}

// Shared is a Stack behind its own leaf spin latch, for a list that
// goroutines share with no owner latch in common: the latch is held for one
// push, pop or audit, and nothing is acquired under it.
type Shared[T any, P linked[T]] struct {
	//asset:latch order=90 spin
	lat latch.Latch
	s   Stack[T, P]
}

// Pop is Stack.Pop under the latch.
func (s *Shared[T, P]) Pop() P {
	s.lat.Lock()
	x := s.s.Pop()
	s.lat.Unlock()
	return x
}

// Push is Stack.Push under the latch.
func (s *Shared[T, P]) Push(x P, max int) bool {
	s.lat.Lock()
	ok := s.s.Push(x, max)
	s.lat.Unlock()
	return ok
}

// Audit is Stack.Audit under the latch; visit must not touch the list.
func (s *Shared[T, P]) Audit(visit func(P)) error {
	s.lat.Lock()
	defer s.lat.Unlock()
	return s.s.Audit(visit)
}
