// Package latchorder is a golden fixture for the latchorder checker.
package latchorder

import "sync"

type low struct {
	//asset:latch order=10
	mu sync.Mutex
}

type high struct {
	//asset:latch order=20
	mu sync.Mutex
}

// ascending is the sanctioned shape: strictly increasing order numbers.
func ascending(a *low, b *high) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// descending reorders the two acquisitions and must fail.
func descending(a *low, b *high) {
	b.mu.Lock()
	a.mu.Lock() // want `acquires latchorder\.low\.mu \(order 10\) while holding latchorder\.high\.mu \(order 20\)`
	a.mu.Unlock()
	b.mu.Unlock()
}

// twoOfAKind holds two instances of one class: never in ascending order.
func twoOfAKind(x, y *high) {
	x.mu.Lock()
	y.mu.Lock() // want `at most one latch of a class may be held`
	y.mu.Unlock()
	x.mu.Unlock()
}

func lockLow(a *low) {
	a.mu.Lock()
	a.mu.Unlock()
}

// transitive violates the order through a callee.
func transitive(a *low, b *high) {
	b.mu.Lock()
	lockLow(a) // want `may acquire latchorder\.low\.mu \(order 10\) while holding latchorder\.high\.mu \(order 20\)`
	b.mu.Unlock()
}

// loopGain stacks one class across iterations (the all-shard freeze shape).
func loopGain(hs []*high) {
	defer func() {
		for i := range hs {
			hs[i].mu.Unlock()
		}
	}()
	for i := range hs {
		hs[i].mu.Lock() // want `acquired in a loop without release`
	}
}

// suppressed shows a reasoned //lint:allow exception.
func suppressed(a *low, b *high) {
	b.mu.Lock()
	//lint:allow latchorder fixture demonstrates a reasoned exception
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

type guarded[T any] struct {
	//asset:latch order=5
	mu sync.Mutex
}

func (g *guarded[T]) touch() {
	g.mu.Lock()
	g.mu.Unlock()
}

// genericTransitive violates the order through an instantiated generic method.
func genericTransitive(g *guarded[int], b *high) {
	b.mu.Lock()
	g.touch() // want `may acquire latchorder\.guarded\.mu \(order 5\) while holding latchorder\.high\.mu \(order 20\)`
	b.mu.Unlock()
}
