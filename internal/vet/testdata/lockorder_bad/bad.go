// Package thing is a lockorder fixture: two locks taken in both orders,
// and a stripe barrier that re-acquires its own lock class.
package thing

import "sync"

// pair holds two locks taken in opposite orders by forward and backward.
type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// forward takes a then b.
func (p *pair) forward() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock() // flagged: backward acquires a while b is held
	defer p.b.Unlock()
}

// backward takes b then a.
func (p *pair) backward() {
	p.b.Lock()
	defer p.b.Unlock()
	p.a.Lock() // flagged: forward acquires b while a is held
	defer p.a.Unlock()
}

// stripe is one lock stripe.
type stripe struct {
	mu sync.Mutex
}

// stripeSet owns a fixed stripe array.
type stripeSet struct {
	stripes [4]stripe
}

// barrier holds every stripe at once: a self-edge on the stripe.mu class.
func (s *stripeSet) barrier() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock() // flagged: same class already held
	}
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}
