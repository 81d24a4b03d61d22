// Package lockorder is a morclint fixture for the lock-ordering pass:
// an AB-BA cycle, interprocedural lock-acquired-twice paths (one through
// a deferred literal), and the shapes the pass must stay quiet about
// (sequential acquisition, function-local mutexes, goroutine bodies).
package lockorder

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// lockAB establishes a → b.
func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want "potential deadlock cycle"
	p.b.Unlock()
	p.a.Unlock()
}

// lockBA establishes b → a, closing the cycle.
func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock() // want "potential deadlock cycle"
	p.a.Unlock()
	p.b.Unlock()
}

// sequential releases before the next acquisition: no ordering edge.
func (p *pair) sequential() {
	p.a.Lock()
	p.a.Unlock()
	p.b.Lock()
	p.b.Unlock()
}

type rec struct {
	mu sync.Mutex
	n  int
}

// outer re-enters its own lock class through a call two frames down.
func (r *rec) outer() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.middle() // want "lock-acquired-twice path on lockorder.rec.mu"
}

func (r *rec) middle() {
	r.helper()
}

func (r *rec) helper() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

// localMutex cannot participate in cross-function ordering: the pass
// classes only struct-field and package-level mutexes.
func localMutex() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}

// spawn hands work to a goroutine: the spawned body does not inherit
// the spawner's held set, so there is no a → b edge here.
func (p *pair) spawn() {
	p.a.Lock()
	go func() {
		p.b.Lock()
		p.b.Unlock()
	}()
	p.a.Unlock()
}

type deferred struct {
	mu sync.Mutex
	n  int
}

// flush holds its lock across a helper whose deferred literal takes the
// same lock: the deferred body runs while flush still holds it.
func (d *deferred) flush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count() // want "lock-acquired-twice path on lockorder.deferred.mu"
}

func (d *deferred) count() {
	defer func() {
		d.mu.Lock()
		d.n++
		d.mu.Unlock()
	}()
}

type sel struct {
	mu sync.Mutex
	ch chan int
}

// send evaluates its select operands under s.mu, and f takes s.mu
// again.
func (s *sel) send() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- s.f(<-s.ch): // want "lock-acquired-twice path on lockorder.sel.mu"
	default:
	}
}

func (s *sel) f(v int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return v
}
