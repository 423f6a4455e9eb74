// Package lockbad exercises every flagging path of busylint/locksafe:
// leaks through early returns, panics, switches, a self-deadlock, and a
// lock-order inversion between two fields, two package-level locks,
// and an embedded lock and a field lock.
package lockbad

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	v  int
}

// LeakOnEarlyReturn leaks mu when c is true.
func (s *S) LeakOnEarlyReturn(c bool) int {
	s.mu.Lock() // want `lock s\.mu may still be held`
	if c {
		return s.v
	}
	s.mu.Unlock()
	return 0
}

// LeakOnPanic leaks mu on the explicit panic path.
func (s *S) LeakOnPanic(c bool) {
	s.mu.Lock() // want `lock s\.mu may still be held`
	if c {
		panic("boom")
	}
	s.mu.Unlock()
}

// NeverReleased never unlocks at all.
func (s *S) NeverReleased() {
	s.mu.Lock() // want `lock s\.mu may still be held`
	s.v++
}

// ReadLeak leaks the read lock through one switch case.
func (s *S) ReadLeak(n int) int {
	s.rw.RLock() // want `read lock s\.rw may still be held`
	switch n {
	case 0:
		s.rw.RUnlock()
		return 0
	case 1:
		return s.v
	}
	s.rw.RUnlock()
	return s.v
}

// DoubleLock write-locks a mutex it already holds.
func (s *S) DoubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want `self-deadlock`
	s.mu.Unlock()
	s.mu.Unlock()
}

// DeferredStillDoubleLocks: the deferred unlock has not run yet when the
// second Lock blocks.
func (s *S) DeferredStillDoubleLocks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want `self-deadlock`
	s.mu.Unlock()
}

type T struct {
	a sync.Mutex
	b sync.Mutex
}

// AB acquires a before b — the canonical order.
func (t *T) AB() {
	t.a.Lock()
	t.b.Lock()
	t.b.Unlock()
	t.a.Unlock()
}

// BA reverses the order; together with AB this can deadlock.
func (t *T) BA() {
	t.b.Lock()
	t.a.Lock() // want `lock order inversion`
	t.a.Unlock()
	t.b.Unlock()
}

var (
	regMu   sync.Mutex
	cacheMu sync.Mutex
)

// RegThenCache takes the package-level locks in one order.
func RegThenCache() {
	regMu.Lock()
	cacheMu.Lock()
	cacheMu.Unlock()
	regMu.Unlock()
}

// CacheThenReg takes them in the other.
func CacheThenReg() {
	cacheMu.Lock()
	regMu.Lock() // want `lock order inversion: lockbad\.regMu acquired while holding lockbad\.cacheMu`
	regMu.Unlock()
	cacheMu.Unlock()
}

// Reg embeds its mutex and points at a T.
type Reg struct {
	sync.Mutex
	t *T
}

// OuterFirst takes the embedded lock, then t.a.
func (r *Reg) OuterFirst() {
	r.Lock()
	r.t.a.Lock()
	r.t.a.Unlock()
	r.Unlock()
}

// FieldFirst takes t.a, then the embedded lock.
func (r *Reg) FieldFirst() {
	r.t.a.Lock()
	r.Lock() // want `lock order inversion: lockbad\.Reg\.\(embedded\) acquired while holding lockbad\.T\.a`
	r.Unlock()
	r.t.a.Unlock()
}
