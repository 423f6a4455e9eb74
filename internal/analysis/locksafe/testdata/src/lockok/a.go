// Package lockok holds the sanctioned locking shapes busylint/locksafe
// must accept without a finding: deferred release (panic paths
// included), explicit release on every path, per-iteration lock/unlock,
// read/write splits, consistent ordering, local mutexes (which order
// against nothing) and the ignored TryLock.
package lockok

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	v  int
}

// DeferUnlock is the canonical shape.
func (s *S) DeferUnlock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

// DeferCoversPanic: the deferred unlock runs during unwinding.
func (s *S) DeferCoversPanic(c bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c {
		panic("boom")
	}
}

// AllPathsRelease unlocks explicitly on every path out.
func (s *S) AllPathsRelease(c bool) int {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return 1
	}
	s.mu.Unlock()
	return 0
}

// LoopLockUnlock holds the lock only inside each iteration.
func (s *S) LoopLockUnlock(n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		s.v++
		s.mu.Unlock()
	}
}

// RWReadPath releases the read half via defer.
func (s *S) RWReadPath() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.v
}

// DoubleCheck drops the read lock before taking the write lock.
func (s *S) DoubleCheck() {
	s.rw.RLock()
	v := s.v
	s.rw.RUnlock()
	if v == 0 {
		s.rw.Lock()
		s.v = 1
		s.rw.Unlock()
	}
}

// TryLockIgnored: conditional acquisition is outside the model.
func (s *S) TryLockIgnored() {
	if s.mu.TryLock() {
		s.v++
		s.mu.Unlock()
	}
}

type T struct {
	a sync.Mutex
	b sync.Mutex
}

// One and Two acquire a before b consistently — no inversion.
func (t *T) One() {
	t.a.Lock()
	t.b.Lock()
	t.b.Unlock()
	t.a.Unlock()
}

func (t *T) Two() {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock()
	defer t.b.Unlock()
}

// ClosureOwnsItsLock: the literal's lock discipline is checked against
// the literal itself, not the enclosing function.
func (s *S) ClosureOwnsItsLock() func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.v++
	}
}

// LocalThenField and FieldThenLocal take two unrelated local mutexes
// around t.a in opposite orders: a local mutex has no identity outside
// its function, so there is no order to invert.
func (t *T) LocalThenField() {
	var mu sync.Mutex
	mu.Lock()
	t.a.Lock()
	t.a.Unlock()
	mu.Unlock()
}

func (t *T) FieldThenLocal() {
	var other sync.Mutex
	t.a.Lock()
	other.Lock()
	other.Unlock()
	t.a.Unlock()
}

var registryMu sync.Mutex

// Register takes the package-level registryMu before t.a.
func (t *T) Register() {
	registryMu.Lock()
	t.a.Lock()
	t.a.Unlock()
	registryMu.Unlock()
}

// ShadowedName takes a local mutex named like the package-level lock
// inside t.a: it is a different lock, so this is no inversion.
func (t *T) ShadowedName() {
	var registryMu sync.Mutex
	t.a.Lock()
	registryMu.Lock()
	registryMu.Unlock()
	t.a.Unlock()
}
