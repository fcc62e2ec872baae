// Package locktest exercises the locksafe analyzer: each function is one
// known-good or known-bad lock-discipline pattern drawn from the shapes in
// the androne tree.
package locktest

import "sync"

// Dev stands in for the device interfaces (Sensors, MotorSink) whose
// implementations take their own locks.
type Dev interface {
	Ping() int
}

type S struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	dev Dev
	fn  func()
	ch  chan int
	n   int
}

// Good: canonical lock + deferred unlock.
func (s *S) Good() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

// Good: manual but balanced on the single path.
func (s *S) GoodManual() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Good: early-return path unlocks before returning.
func (s *S) GoodEarlyReturn() int {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return 0
	}
	n := s.n
	s.mu.Unlock()
	return n
}

// Good: the xxxLocked convention — runs with the caller's lock held and
// temporarily releases it around a callback (the checkFenceLocked shape).
func (s *S) breachLocked(action func()) {
	s.mu.Unlock()
	action()
	s.mu.Lock()
}

// Good: static calls and goroutine launches are allowed under a lock; only
// dynamic dispatch is flagged.
func (s *S) GoodStatic() {
	s.mu.Lock()
	defer s.mu.Unlock()
	helper()
	go drain(s.ch)
}

func helper() {}

func drain(ch chan int) {}

// Good: read lock with deferred release.
func (s *S) GoodRead() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.n
}

// Bad: falls off the end of the function with the lock held.
func (s *S) MissingUnlock() {
	s.mu.Lock()
	s.n++
} // want `returning with s\.mu held`

// Bad: one return path keeps the lock.
func (s *S) ReturnHeld() int {
	s.mu.Lock()
	if s.n > 0 {
		return s.n // want `returning with s\.mu held`
	}
	s.mu.Unlock()
	return 0
}

// Bad: read lock never released.
func (s *S) ReadHeld() int {
	s.rw.RLock()
	return s.n // want `returning with s\.rw \(read lock\) held`
}

// Bad: sync.Mutex is not reentrant.
func (s *S) DoubleLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want `s\.mu\.Lock: already locked`
	s.mu.Unlock()
}

// Bad: interface method call under the lock (the Sensors/MotorSink shape).
func (s *S) IfaceUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Ping() // want `interface method call s\.dev\.Ping while holding s\.mu`
}

// Bad: calling a function-typed field under the lock (the Binder handler /
// BreachAction shape).
func (s *S) FieldUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fn() // want `call through function field "fn" while holding s\.mu`
}

// Bad: calling a function-valued parameter under the lock (the
// WaypointListener shape).
func (s *S) VarUnderLock(cb func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cb() // want `call through function value "cb" while holding s\.mu`
}

// Bad: channel send under the lock.
func (s *S) SendUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want `channel send while holding s\.mu`
}

// Bad: channel receive under the lock.
func (s *S) RecvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while holding s\.mu`
}

// Bad: select under the lock.
func (s *S) SelectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select \(channel operations\) while holding s\.mu`
	case v := <-s.ch:
		s.n = v
	default:
	}
}

// Bad: the two arms of the if disagree about the lock.
func (s *S) BranchDiff(b bool) {
	s.mu.Lock()
	if b { // want `lock state differs between branches of this if`
		s.mu.Unlock()
	}
	s.mu.Unlock()
}

// Bad: each iteration acquires without releasing.
func (s *S) LoopImbalance() {
	for i := 0; i < 3; i++ { // want `lock state changes across loop iteration`
		s.mu.Lock()
	}
}

// Suppressed: the //vet:allow comment keeps a reviewed exception silent.
func (s *S) Suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dev.Ping() //vet:allow locksafe fixture: documents the suppression syntax
}

// Good: the TryLock idiom — the lock is held, under a deferred release,
// only in the branch where the try succeeded.
func (s *S) GoodTry() {
	if s.mu.TryLock() {
		defer s.mu.Unlock()
		s.n++
	}
}

// Good: the negated TryLock idiom — the failure branch leaves, and the
// lock is held from the if onwards.
func (s *S) GoodTryElse() {
	if !s.mu.TryLock() {
		return
	}
	defer s.mu.Unlock()
	s.n++
}

// Bad: a local mutex has no global name but is still checked.
func BadLocal() {
	var mu sync.Mutex
	mu.Lock()
} // want `returning with mu held`

// Good: two values of one type hold two distinct locks, not a double lock.
func GoodTwo(a, b *S) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// Good: the loop unlocks before leaving through break.
func (s *S) GoodBreak() {
	for {
		s.mu.Lock()
		if s.n > 0 {
			s.mu.Unlock()
			break
		}
		s.n++
		s.mu.Unlock()
	}
}

// Good: a release inside a deferred closure counts as a deferred release.
func (s *S) GoodDeferClosure() {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	s.n++
}

// Bad: a function literal is a frame of its own and is checked like one.
func (s *S) BadClosure() {
	go func() {
		s.mu.Lock()
		s.n++
	}() // want `returning with s\.mu held`
}
