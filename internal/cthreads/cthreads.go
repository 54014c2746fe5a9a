// Package cthreads is the analogue of Mach's C-Threads package (Cooper &
// Draves): user-level thread management facilities — forkable threads with
// join, spinlocks, relinquishing mutexes, condition variables and
// semaphores — built entirely on the primitive atomic operations of a
// core.Mechanism.
//
// This is the dependency structure the paper measures in §5.2: "thread
// management packages rely heavily on simple atomic operations to implement
// higher level facilities", so the performance of every facility here
// reflects the mechanism underneath (Table 2).
package cthreads

import (
	"repro/internal/core"
	"repro/internal/uniproc"
)

// Word aliases the simulated memory word.
type Word = uniproc.Word

// Pkg is a thread-package instance bound to one atomic-operation mechanism,
// as a real C-Threads build was bound to either kernel emulation or
// restartable atomic sequences.
type Pkg struct {
	mech core.Mechanism
}

// New creates a thread package over mech.
func New(mech core.Mechanism) *Pkg { return &Pkg{mech: mech} }

// SpinLock is a Test-And-Set spinlock (which yields the processor on
// contention: spinning is useless on a uniprocessor while the holder is
// suspended).
type SpinLock struct {
	l *core.TASLock
}

// NewSpinLock creates an unlocked spinlock.
func (p *Pkg) NewSpinLock() *SpinLock {
	return &SpinLock{l: core.NewTASLock(p.mech)}
}

// Lock acquires the spinlock.
func (s *SpinLock) Lock(e *uniproc.Env) { s.l.Acquire(e) }

// Unlock releases the spinlock.
func (s *SpinLock) Unlock(e *uniproc.Env) { s.l.Release(e) }

// Mutex is a relinquishing mutex: "unlike a spinlock, if a thread tries to
// acquire a held mutex, it relinquishes the processor. The mutex is
// implemented using a spinlock and a queue of waiting threads" (§5.2).
// Unlock hands the mutex directly to the first waiter.
type Mutex struct {
	spin    *SpinLock
	held    Word
	waiters []*uniproc.Thread
}

// NewMutex creates an unlocked mutex.
func (p *Pkg) NewMutex() *Mutex {
	return &Mutex{spin: p.NewSpinLock()}
}

// Lock acquires the mutex, blocking the thread if it is held.
func (m *Mutex) Lock(e *uniproc.Env) {
	m.spin.Lock(e)
	if e.Load(&m.held) == 0 {
		e.Store(&m.held, 1)
		m.spin.Unlock(e)
		return
	}
	m.waiters = append(m.waiters, e.Self())
	e.ChargeALU(4) // enqueue
	m.spin.Unlock(e)
	e.Block()
	// Handoff: the unlocker left held == 1 on our behalf.
}

// Unlock releases the mutex, waking the first waiter if any.
func (m *Mutex) Unlock(e *uniproc.Env) {
	m.spin.Lock(e)
	if len(m.waiters) > 0 {
		t := m.waiters[0]
		m.waiters = m.waiters[1:]
		e.ChargeALU(4) // dequeue
		m.spin.Unlock(e)
		e.Unblock(t)
		return
	}
	e.Store(&m.held, 0)
	m.spin.Unlock(e)
}

// Cond is a condition variable used with a Mutex.
type Cond struct {
	spin    *SpinLock
	waiters []*uniproc.Thread
}

// NewCond creates a condition variable.
func (p *Pkg) NewCond() *Cond {
	return &Cond{spin: p.NewSpinLock()}
}

// Wait atomically releases m and blocks until signalled, then reacquires m.
// As always with condition variables, callers must re-check their predicate.
func (c *Cond) Wait(e *uniproc.Env, m *Mutex) {
	c.spin.Lock(e)
	c.waiters = append(c.waiters, e.Self())
	e.ChargeALU(4)
	c.spin.Unlock(e)
	m.Unlock(e)
	e.Block() // a Signal racing ahead is caught by the pending-wakeup guard
	m.Lock(e)
}

// Signal wakes one waiter, if any.
func (c *Cond) Signal(e *uniproc.Env) {
	c.spin.Lock(e)
	var t *uniproc.Thread
	if len(c.waiters) > 0 {
		t = c.waiters[0]
		c.waiters = c.waiters[1:]
		e.ChargeALU(4)
	}
	c.spin.Unlock(e)
	if t != nil {
		e.Unblock(t)
	}
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast(e *uniproc.Env) {
	c.spin.Lock(e)
	ts := c.waiters
	c.waiters = nil
	e.ChargeALU(2 + 2*len(ts))
	c.spin.Unlock(e)
	for _, t := range ts {
		e.Unblock(t)
	}
}

// Semaphore is Dijkstra's counting semaphore (P/V), the other mutual
// exclusion facility named in §1.1.
type Semaphore struct {
	spin    *SpinLock
	count   Word
	waiters []*uniproc.Thread
}

// NewSemaphore creates a semaphore with the given initial count.
func (p *Pkg) NewSemaphore(initial int) *Semaphore {
	return &Semaphore{spin: p.NewSpinLock(), count: Word(initial)}
}

// P decrements the semaphore, blocking while it is zero.
func (s *Semaphore) P(e *uniproc.Env) {
	s.spin.Lock(e)
	if c := e.Load(&s.count); c > 0 {
		e.Store(&s.count, c-1)
		s.spin.Unlock(e)
		return
	}
	s.waiters = append(s.waiters, e.Self())
	e.ChargeALU(4)
	s.spin.Unlock(e)
	e.Block()
	// Handoff: the V that woke us consumed the increment on our behalf.
}

// V increments the semaphore, waking one waiter if any.
func (s *Semaphore) V(e *uniproc.Env) {
	s.spin.Lock(e)
	if len(s.waiters) > 0 {
		t := s.waiters[0]
		s.waiters = s.waiters[1:]
		e.ChargeALU(4)
		s.spin.Unlock(e)
		e.Unblock(t)
		return
	}
	c := e.Load(&s.count)
	e.Store(&s.count, c+1)
	s.spin.Unlock(e)
}

// Count returns the current count (diagnostics only).
func (s *Semaphore) Count() Word { return s.count }

// Handle identifies a forked thread and supports Join.
type Handle struct {
	t       *uniproc.Thread
	spin    *SpinLock
	done    Word
	joiners []*uniproc.Thread
}

// Fork creates a new thread running fn and returns a joinable handle.
// The fork and the child's exit both synchronize through the package's
// mechanism, as in the paper's ForkTest benchmark.
func (p *Pkg) Fork(e *uniproc.Env, name string, fn func(*uniproc.Env)) *Handle {
	h := &Handle{spin: p.NewSpinLock()}
	h.t = e.Fork(name, func(ce *uniproc.Env) {
		fn(ce)
		h.finish(ce)
	})
	return h
}

func (h *Handle) finish(e *uniproc.Env) {
	h.spin.Lock(e)
	e.Store(&h.done, 1)
	ts := h.joiners
	h.joiners = nil
	h.spin.Unlock(e)
	for _, t := range ts {
		e.Unblock(t)
	}
}

// Join blocks until the thread has finished. Multiple threads may join the
// same handle.
func (h *Handle) Join(e *uniproc.Env) {
	h.spin.Lock(e)
	if e.Load(&h.done) != 0 {
		h.spin.Unlock(e)
		return
	}
	h.joiners = append(h.joiners, e.Self())
	e.ChargeALU(4)
	h.spin.Unlock(e)
	e.Block()
}

// Thread returns the underlying scheduler thread.
func (h *Handle) Thread() *uniproc.Thread { return h.t }
