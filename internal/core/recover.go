package core

import (
	"fmt"

	"repro/internal/uniproc"
)

// Recoverable-mutual-exclusion lock word layout. The low halfword names the
// owner (thread ID + 1; 0 = free) and the high halfword carries an epoch
// that a repair bumps, so a stale owner resurrected by a rolled-back
// sequence can never be confused with the current one:
//
//	+----------------+----------------+
//	|  epoch (16)    |  owner+1 (16)  |
//	+----------------+----------------+
const (
	rmOwnerMask  Word = 0x0000FFFF
	rmEpochShift      = 16
	rmMaxOwner        = int(rmOwnerMask) - 1
)

func rmOwner(v Word) int  { return int(v&rmOwnerMask) - 1 } // -1 = free
func rmEpoch(v Word) Word { return v >> rmEpochShift }

// RecoverableMutex is a mutual-exclusion lock that survives the death of
// its owner — the recoverable mutual exclusion (RME) contract of Golab and
// Ramaraju, grafted onto the paper's restartable atomic sequences.
//
// Bershad et al.'s protocols assume every suspended thread eventually
// resumes; a thread killed inside its critical section orphans a TASLock
// forever. RecoverableMutex instead stores owner-id + epoch in the lock
// word. An acquirer finding the word owned consults the runtime's
// liveness oracle (Env.ThreadDead): a live owner is waited on as usual,
// but a dead owner's lock is *repaired* — stolen with a compare-and-swap
// that bumps the epoch, so at most one repairer wins and no resurrected
// store can reinstate the corpse.
//
// The repair protocol is bounded: detecting the dead owner takes one load
// and one oracle query, and the steal is a single bounded CAS attempt per
// loop iteration — no handshake with other waiters is needed, because on
// a uniprocessor the CAS (itself a restartable sequence) is atomic.
//
// Attach an RMEChecker to audit a run; it panics nowhere and records
// violations for the harness to assert on.
type RecoverableMutex struct {
	word    Word
	Checker *RMEChecker // optional invariant audit
}

// NewRecoverableMutex returns an unlocked recoverable mutex.
func NewRecoverableMutex() *RecoverableMutex { return &RecoverableMutex{} }

// Name implements Locker.
func (m *RecoverableMutex) Name() string { return "recoverable" }

// cas atomically replaces the lock word with v if it still equals expect,
// as a restartable sequence: load, compare, committing store. A failed
// compare returns without committing — an uncommitted sequence has no
// visible write, so abandoning it is safe (§2.4).
func (m *RecoverableMutex) cas(e *uniproc.Env, expect, v Word) bool {
	swapped := false
	e.Restartable(func() {
		swapped = false
		seen := e.Load(&m.word)
		e.ChargeALU(2)
		if seen != expect {
			return
		}
		e.Commit(&m.word, v)
		swapped = true
	})
	return swapped
}

func (m *RecoverableMutex) self(e *uniproc.Env) Word {
	id := e.Self().ID
	if id > rmMaxOwner {
		panic(fmt.Sprintf("core: thread ID %d does not fit the lock word's owner field", id))
	}
	return Word(id + 1)
}

// step makes one pass at the lock: acquire it if free, repair it if the
// owner is dead, otherwise report it busy. It never waits.
func (m *RecoverableMutex) step(e *uniproc.Env, me Word) (acquired, busy bool) {
	v := e.Load(&m.word)
	e.ChargeALU(2)
	own := rmOwner(v)
	switch {
	case own < 0: // free: claim it, preserving the epoch
		if nv := v&^rmOwnerMask | me; m.cas(e, v, nv) {
			m.noteAcquire(e, -1, nv)
			return true, false
		}
		return false, false // raced; retry
	case own == e.Self().ID:
		panic(fmt.Sprintf("core: recursive RecoverableMutex acquire by thread %d", own))
	case e.ThreadDead(own): // orphaned: steal with a bumped epoch
		if nv := (rmEpoch(v)+1)<<rmEpochShift | me; m.cas(e, v, nv) {
			e.CountRepair(own)
			m.noteAcquire(e, own, nv)
			return true, false
		}
		return false, false // another repairer won; retry
	}
	return false, true
}

// Acquire implements Locker: spin (yielding, as on any uniprocessor) until
// the lock is free or its owner has died and the repair CAS succeeds.
func (m *RecoverableMutex) Acquire(e *uniproc.Env) {
	me := m.self(e)
	for {
		acquired, busy := m.step(e, me)
		if acquired {
			return
		}
		if busy {
			e.Processor().CountHoldup()
			e.Yield()
		}
	}
}

// Release implements Locker: clear the owner field with a single word
// store (atomic on a uniprocessor), preserving the epoch. Only the owner
// may release; anything else is a caller bug and panics.
func (m *RecoverableMutex) Release(e *uniproc.Env) {
	v := e.Load(&m.word)
	if own := rmOwner(v); own != e.Self().ID {
		panic(fmt.Sprintf("core: RecoverableMutex released by thread %d, owned by %d", e.Self().ID, own))
	}
	m.noteRelease(e)
	e.Store(&m.word, v&^rmOwnerMask)
}

func (m *RecoverableMutex) noteAcquire(e *uniproc.Env, stolenFrom int, word Word) {
	if m.Checker != nil {
		m.Checker.acquired(e, stolenFrom, word)
	}
}

func (m *RecoverableMutex) noteRelease(e *uniproc.Env) {
	if m.Checker != nil {
		m.Checker.released(e)
	}
}

// RMEChecker audits a RecoverableMutex run against the recoverable-
// mutual-exclusion contract:
//
//   - Mutual exclusion: a successful acquire must find the previous owner
//     either gone (clean release) or dead (repair); two live threads may
//     never hold the lock at once.
//   - Epoch monotonicity: a clean acquire keeps the epoch, and every
//     repair bumps it by exactly one.
//   - Owner integrity: only the recorded owner may release.
//
// The checker runs inside the virtual machine's single-baton discipline,
// so its state needs no synchronization. Violations are recorded, never
// panicked, so a harness can sweep thousands of schedules and report all
// of them.
type RMEChecker struct {
	owner    int  // current owner's thread ID; -1 = free
	epoch    Word // the lock word's epoch as of the last acquire
	steals   uint64
	failures []string
}

// NewRMEChecker returns a checker for an unlocked mutex.
func NewRMEChecker() *RMEChecker { return &RMEChecker{owner: -1} }

// Steals returns how many acquires repaired a dead owner's lock.
func (c *RMEChecker) Steals() uint64 { return c.steals }

// Violations returns the recorded invariant violations.
func (c *RMEChecker) Violations() []string { return c.failures }

func (c *RMEChecker) violate(format string, args ...any) {
	if len(c.failures) < 32 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// acquired audits thread e's acquire, which stored word into the lock;
// stolenFrom is the dead owner it repaired, or -1 for a clean acquire.
func (c *RMEChecker) acquired(e *uniproc.Env, stolenFrom int, word Word) {
	me := e.Self().ID
	want, what := c.epoch, "clean acquire"
	if stolenFrom >= 0 {
		want, what = rmEpoch((c.epoch+1)<<rmEpochShift), "repair" // wraps as the word's field does
	}
	if got := rmEpoch(word); got != want {
		c.violate("thread %d's %s moved the epoch %d -> %d, want %d", me, what, c.epoch, got, want)
	}
	c.epoch = rmEpoch(word)
	if stolenFrom >= 0 {
		c.steals++
		if !e.ThreadDead(stolenFrom) {
			c.violate("thread %d stole the lock from live owner %d", me, stolenFrom)
		}
	}
	if c.owner >= 0 && !e.ThreadDead(c.owner) {
		c.violate("mutual exclusion violated: thread %d acquired while live thread %d holds the lock", me, c.owner)
	}
	if c.owner >= 0 && stolenFrom < 0 {
		c.violate("thread %d acquired an orphaned lock (owner %d) without a repair", me, c.owner)
	}
	c.owner = me
}

func (c *RMEChecker) released(e *uniproc.Env) {
	me := e.Self().ID
	if c.owner != me {
		c.violate("thread %d released a lock owned by %d", me, c.owner)
	}
	c.owner = -1
}
