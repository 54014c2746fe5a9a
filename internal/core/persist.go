package core

import (
	"repro/internal/uniproc"
)

// PersistentMutex is RecoverableMutex ported to a crash-prone NVRAM
// machine (uniproc.Processor with EnablePersistence): the same owner+epoch
// lock word, with explicit persist points so the word's NVM image always
// supports recovery from NVM contents alone.
//
//	P1  after a successful acquire or repair: flush lock; fence. NVM
//	    never attributes the critical section's effects to an owner it
//	    has forgotten.
//	P3  after release: flush lock; fence. A crash after P3 recovers a
//	    free lock and repairs nothing.
//
// The critical section's own durability (the P2 point) belongs to the
// caller: only the guest knows which words its critical section must
// persist before the release may become durable.
//
// Recover is the reboot-time repair: called on a fresh processor, before
// any worker thread exists, it clears whatever owner the surviving lock
// word names — that owner belonged to the crashed run and is provably
// gone — and bumps the epoch so no resurrected store can reinstate it.
type PersistentMutex struct {
	RecoverableMutex
}

// NewPersistentMutex returns an unlocked persistent recoverable mutex.
func NewPersistentMutex() *PersistentMutex { return &PersistentMutex{} }

// Name implements Locker.
func (m *PersistentMutex) Name() string { return "persistent" }

// Acquire implements Locker: the recoverable acquire (wait on a live
// owner, repair a dead one), then the P1 persist point.
func (m *PersistentMutex) Acquire(e *uniproc.Env) {
	m.RecoverableMutex.Acquire(e)
	e.Flush(&m.word) // P1
	e.Fence()
}

// Release implements Locker: the owner-checked release, then the P3
// persist point.
func (m *PersistentMutex) Release(e *uniproc.Env) {
	m.RecoverableMutex.Release(e)
	e.Flush(&m.word) // P3
	e.Fence()
}

// Recover repairs the lock word from NVM contents alone, on reboot. It
// must run before any thread that could acquire the lock is forked: with
// no worker yet alive, a nonzero owner field can only name a thread of
// the crashed run. It reports whether a repair was needed, and persists
// the repaired word before returning so a crash during recovery re-runs
// the same repair.
func (m *PersistentMutex) Recover(e *uniproc.Env) bool {
	v := e.Load(&m.word)
	if rmOwner(v) < 0 {
		return false
	}
	e.CountRepair(rmOwner(v))
	e.Store(&m.word, (rmEpoch(v)+1)<<rmEpochShift)
	e.Flush(&m.word)
	e.Fence()
	return true
}
