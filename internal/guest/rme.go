package guest

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// The recoverable lock word of RecoverableCounterProgram,
// PersistentCounterProgram and ResilientServerProgram holds the owner's
// thread ID + 1 in the low 16 bits (0 meaning free) and the steal epoch
// above them. Every host-side oracle decodes and judges it here.

// LockOwner returns the thread a recoverable lock word names as its
// owner, or -1 when the lock is free.
func LockOwner(w isa.Word) int { return int(w&0xFFFF) - 1 }

// HeldLock words an audit's finding that a recoverable lock word is
// still held, naming the owner by thread ID as rasvm's lock line does:
// "lock still owned by thread N". It returns "" for a free word.
func HeldLock(w isa.Word) string {
	owner := LockOwner(w)
	if owner < 0 {
		return ""
	}
	return fmt.Sprintf("lock still owned by thread %d", owner)
}

// LockEpoch returns a recoverable lock word's steal epoch: one bump per
// repair of a dead owner's lock.
func LockEpoch(w isa.Word) isa.Word { return w >> 16 }

// RMEBreach is one broken RME rule. Kind files it the way the model
// checker does: "rme" for a malformed lock-word transition,
// "mutual-exclusion" for a store that two threads could both have made.
type RMEBreach struct{ Kind, Msg string }

// LockStore judges thread me's committed store old->new to a recoverable
// lock word (me is -1 between threads; ownerAlive says whether the
// thread old names can still run). The legal transitions are:
//
//   - acquire: a free lock taken by me, epoch unchanged;
//   - release: me's own lock freed, epoch unchanged;
//   - steal: a dead owner's lock taken by me, epoch bumped by one;
//   - repair, only where the caller admits it: thread 0 freeing a dead
//     owner's lock with the epoch bumped — the persistent guests' boot
//     recovery, which runs before any worker exists.
//
// It returns the rules the store broke, nil for a legal store.
func LockStore(me int, old, new isa.Word, ownerAlive, repair bool) []RMEBreach {
	oldOwner, newOwner := LockOwner(old), LockOwner(new)
	oldEpoch, newEpoch := LockEpoch(old), LockEpoch(new)
	bad := func(what string) []RMEBreach {
		return []RMEBreach{{"rme", fmt.Sprintf("bad %s %#x->%#x by t%d", what, old, new, me)}}
	}
	switch {
	case oldOwner < 0 && newOwner >= 0:
		if newOwner != me || newEpoch != oldEpoch {
			return bad("acquire")
		}
	case oldOwner >= 0 && newOwner < 0:
		if oldOwner == me && newEpoch == oldEpoch {
			return nil
		}
		if !repair {
			return bad("release")
		}
		if me != 0 || newEpoch != oldEpoch+1 || ownerAlive {
			return bad("release/repair")
		}
	case oldOwner >= 0 && newOwner >= 0:
		var bs []RMEBreach
		if newOwner != me || newEpoch != oldEpoch+1 {
			bs = bad("steal")
		}
		if ownerAlive {
			bs = append(bs, RMEBreach{"mutual-exclusion", fmt.Sprintf("t%d stole the lock from live t%d", me, oldOwner)})
		}
		return bs
	}
	return nil
}

// CounterStore judges thread me's committed store old->new to the
// counter a recoverable lock guards, with the lock word reading lock: an
// increment is legal only by the lock's owner, and only by one.
func CounterStore(me int, lock, old, new isa.Word) []RMEBreach {
	if LockOwner(lock) != me || new != old+1 {
		return []RMEBreach{{"mutual-exclusion", fmt.Sprintf("t%d incremented %d->%d with lock %#x", me, old, new, lock)}}
	}
	return nil
}

// Watcher is the memory view WatchRME needs: vmach.Memory satisfies it.
type Watcher interface {
	Peeker
	Watch(addr uint32, fn func(old, new isa.Word))
}

// Threads is the kernel view WatchRME needs: *kernel.Kernel satisfies
// it. CurrentID is -1 between threads.
type Threads interface {
	CurrentID() int
	ThreadAlive(tid int) bool
}

// RMECounts is what WatchRME has seen: owner-to-owner lock stores (the
// orphan repairs) and counter stores.
type RMECounts struct{ Steals, Increments uint64 }

// WatchRME judges every committed store to p's "lock" and "counter"
// words in mem by LockStore and CounterStore, attributing it through ts
// and passing each broken rule to report; repair is LockStore's.
func WatchRME(mem Watcher, p *asm.Program, ts Threads, repair bool, report func(RMEBreach)) *RMECounts {
	lockAddr := p.MustSymbol("lock")
	c := &RMECounts{}
	mem.Watch(lockAddr, func(old, new isa.Word) {
		owner := LockOwner(old)
		if owner >= 0 && LockOwner(new) >= 0 {
			c.Steals++
		}
		for _, b := range LockStore(ts.CurrentID(), old, new, owner >= 0 && ts.ThreadAlive(owner), repair) {
			report(b)
		}
	})
	mem.Watch(p.MustSymbol("counter"), func(old, new isa.Word) {
		c.Increments++
		for _, b := range CounterStore(ts.CurrentID(), mem.Peek(lockAddr), old, new) {
			report(b)
		}
	})
	return c
}
