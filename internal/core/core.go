// Package core is the heart of the reproduction: the atomic-operation
// mechanisms of Bershad, Redell & Ellis, "Fast Mutual Exclusion for
// Uniprocessors" (ASPLOS 1992), expressed against the virtual uniprocessor
// of internal/uniproc.
//
// A Mechanism provides the primitive atomic read-modify-write operations
// (Test-And-Set, Clear, and the Fetch-And-Add extension) that higher-level
// synchronization — internal/cthreads' spinlocks, mutexes and condition
// variables — is built from. Four mechanisms are provided:
//
//   - RAS: restartable atomic sequences, the paper's contribution (§2.4).
//     Optimistic: the sequence runs unguarded; if the thread is suspended
//     inside it, the runtime re-runs it from the top. Inline and
//     out-of-line (registered, with call linkage) variants correspond to
//     the Taos and Mach implementations.
//   - KernelEmul: a kernel trap per operation, with interrupts disabled in
//     the kernel (§2.3). Pessimistic and expensive.
//   - Interlocked: hardware memory-interlocked instructions (§2.1); only
//     available on processor profiles that have them.
//   - Software reservation (Lamport's algorithm) lives in internal/lamport
//     and plugs into the same Locker interface.
//
// The package also defines Locker, the lock-level abstraction used by the
// thread package, and TASLock, the Test-And-Set spinlock that turns any
// Mechanism into a Locker.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/uniproc"
)

// Word re-exports the simulated memory word for convenience.
type Word = uniproc.Word

// Mechanism implements primitive atomic operations on a uniprocessor.
type Mechanism interface {
	// Name identifies the mechanism in benchmark output.
	Name() string
	// TestAndSet atomically reads *w and sets it to 1, returning the old
	// value.
	TestAndSet(e *uniproc.Env, w *Word) Word
	// Clear atomically resets *w to 0. On a uniprocessor a single aligned
	// word store is atomic, so most mechanisms implement this as a plain
	// store (§2.4).
	Clear(e *uniproc.Env, w *Word)
	// FetchAndAdd atomically adds delta to *w and returns the old value
	// (the §2 remark that "other primitives ... could be similarly
	// constructed").
	FetchAndAdd(e *uniproc.Env, w *Word, delta Word) Word
}

// RAS implements atomic operations with restartable atomic sequences.
type RAS struct {
	// Inline selects the Taos-style inlined sequence; when false the
	// sequence is out-of-line as in Mach's explicit registration and each
	// operation pays call linkage (§3.1, Table 1).
	Inline bool
}

// NewRAS returns the inlined (designated-sequence) variant.
func NewRAS() *RAS { return &RAS{Inline: true} }

// NewRASRegistered returns the out-of-line (registered) variant.
func NewRASRegistered() *RAS { return &RAS{Inline: false} }

// Name implements Mechanism.
func (r *RAS) Name() string {
	if r.Inline {
		return "ras-inline"
	}
	return "ras-branch"
}

// TestAndSet implements Mechanism: the paper's Figure 3/4 sequence — one
// load, one ALU op, one committing store.
func (r *RAS) TestAndSet(e *uniproc.Env, w *Word) Word {
	if !r.Inline {
		e.ChargeCall()
	}
	var old Word
	e.Restartable(func() {
		old = e.Load(w) // lw   v0, (a0)
		e.ChargeALU(1)  // li   t0, 1
		e.Commit(w, 1)  // sw   t0, (a0)
	})
	return old
}

// Clear implements Mechanism: a single word store is atomic.
func (r *RAS) Clear(e *uniproc.Env, w *Word) {
	e.Store(w, 0)
}

// FetchAndAdd implements Mechanism with a restartable sequence.
func (r *RAS) FetchAndAdd(e *uniproc.Env, w *Word, delta Word) Word {
	if !r.Inline {
		e.ChargeCall()
	}
	var old Word
	e.Restartable(func() {
		old = e.Load(w)
		e.ChargeALU(1)
		e.Commit(w, old+delta)
	})
	return old
}

// KernelEmul implements atomic operations by trapping into the kernel,
// which performs the read-modify-write with interrupts disabled (§2.3).
type KernelEmul struct {
	profile *arch.Profile
}

// NewKernelEmul returns a kernel-emulation mechanism costed for profile.
func NewKernelEmul(p *arch.Profile) *KernelEmul {
	if p == nil {
		p = arch.R3000()
	}
	return &KernelEmul{profile: p}
}

// Name implements Mechanism.
func (k *KernelEmul) Name() string { return "emulation" }

// TestAndSet implements Mechanism via a kernel trap.
func (k *KernelEmul) TestAndSet(e *uniproc.Env, w *Word) Word {
	var old Word
	e.Trap(k.profile.EmulTASCycles, func() {
		old = *w
		*w = 1
		e.CountEmulTrap()
	})
	return old
}

// Clear implements Mechanism: the release store needs no trap (§5.1's
// measured test clears with a plain store).
func (k *KernelEmul) Clear(e *uniproc.Env, w *Word) {
	e.Store(w, 0)
}

// FetchAndAdd implements Mechanism via a kernel trap.
func (k *KernelEmul) FetchAndAdd(e *uniproc.Env, w *Word, delta Word) Word {
	var old Word
	e.Trap(k.profile.EmulTASCycles, func() {
		old = *w
		*w = old + delta
		e.CountEmulTrap()
	})
	return old
}

// Interlocked implements atomic operations with hardware memory-interlocked
// instructions (§2.1). Constructing it for a profile without hardware
// support fails.
type Interlocked struct {
	profile *arch.Profile
}

// NewInterlocked returns the hardware mechanism, or an error if the
// processor has no interlocked instructions (e.g. the R3000).
func NewInterlocked(p *arch.Profile) (*Interlocked, error) {
	if p == nil || !p.HasInterlocked {
		name := "nil profile"
		if p != nil {
			name = p.Name
		}
		return nil, fmt.Errorf("core: %s has no memory-interlocked instructions", name)
	}
	return &Interlocked{profile: p}, nil
}

// Name implements Mechanism.
func (i *Interlocked) Name() string { return "interlocked" }

// TestAndSet implements Mechanism with one interlocked instruction.
func (i *Interlocked) TestAndSet(e *uniproc.Env, w *Word) Word {
	var old Word
	e.Interlocked(func() {
		old = *w
		*w = 1
	})
	return old
}

// Clear implements Mechanism.
func (i *Interlocked) Clear(e *uniproc.Env, w *Word) {
	e.Store(w, 0)
}

// FetchAndAdd implements Mechanism.
func (i *Interlocked) FetchAndAdd(e *uniproc.Env, w *Word, delta Word) Word {
	var old Word
	e.Interlocked(func() {
		old = *w
		*w = old + delta
	})
	return old
}

// Unsound is the no-recovery baseline: the same load/store sequence as RAS
// with no rollback. It exists to demonstrate (in tests and examples) that
// the optimistic sequence really does need kernel support — under an
// adversarial preemption pattern it loses updates.
type Unsound struct{}

// Name implements Mechanism.
func (Unsound) Name() string { return "unsound" }

// TestAndSet implements Mechanism — incorrectly, by design.
func (Unsound) TestAndSet(e *uniproc.Env, w *Word) Word {
	old := e.Load(w)
	e.ChargeALU(1)
	e.Store(w, 1)
	return old
}

// Clear implements Mechanism.
func (Unsound) Clear(e *uniproc.Env, w *Word) { e.Store(w, 0) }

// FetchAndAdd implements Mechanism — incorrectly, by design.
func (Unsound) FetchAndAdd(e *uniproc.Env, w *Word, delta Word) Word {
	old := e.Load(w)
	e.ChargeALU(1)
	e.Store(w, old+delta)
	return old
}

// Locker is the lock-level abstraction the thread package builds on: any
// mutual exclusion protocol providing acquire/release.
type Locker interface {
	Name() string
	Acquire(e *uniproc.Env)
	Release(e *uniproc.Env)
}

// TASLock is a Test-And-Set spinlock over any Mechanism. On a uniprocessor
// spinning is useless while the holder is suspended, so contention yields
// the processor. Lock-found-held events are recorded with
// Processor.CountHoldup to reproduce the paper's §5.3 analysis.
type TASLock struct {
	mech Mechanism
	word Word
}

// NewTASLock creates an unlocked TASLock.
func NewTASLock(m Mechanism) *TASLock { return &TASLock{mech: m} }

// Name implements Locker.
func (l *TASLock) Name() string { return "tas(" + l.mech.Name() + ")" }

// Acquire implements Locker.
func (l *TASLock) Acquire(e *uniproc.Env) {
	for l.mech.TestAndSet(e, &l.word) != 0 {
		e.Processor().CountHoldup()
		e.Yield()
	}
}

// Release implements Locker.
func (l *TASLock) Release(e *uniproc.Env) {
	l.mech.Clear(e, &l.word)
}
