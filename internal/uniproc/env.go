package uniproc

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Env is a green thread's handle to the virtual uniprocessor: all charged
// operations — memory access, traps, yields, blocking — go through it. An
// Env is only valid on its own thread while that thread holds the baton,
// which is automatic for code called from the thread's function.
type Env struct {
	p *Processor
	t *Thread

	masked  int  // >0: interrupts disabled (inside a trap)
	pending bool // a preemption arrived while masked

	inRAS        bool
	rasPreempted bool
}

// Self returns the calling thread.
func (e *Env) Self() *Thread { return e.t }

// Processor returns the underlying processor (for statistics and forking).
func (e *Env) Processor() *Processor { return e.p }

// Now returns the current virtual time in cycles.
func (e *Env) Now() uint64 { return e.p.clock }

// charge advances the virtual clock and takes a pending timer interrupt at
// this instruction boundary.
func (e *Env) charge(cycles int) {
	e.p.clock += uint64(cycles)
	e.maybePreempt()
}

func (e *Env) maybePreempt() {
	if e.p.clock < e.p.sliceEnd {
		return
	}
	if e.masked > 0 {
		e.pending = true
		return
	}
	e.preempt()
}

// preempt suspends the thread involuntarily: the suspension path cost and
// the configured PC-check cost are charged, the thread goes to the back of
// the ready queue, and — if it was inside a restartable sequence — the
// sequence is rolled back on resumption.
func (e *Env) preempt() {
	p, t := e.p, e.t
	t.Suspensions++
	p.Stats.Suspensions++
	p.trace(obs.KindPreempt, t, 0)
	p.clock += uint64(p.profile.SuspendCycles + p.profile.PCCheckRegistrationCycles)
	p.readyq = append(p.readyq, t)
	p.park(t)
	if e.inRAS {
		// Suspended within the atomic sequence: re-run it from the top.
		e.rasPreempted = true
		t.Restarts++
		p.Stats.Restarts++
		p.trace(obs.KindRestart, t, 0)
		panic(restartSignal{})
	}
}

// ChargeALU charges n ALU instructions of work (register arithmetic,
// comparisons) without touching memory.
func (e *Env) ChargeALU(n int) { e.charge(n * e.p.profile.Cycles(isa.ClassALU)) }

// ChargeCall charges one call/return linkage (the overhead the paper's
// Table 1 attributes to the out-of-line registered sequence).
func (e *Env) ChargeCall() { e.charge(2 * e.p.profile.Cycles(isa.ClassJump)) }

// chaosMemOp consults the fault injector at a Load/Store boundary — the
// runtime layer's preemption points — and applies forced preemptions,
// spurious suspensions, thread kills, and machine crashes. Suspensions
// inside a restartable sequence trigger the normal rollback path; kills
// and crashes unwind the thread (or the whole run) where it stands. All faults are suppressed while
// interrupts are masked: a trap handler can neither be preempted nor die
// halfway through kernel state.
func (e *Env) chaosMemOp() {
	p := e.p
	p.memOps++ // counted even without an injector: a fault-free reference
	// run reports the same ordinal stream a kill schedule will see.
	act, ok := p.faultAt.At(chaos.PointMemOp, p.memOps)
	if !ok || !act.Preempt && !act.SpuriousSuspend && !act.Kill && act.Crash == chaos.CrashNone {
		return
	}
	if e.masked > 0 {
		if act.Preempt || act.SpuriousSuspend {
			e.pending = true
		}
		return
	}
	p.Stats.Injected++
	p.trace(obs.KindInject, e.t, act.Bits())
	if act.Crash != chaos.CrashNone {
		e.crash(act, "memop", p.memOps)
	}
	if act.Kill {
		e.killSelf()
	}
	if act.SpuriousSuspend && !act.Preempt {
		p.Stats.Spurious++
	}
	e.preempt()
}

// killSelf terminates the calling thread in place: the death of a kernel
// thread, injected at a memory-operation boundary. The killing store (if
// any) has already taken effect — death strikes *between* instructions,
// never mid-store. The stack unwinds via killSignal; threadBody reaps the
// thread and runs the death callbacks.
func (e *Env) killSelf() {
	p, t := e.p, e.t
	t.killed = true
	p.Stats.Kills++
	p.trace(obs.KindKill, t, 0)
	p.clock += uint64(p.profile.SuspendCycles)
	panic(killSignal{})
}

// Load reads a shared word, charging one load.
func (e *Env) Load(w *Word) Word {
	v := *w
	e.charge(e.p.profile.Cycles(isa.ClassLoad))
	e.chaosMemOp()
	return v
}

// Store writes a shared word, charging one store. Inside a restartable
// sequence, use Commit for the final (committing) store instead: a
// sequence must end with its store so that rollback never repeats one.
func (e *Env) Store(w *Word, v Word) {
	e.p.shadowWord(w)
	*w = v
	e.charge(e.p.profile.Cycles(isa.ClassStore))
	e.chaosMemOp()
}

// Restartable runs seq as a restartable atomic sequence: if the thread is
// preempted while inside, seq is aborted and re-run from the start when
// the thread is next scheduled — the uniproc analogue of the kernel
// rolling the PC back. Sequences must not nest, must not block or yield,
// and must perform their externally visible write via Commit as the last
// operation.
func (e *Env) Restartable(seq func()) {
	if e.inRAS {
		panic("uniproc: nested Restartable sequences")
	}
	w := e.p.watchdog
	var restarts uint64
	extended := false
	for {
		restarted := e.runSeq(seq)
		if !restarted {
			return
		}
		if w.Policy == chaos.WatchdogOff {
			continue
		}
		// Every restart of this invocation is a no-progress retry: the
		// sequence has never completed. Crossing the threshold means the
		// quantum can no longer fit the sequence (§3.1).
		restarts++
		if restarts < w.Limit() {
			continue
		}
		p := e.p
		p.trace(obs.KindWatchdog, e.t, uint64(restarts))
		if w.Policy == chaos.WatchdogExtend && !extended {
			// Grant one extended slice right now — the thread holds the
			// baton, so stretching sliceEnd is exactly an extended quantum.
			extended = true
			restarts = 0
			p.Stats.WatchdogExtends++
			p.sliceEnd = p.clock + p.quantum*chaos.ExtendFactor
			continue
		}
		p.Stats.WatchdogAborts++
		if p.runErr == nil {
			p.runErr = &LivelockError{Thread: e.t.ID, Name: e.t.Name, Restarts: restarts}
		}
		panic(abortSignal{})
	}
}

// TryRestartable runs seq as a restartable atomic sequence but gives up
// after maxRestarts rollbacks, returning false (true on completion).
// Abandoning is safe because a sequence performs its externally visible
// write via Commit as its last operation: an attempt that never committed
// has no visible effect. This is the bounded primitive core.Degrading uses
// to notice a pathological sequence and fall back to kernel emulation; the
// processor watchdog is deliberately not engaged here — the bound *is* the
// watchdog, and the caller handles the failure.
func (e *Env) TryRestartable(maxRestarts uint64, seq func()) bool {
	if e.inRAS {
		panic("uniproc: nested Restartable sequences")
	}
	var restarts uint64
	for {
		if !e.runSeq(seq) {
			return true
		}
		restarts++
		if restarts >= maxRestarts {
			return false
		}
	}
}

// runSeq executes one attempt of a restartable sequence, reporting whether
// it must be retried.
func (e *Env) runSeq(seq func()) (restart bool) {
	e.inRAS = true
	e.rasPreempted = false
	defer func() {
		e.inRAS = false
		if r := recover(); r != nil {
			if _, ok := r.(restartSignal); ok && e.rasPreempted {
				restart = true
				return
			}
			panic(r)
		}
	}()
	seq()
	return false
}

// Commit performs the final store of a restartable sequence and ends the
// sequence *before* the preemption point, so a timer interrupt arriving at
// this instruction boundary does not roll back a completed sequence. This
// mirrors the paper's Figure 4, where the registered range ends at the
// store instruction: code after the store is no longer restartable. A
// second Commit in the same sequence is a bug and panics.
func (e *Env) Commit(w *Word, v Word) {
	if !e.inRAS {
		panic("uniproc: Commit outside a Restartable sequence")
	}
	e.p.shadowWord(w)
	*w = v
	e.inRAS = false // the sequence has committed; no rollback past this point
	e.charge(e.p.profile.Cycles(isa.ClassStore))
	e.chaosMemOp()
}

// Flush initiates a write-back of w's volatile contents toward NVM — the
// runtime-layer clwb. It is asynchronous: the word is durable only after
// the next Fence. Flushing a clean word, or any word on a non-persistent
// processor, is a charged hint.
func (e *Env) Flush(w *Word) {
	p := e.p
	p.Stats.Flushes++
	if p.persist {
		if _, dirty := p.nvShadow[w]; dirty {
			if !p.nvPending[w] {
				p.nvOrder = append(p.nvOrder, w)
			}
			p.nvPending[w] = true
		}
	}
	e.charge(p.profile.Cycles(isa.ClassFlush))
	e.chaosPersistOp()
}

// Fence is the persist barrier: every write-back initiated by a Flush
// (and not cancelled by a later store to the same word) becomes durable,
// and the fence pays the profile's NVM drain cost per word persisted.
func (e *Env) Fence() {
	p := e.p
	p.Stats.Fences++
	n := 0
	if p.persist && len(p.nvPending) > 0 {
		for w := range p.nvPending {
			delete(p.nvShadow, w)
			n++
		}
		clear(p.nvPending)
		p.nvOrder = p.nvOrder[:0]
		p.Stats.Persists += uint64(n)
	}
	e.charge(p.profile.Cycles(isa.ClassFence) + n*p.profile.PersistDrainCycles)
	e.chaosPersistOp()
}

// chaosPersistOp consults the fault injector at a Flush/Fence boundary —
// the ordinal stream a persistence model checker enumerates. The op's
// effect has already landed (a crash "at persist op k" sees the k-th
// flush or fence retired, matching the ISA substrate's cursor), and only
// crash kinds are honoured: persist operations are not preemption points.
// Like every fault it is suppressed while interrupts are masked.
func (e *Env) chaosPersistOp() {
	p := e.p
	p.persistOps++
	act, ok := p.faultAt.At(chaos.PointPersist, p.persistOps)
	if !ok || act.Crash == chaos.CrashNone || e.masked > 0 {
		return
	}
	p.Stats.Injected++
	p.trace(obs.KindInject, e.t, act.Bits())
	e.crash(act, "persist op", p.persistOps)
}

// crash halts the machine for an injected crash at the n-th occurrence
// of a point: memory takes the crash (a kind the processor cannot honour
// is traced as degraded), and the run unwinds with ErrMachineCrash.
func (e *Env) crash(act chaos.Action, point string, n uint64) {
	p := e.p
	if !p.Crash(act.Crash, n) {
		p.trace(obs.KindCrashDegraded, e.t, act.Bits())
	}
	p.trace(obs.KindCrash, e.t, 0)
	if p.runErr == nil {
		p.runErr = fmt.Errorf("%w: at %s %d in %v", ErrMachineCrash, point, n, e.t)
	}
	panic(abortSignal{})
}

// Trap enters the kernel with interrupts disabled, runs f, charges the trap
// entry/exit paths plus extra cycles of kernel work, and delivers any timer
// interrupt that arrived during the trap on the way out — the behaviour §5.3
// blames for inflated critical sections under kernel emulation.
func (e *Env) Trap(extra int, f func()) {
	p := e.p
	p.Stats.Traps++
	p.trace(obs.KindTrap, e.t, 0)
	e.masked++
	p.clock += uint64(p.profile.TrapEnterCycles + extra)
	if f != nil {
		f()
	}
	p.clock += uint64(p.profile.TrapExitCycles)
	e.masked--
	if e.masked == 0 {
		if e.pending || p.clock >= p.sliceEnd {
			e.pending = false
			e.maybePreempt()
		}
	}
}

// CountEmulTrap records one kernel-emulated atomic operation (the paper's
// "Emulation Traps" column).
func (e *Env) CountEmulTrap() {
	e.p.Stats.EmulTraps++
	e.p.trace(obs.KindEmulTrap, e.t, 0)
}

// CountDemotion records that an adaptive mechanism permanently demoted a
// pathological restartable sequence to kernel emulation (core.Degrading).
func (e *Env) CountDemotion() {
	e.p.Stats.Demotions++
	e.p.trace(obs.KindDemote, e.t, 0)
}

// CountRepair records that an acquirer found its lock orphaned by a dead
// owner and repaired it (core.RecoverableMutex). dead is the dead owner's
// thread ID.
func (e *Env) CountRepair(dead int) {
	e.p.Stats.Repairs++
	e.p.trace(obs.KindRepair, e.t, uint64(dead))
}

// ThreadDead reports whether thread id will never run again. This is the
// uniproc analogue of the vmach kernel's thread-alive syscall: the oracle a
// recoverable mutex consults before repairing an orphaned lock. Unknown IDs
// are reported dead — a lock word naming no live thread is orphaned.
func (e *Env) ThreadDead(id int) bool {
	if id < 0 || id >= len(e.p.threads) {
		return true
	}
	t := e.p.threads[id]
	return t.done || t.killed
}

// Interlocked runs f as a single memory-interlocked instruction: charged at
// the profile's interlocked cost, immune to preemption (it is one
// instruction). Panics if the profile lacks hardware support — the guest
// must not execute an instruction its processor does not have.
func (e *Env) Interlocked(f func()) {
	p := e.p
	if !p.profile.HasInterlocked {
		panic(fmt.Sprintf("uniproc: interlocked instruction on %s", p.profile.Name))
	}
	f()
	e.charge(p.profile.Cycles(isa.ClassInterlocked))
}

// Yield voluntarily relinquishes the processor: the thread goes to the back
// of the ready queue. Yield must not be called inside a Restartable
// sequence (the paper's sequences never block).
func (e *Env) Yield() {
	if e.inRAS {
		panic("uniproc: Yield inside a Restartable sequence")
	}
	p, t := e.p, e.t
	p.Stats.Yields++
	p.trace(obs.KindYield, t, 0)
	p.clock += uint64(p.profile.TrapEnterCycles + p.profile.TrapExitCycles)
	p.readyq = append(p.readyq, t)
	p.park(t)
}

// Block suspends the thread without requeueing it; it runs again only after
// another thread calls Unblock. Used by relinquishing mutexes and condition
// variables. If an Unblock for this thread already arrived (the waker ran
// between the caller publishing its intent to sleep and this call), Block
// consumes the pending wakeup and returns immediately — the standard
// lost-wakeup guard.
func (e *Env) Block() {
	if e.inRAS {
		panic("uniproc: Block inside a Restartable sequence")
	}
	p, t := e.p, e.t
	p.Stats.Blocks++
	p.trace(obs.KindBlock, t, 0)
	p.clock += uint64(p.profile.TrapEnterCycles + p.profile.TrapExitCycles)
	if t.wakePending {
		t.wakePending = false
		return
	}
	t.blocked = true
	p.park(t)
}

// Unblock makes a blocked thread ready again. If t has not blocked yet, the
// wakeup is remembered and t's next Block returns immediately. Unblocking a
// finished thread is a bug in the caller.
func (e *Env) Unblock(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("uniproc: Unblock of finished %v", t))
	}
	e.ChargeALU(4) // wakeup bookkeeping
	e.p.trace(obs.KindUnblock, e.t, uint64(t.ID))
	if !t.blocked {
		t.wakePending = true
		return
	}
	t.blocked = false
	e.p.readyq = append(e.p.readyq, t)
}

// Fork creates and readies a new thread.
func (e *Env) Fork(name string, fn func(*Env)) *Thread {
	e.ChargeALU(20) // thread-creation bookkeeping
	return e.p.Go(name, fn)
}
