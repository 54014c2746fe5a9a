// Package guest contains the guest assembly programs run on the simulated
// uniprocessor: the paper's code figures (Lamport's fast mutual exclusion,
// the Mach registered Test-And-Set, the Taos designated sequence) and the
// parameterized workloads behind Tables 1 and 4.
//
// Programs are generated as assembly source and assembled with
// internal/asm. Guest code follows these conventions:
//
//   - syscall number in v0, arguments in a0-a2, result in v0;
//   - k0/k1 are reserved for the user-level resume trampoline and never
//     used by ordinary code;
//   - worker thread stacks are one page each, starting at StackBase, so a
//     thread can recover its own ID from its stack pointer (this is how
//     cthread_self worked, and what makes Lamport protocol (a) pay for ID
//     computation on both entry and exit, §5.1).
package guest

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
)

// Stack layout.
const (
	StackBase = 0x0009_0000
	StackSize = 0x1000
)

// StackTop returns the initial stack pointer for thread tid.
func StackTop(tid int) uint32 {
	return StackBase + uint32(tid)*StackSize + 0xFF0
}

// Mechanism selects how guest code implements atomic Test-And-Set.
type Mechanism int

const (
	// MechNone is the registered-TAS code without any kernel recovery:
	// the unsound baseline that demonstrates why atomicity matters.
	MechNone Mechanism = iota
	// MechRegistered is Mach-style explicit registration (§3.1): an
	// out-of-line Test-And-Set function registered with the kernel.
	MechRegistered
	// MechDesignated is Taos-style (§3.2): the sequence is inlined at the
	// acquire site and recognized by instruction-stream inspection.
	MechDesignated
	// MechEmul is kernel emulation (§2.3): a syscall per Test-And-Set.
	MechEmul
	// MechInterlocked uses the hardware tas instruction (§2.1).
	MechInterlocked
	// MechLockB uses the i860-style hardware lock bit (§7).
	MechLockB
	// MechUserLevel is §4.1's user-level detection: same code as
	// MechRegistered plus a resume trampoline registered with the kernel.
	MechUserLevel
	// MechLamportA is software reservation with Lamport's algorithm,
	// protocol (a): the lock itself is a Lamport lock (Figure 1).
	MechLamportA
	// MechLamportB is protocol (b): Lamport's algorithm guards a bundled
	// meta Test-And-Set (Figure 2).
	MechLamportB
	// MechTaosMutex is the complete Taos mutex of §3.2/Figure 5: a
	// designated acquire sequence whose uncommon case traps to the kernel
	// (SlowAcquire, blocking the thread), and a designated Test-And-Clear
	// release whose uncommon case (waiters present) traps to hand the
	// mutex over.
	MechTaosMutex
)

func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "none"
	case MechRegistered:
		return "registered"
	case MechDesignated:
		return "designated"
	case MechEmul:
		return "emulation"
	case MechInterlocked:
		return "interlocked"
	case MechLockB:
		return "lockbit"
	case MechUserLevel:
		return "userlevel"
	case MechLamportA:
		return "lamport-a"
	case MechLamportB:
		return "lamport-b"
	case MechTaosMutex:
		return "taos-mutex"
	}
	return "unknown"
}

// prologue emits per-mechanism setup executed once by the main thread:
// RAS registration or trampoline registration.
func prologue(m Mechanism) string {
	switch m {
	case MechRegistered:
		return `
	# Register the restartable atomic sequence with the kernel (§3.1).
	li   v0, 3              # SysRasRegister
	la   a0, ras_begin
	li   a1, 12             # lw + ori + sw
	syscall
`
	case MechUserLevel:
		return `
	# Register the user-level resume trampoline (§4.1).
	li   v0, 7              # SysSetHandler
	la   a0, trampoline
	syscall
`
	}
	return ""
}

// tasFunction emits the out-of-line Test-And-Set used by function-call
// mechanisms: a0 = lock address, returns old value in v0. The paper's
// Figure 4, without branch delay slots: the sequence *ends* with its store,
// and the return jump sits outside the restartable range.
func tasFunction(m Mechanism) string {
	switch m {
	case MechNone, MechRegistered, MechUserLevel:
		return `
TestAndSet:
ras_begin:
	lw   v0, 0(a0)          # v0 = contents of the lock word
	ori  t0, zero, 1        # temporary t0 gets 1
	sw   t0, 0(a0)          # store 1 in the Test-And-Set location
ras_end:
	jr   ra                 # return to caller, result in v0
`
	case MechEmul:
		return `
TestAndSet:
	li   v0, 4              # SysTas: kernel-emulated Test-And-Set
	syscall
	jr   ra
`
	case MechInterlocked:
		return `
TestAndSet:
	tas  v0, 0(a0)          # memory-interlocked read-modify-write
	jr   ra
`
	case MechLockB:
		return `
TestAndSet:
	lockb                   # begin hardware restartable sequence (i860)
	lw   v0, 0(a0)
	ori  t0, zero, 1
	sw   t0, 0(a0)          # the store clears the lock bit
	jr   ra
`
	}
	return ""
}

// trampoline emits the §4.1 user-level recovery code. The kernel pushes the
// interrupted PC and vectors here on every resume; the trampoline decides
// whether the PC lies inside [ras_begin, ras_end) and branches accordingly.
// Only k0/k1 are used, so no user state is disturbed.
const trampoline = `
trampoline:
	lw   k0, 0(sp)          # interrupted PC
	addi sp, sp, 4
	la   k1, ras_begin
	sltu k1, k1, k0         # k1 = (ras_begin < pc)
	beq  k1, zero, tramp_out
	la   k1, ras_end
	sltu k1, k0, k1         # k1 = (pc < ras_end)
	beq  k1, zero, tramp_out
	j    ras_begin          # inside: restart the sequence
tramp_out:
	jr   k0                 # outside: resume where interrupted
`

// acquireViaCall emits a spin-acquire loop that calls TestAndSet and yields
// while the lock is held. Expects the lock address in s1.
const acquireViaCall = `
acq:
	move a0, s1
	jal  TestAndSet
	beq  v0, zero, got      # old value 0: lock acquired
	li   v0, 1              # SysYield: relinquish while held
	syscall
	b    acq
got:
`

// acquireTaosMutex emits Figure 5 verbatim: the designated sequence
// test-and-sets the whole word from 0 (unlocked) to 0x80000000
// (locked-but-no-waiters); the infrequent case calls the kernel's
// SlowAcquire, which blocks until the mutex is handed over. Expects the
// mutex address in s1.
const acquireTaosMutex = `
acq:
	lw   v0, 0(s1)          # get value of mutex
	lui  t0, 0x8000         # temporary t0 = 0x80000000
	bne  v0, zero, slowacq  # branch if not common case
	landmark                # special landmark value
	sw   t0, 0(s1)          # store locked value
	b    cs
slowacq:
	move a0, s1
	li   v0, 8              # SysMutexSlow: out-of-line kernel call
	syscall                 # returns owning the mutex
cs:
`

// releaseTaosMutex emits the matching designated Test-And-Clear: the
// common case sees locked-but-no-waiters and clears the word; if waiters
// arrived — even between this sequence's load and its store, thanks to the
// rollback — the kernel hands the mutex to the first of them.
const releaseTaosMutex = `
rel:
	lw   v0, 0(s1)          # current mutex word
	lui  t0, 0x8000         # expected: locked, no waiters
	bne  v0, t0, slowrel    # waiters present: kernel handoff
	landmark
	sw   zero, 0(s1)        # store unlocked value
	b    reldone
slowrel:
	move a0, s1
	li   v0, 9              # SysMutexWake
	syscall
reldone:
`

// acquireDesignated emits the inlined Taos sequence (the paper's Figure 5
// shape): lw / ori / bne-to-slow / landmark / sw. Expects the lock address
// in s1.
const acquireDesignated = `
acq:
	lw   v0, 0(s1)          # get value of the lock
	ori  t0, zero, 1        # locked value
	bne  v0, zero, slow     # branch if not the common case
	landmark                # recognized by the kernel's two-stage check
	sw   t0, 0(s1)          # store locked value: sequence commits here
	b    got
slow:
	li   v0, 1              # SysYield, then retry
	syscall
	b    acq
got:
`

// release emits the Test-And-Clear: a single word store is atomic on the
// uniprocessor (§2.4). Expects the lock address in s1.
const release = `
	sw   zero, 0(s1)        # release: clear the Test-And-Set location
`

// computeSelf recovers the caller's 1-based thread ID from its stack
// pointer, modelling cthread_self. Returns the ID in s7; clobbers t8.
const computeSelf = `
compute_self:
	li   t8, 0x90000        # StackBase
	sub  t8, sp, t8
	srl  t8, t8, 12         # page index == thread id - 1
	addi s7, t8, 1
	jr   ra
`

// lamportData emits the shared reservation structures for up to n threads.
func lamportData(n int) string {
	return fmt.Sprintf(`
lam_x:   .word 0
lam_y:   .word 0
lam_b:   .space %d
`, 4*(n+2))
}

// lamportEnter emits Lamport's fast mutual exclusion entry (the paper's
// Figure 1, lines 1-18). Expects: s7 = thread id (1-based), s3 = &lam_y,
// s4 = &lam_b, s5 = &lam_x; nthreads is the loop bound N. Clobbers t0-t4.
// Awaits yield the processor, as §2.2 prescribes for a uniprocessor.
func lamportEnter(nthreads int) string {
	return fmt.Sprintf(`
lam_start:
	sll  t0, s7, 2
	add  t0, t0, s4         # t0 = &b[i]
	ori  t1, zero, 1
	sw   t1, 0(t0)          # b[i] := true
	sw   s7, 0(s5)          # x := i
	lw   t2, 0(s3)          # if y <> 0 then ...
	beq  t2, zero, lam_ok1
	sw   zero, 0(t0)        # b[i] := false        { contention }
lam_await1:
	lw   t2, 0(s3)
	beq  t2, zero, lam_start
	li   v0, 1
	syscall                 # await (y = 0)
	b    lam_await1
lam_ok1:
	sw   s7, 0(s3)          # y := i
	lw   t2, 0(s5)          # if x <> i then ...
	beq  t2, s7, lam_cs
	sw   zero, 0(t0)        # b[i] := false        { collision }
	li   t3, 1
lam_forj:
	li   t4, %d
	slt  t4, t4, t3
	bne  t4, zero, lam_checky
	sll  t2, t3, 2
	add  t2, t2, s4         # &b[j]
lam_waitbj:
	lw   t4, 0(t2)
	beq  t4, zero, lam_nextj
	li   v0, 1
	syscall                 # await (b[j] = false)
	b    lam_waitbj
lam_nextj:
	addi t3, t3, 1
	b    lam_forj
lam_checky:
	lw   t2, 0(s3)
	beq  t2, s7, lam_cs     # y = i: enter the critical section
lam_awaity:
	lw   t2, 0(s3)
	beq  t2, zero, lam_start
	li   v0, 1
	syscall                 # await (y = 0)
	b    lam_awaity
lam_cs:
`, nthreads)
}

// lamportExit emits Figure 1 lines 21-22: y := 0; b[i] := false.
// Expects s7, s3, s4 as for lamportEnter; clobbers t0.
const lamportExit = `
	sw   zero, 0(s3)        # y := 0
	sll  t0, s7, 2
	add  t0, t0, s4
	sw   zero, 0(t0)        # b[i] := false
`

// loadLamportBases emits address materialization for the Lamport shared
// structures into s3/s4/s5.
const loadLamportBases = `
	la   s3, lam_y
	la   s4, lam_b
	la   s5, lam_x
`

// MutexCounterProgram builds a program in which `workers` threads each
// perform `iters` iterations of { acquire; counter++; release } on a single
// shared lock implemented with mechanism m. The main thread performs any
// registration, spawns the workers and exits. The final counter value is at
// symbol "counter"; correctness demands it equal workers*iters.
func MutexCounterProgram(m Mechanism, workers, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text\nmain:\n%s", prologue(m))
	// Spawn workers. Thread IDs are 1-based (main is 0); worker stacks are
	// chosen so compute_self recovers the ID.
	fmt.Fprintf(&b, `
	li   s0, %d             # number of workers
	li   s1, 1              # next thread id
spawnloop:
	slt  t0, s0, s1
	bne  t0, zero, spawned
	la   a0, worker
	li   a1, %d             # iterations
	sll  a2, s1, 12
	li   t0, %#x
	add  a2, a2, t0         # stack top for this worker
	li   v0, 5              # SysThreadCreate
	syscall
	addi s1, s1, 1
	b    spawnloop
spawned:
	li   v0, 0              # SysExit
	move a0, zero
	syscall
`, workers, iters, StackBase+0xFF0)

	// Worker body.
	b.WriteString("\nworker:\n\tmove s0, a0\n\tla   s1, lock\n\tla   s2, counter\n")
	switch m {
	case MechLamportA, MechLamportB:
		b.WriteString(loadLamportBases)
		b.WriteString("\tjal  compute_self\n")
	}
	b.WriteString("wloop:\n")

	switch m {
	case MechDesignated:
		b.WriteString(acquireDesignated)
	case MechTaosMutex:
		b.WriteString(acquireTaosMutex)
	case MechLamportA:
		// Protocol (a): the Lamport lock *is* the mutex; the paper's direct
		// implementation recomputes the thread's identity and busy-bit
		// address on entry and exit.
		b.WriteString("\tjal  compute_self\n")
		b.WriteString(lamportEnter(workers + 1))
	case MechLamportB:
		// Protocol (b): Lamport guards a bundled meta Test-And-Set
		// (Figure 2); spin with yields until the inner TAS succeeds.
		b.WriteString("lbacq:\n")
		b.WriteString(lamportEnter(workers + 1))
		b.WriteString(`	lw   t5, 0(s1)          # inner test-and-set body
	ori  t6, zero, 1
	sw   t6, 0(s1)
`)
		b.WriteString(lamportExit)
		b.WriteString(`	beq  t5, zero, wgot     # old value 0: mutex acquired
	li   v0, 1
	syscall
	b    lbacq
wgot:
`)
	default:
		b.WriteString(acquireViaCall)
	}

	// Critical section: increment the shared counter.
	b.WriteString(`
	lw   t1, 0(s2)
	addi t1, t1, 1
	sw   t1, 0(s2)
`)

	// Release.
	switch m {
	case MechLamportA:
		b.WriteString("\tjal  compute_self\n")
		b.WriteString(lamportExit)
	case MechTaosMutex:
		b.WriteString(releaseTaosMutex)
	default:
		b.WriteString(release)
	}

	b.WriteString(`
	addi s0, s0, -1
	bne  s0, zero, wloop
	li   v0, 0              # SysExit
	move a0, zero
	syscall
`)

	// Support code.
	b.WriteString(tasFunction(m))
	switch m {
	case MechUserLevel:
		b.WriteString(trampoline)
	case MechLamportA, MechLamportB:
		b.WriteString(computeSelf)
	}

	// Data.
	b.WriteString("\n\t.data\nlock:    .word 0\ncounter: .word 0\n")
	if m == MechLamportA || m == MechLamportB {
		b.WriteString(lamportData(workers + 1))
	}
	return b.String()
}

// RecoverableCounterProgram builds the recoverable-mutual-exclusion
// workload: `workers` threads each perform `iters` iterations of
// { acquire; counter++; release } on a lock word that names its owner —
// layout epoch<<16 | (tid+1), 0 meaning free. Acquire CASes the owner
// field in via a restartable sequence; a held lock is polled with
// SysThreadAlive, and a lock naming a dead thread is orphaned and stolen
// with the epoch bumped (counted at symbol "repairs"). Release clears the
// owner field, preserving the epoch. Under thread-kill injection the final
// counter is not workers*iters — dead threads stop incrementing — but
// every increment must still happen under mutual exclusion, which the
// harness checks with watchpoints.
//
// The CAS sequence is written in the canonical designated shape
// (lw/ori/bne/landmark/sw) *and* registered via SysRasRegister, so the
// same program is recoverable under both the Registration and Designated
// strategies (the registration syscall fails harmlessly on the latter).
func RecoverableCounterProgram(workers, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `	.text
main:
	li   v0, 3              # SysRasRegister (fails harmlessly if unsupported)
	la   a0, cas_seq
	li   a1, 20             # lw + ori + bne + landmark + sw
	syscall
	li   s0, %d             # number of workers
	li   s1, 1              # next thread id
spawnloop:
	slt  t0, s0, s1
	bne  t0, zero, spawned
	la   a0, worker
	move a1, s1             # the worker's kernel thread id, as its argument
	sll  a2, s1, 12
	li   t0, %#x
	add  a2, a2, t0         # stack top for this worker
	li   v0, 5              # SysThreadCreate
	syscall
	addi s1, s1, 1
	b    spawnloop
spawned:
	li   v0, 0              # SysExit
	move a0, zero
	syscall

worker:                         # a0 = own kernel thread id
	addi s6, a0, 1          # owner field: tid+1, so free (0) is unambiguous
	la   s1, lock
	la   s2, counter
	li   s0, %d             # iterations
wloop:
%scs:
	lw   t1, 0(s2)          # critical section: counter++
	addi t1, t1, 1
	sw   t1, 0(s2)
%s	addi s0, s0, -1
	bne  s0, zero, wloop
	li   v0, 0              # SysExit
	move a0, zero
	syscall

%s
	.data
lock:    .word 0
counter: .word 0
repairs: .word 0
`, workers, StackBase+0xFF0, iters,
		recoverableAcquire("s3", "cs", false), recoverableRelease, recoverableCAS)
	return b.String()
}

// recoverableAcquire emits the acquire loop the recoverable guests share.
// A free lock word is taken by CAS with its epoch kept; a held word's
// owner is asked after with SysThreadAlive, and a dead owner's lock is
// stolen by CAS with the epoch bumped and the steal counted at symbol
// "repairs" — flushed too when durable. The loop expects the lock at s1
// and the owner field (tid+1) in s6, loads the word into register w,
// clobbers t1-t4, a0, a1 and v0, and branches to label held once the
// lock is taken.
func recoverableAcquire(w, held string, durable bool) string {
	flush := ""
	if durable {
		flush = "\tflush 0(t3)\n"
	}
	return fmt.Sprintf(`acq:
	lw   %[1]s, 0(s1)          # current lock word
	andi t1, %[1]s, 0xFFFF     # owner field
	beq  t1, zero, acq_free
	addi a0, t1, -1         # held: ask the kernel if the owner can still run
	li   v0, 10             # SysThreadAlive
	syscall
	bne  v0, zero, acq_wait
	srl  t2, %[1]s, 16         # orphaned: steal with the epoch bumped
	addi t2, t2, 1
	sll  t2, t2, 16
	or   t2, t2, s6
	move a0, %[1]s             # CAS(lock: expect the word -> t2)
	move a1, t2
	jal  cas
	beq  v0, zero, acq      # lost the race to another repairer: re-read
	la   t3, repairs
	lw   t4, 0(t3)
	addi t4, t4, 1
	sw   t4, 0(t3)
%[3]s	b    %[2]s
acq_free:
	srl  t2, %[1]s, 16
	sll  t2, t2, 16
	or   t2, t2, s6         # free: take it, epoch unchanged
	move a0, %[1]s
	move a1, t2
	jal  cas
	beq  v0, zero, acq
	b    %[2]s
acq_wait:
	li   v0, 1              # SysYield while the live owner works
	syscall
	b    acq
`, w, held, flush)
}

// recoverableRelease clears the owner field of the lock word at s1 and
// keeps the epoch; it clobbers t1. Only the owner writes a held word, so
// the non-atomic read-modify-write is safe; dying inside it leaves an
// orphan for the next steal.
const recoverableRelease = `	lw   t1, 0(s1)          # release: clear owner, preserve epoch
	srl  t1, t1, 16
	sll  t1, t1, 16
	sw   t1, 0(s1)
`

// recoverableCAS is the recoverable guests' compare-and-swap on the word
// at s1, written in the canonical designated shape and registered by
// main, so it is restartable under both strategies.
const recoverableCAS = `cas:                            # CAS word at s1: a0 = expect, a1 = new;
cas_seq:                        # v0 = 1 if swapped
	lw   v0, 0(s1)
	ori  t9, zero, 1
	bne  v0, a0, cas_fail
	landmark
	sw   a1, 0(s1)          # commit
	move v0, t9
	jr   ra
cas_fail:
	li   v0, 0
	jr   ra
`

// MicrobenchProgram builds the paper's Table 1 microbenchmark: one thread
// enters a critical section with a Test-And-Set lock, increments a counter,
// and leaves by clearing the lock, `iters` times. The Test-And-Set always
// succeeds. inline selects the inlined (designated) or branch (registered)
// variant for RAS.
func MicrobenchProgram(m Mechanism, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text\nmain:\n%s", prologue(m))
	b.WriteString("\tla   s1, lock\n\tla   s2, counter\n")
	if m == MechLamportA || m == MechLamportB {
		b.WriteString(loadLamportBases)
		b.WriteString("\tjal  compute_self\n")
	}
	fmt.Fprintf(&b, "\tli   s0, %d\nloop:\n", iters)

	switch m {
	case MechDesignated:
		b.WriteString(acquireDesignated)
	case MechTaosMutex:
		b.WriteString(acquireTaosMutex)
	case MechLamportA:
		b.WriteString("\tjal  compute_self\n")
		b.WriteString(lamportEnter(2))
	case MechLamportB:
		b.WriteString(lamportEnter(2))
		b.WriteString(`	lw   t5, 0(s1)
	ori  t6, zero, 1
	sw   t6, 0(s1)
`)
		b.WriteString(lamportExit)
	default:
		b.WriteString(acquireViaCall)
	}

	// The critical section: update a counter, "so as to model a real
	// critical section" (§5.1).
	b.WriteString(`
	lw   t1, 0(s2)
	addi t1, t1, 1
	sw   t1, 0(s2)
`)
	switch m {
	case MechLamportA:
		b.WriteString("\tjal  compute_self\n")
		b.WriteString(lamportExit)
	case MechTaosMutex:
		b.WriteString(releaseTaosMutex)
	default:
		b.WriteString(release)
	}

	b.WriteString(`
	addi s0, s0, -1
	bne  s0, zero, loop
	li   v0, 0
	move a0, zero
	syscall
`)
	b.WriteString(tasFunction(m))
	if m == MechUserLevel {
		b.WriteString(trampoline)
	}
	if m == MechLamportA || m == MechLamportB {
		b.WriteString(computeSelf)
	}
	b.WriteString("\n\t.data\nlock:    .word 0\ncounter: .word 0\n")
	b.WriteString(lamportData(2))
	return b.String()
}

// EmptyLoopProgram measures the loop overhead subtracted from
// microbenchmark results (§5.1).
func EmptyLoopProgram(iters int) string {
	return fmt.Sprintf(`
	.text
main:
	li   s0, %d
loop:
	addi s0, s0, -1
	bne  s0, zero, loop
	li   v0, 0
	move a0, zero
	syscall
`, iters)
}

// AcquireReleaseProgram builds the Table 4 measurement: a single thread
// acquires and releases a Test-And-Set lock `iters` times with no critical
// section body. The lock is always free.
func AcquireReleaseProgram(m Mechanism, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text\nmain:\n%s\tla   s1, lock\n", prologue(m))
	if m == MechLamportA || m == MechLamportB {
		b.WriteString(loadLamportBases)
		b.WriteString("\tjal  compute_self\n")
	}
	fmt.Fprintf(&b, "\tli   s0, %d\nloop:\n", iters)
	switch m {
	case MechTaosMutex:
		b.WriteString(acquireTaosMutex)
	case MechDesignated:
		// The compiler lays the contended path out of line, so the hot
		// path is exactly the five-word sequence followed by the release.
		b.WriteString(`	lw   v0, 0(s1)          # get value of the lock
	ori  t0, zero, 1        # locked value
	bne  v0, zero, slow     # branch if not common case (out of line)
	landmark
	sw   t0, 0(s1)          # store locked value
`)
	case MechInterlocked:
		// Inline interlocked instruction: no linkage overhead (§6).
		b.WriteString("\ttas  v0, 0(s1)\n")
	case MechLockB:
		b.WriteString(`	lockb
	lw   v0, 0(s1)
	ori  t0, zero, 1
	sw   t0, 0(s1)
`)
	case MechLamportA:
		b.WriteString("\tjal  compute_self\n")
		b.WriteString(lamportEnter(2))
	case MechLamportB:
		b.WriteString(lamportEnter(2))
		b.WriteString(`	lw   t5, 0(s1)
	ori  t6, zero, 1
	sw   t6, 0(s1)
`)
		b.WriteString(lamportExit)
	default:
		b.WriteString(acquireViaCall)
	}
	switch m {
	case MechLamportA:
		b.WriteString("\tjal  compute_self\n")
		b.WriteString(lamportExit)
	case MechTaosMutex:
		b.WriteString(releaseTaosMutex)
	default:
		b.WriteString(release)
	}
	b.WriteString(`
	addi s0, s0, -1
	bne  s0, zero, loop
	li   v0, 0
	move a0, zero
	syscall
`)
	if m == MechDesignated {
		b.WriteString(`slow:
	li   v0, 1              # SysYield, then retry (never taken here)
	syscall
	b    loop
`)
	}
	switch m {
	case MechDesignated, MechInterlocked, MechLockB, MechLamportA, MechLamportB, MechTaosMutex:
	default:
		b.WriteString(tasFunction(m))
	}
	if m == MechUserLevel {
		b.WriteString(trampoline)
	}
	if m == MechLamportA || m == MechLamportB {
		b.WriteString(computeSelf)
	}
	b.WriteString("\n\t.data\nlock: .word 0\n")
	if m == MechLamportA || m == MechLamportB {
		b.WriteString(lamportData(2))
	}
	return b.String()
}

// WriteBufferProbeProgram builds the §5.1 write-buffer experiment: a
// single thread acquires and releases a lock with mechanism m (supported:
// MechDesignated, MechLamportA), then executes pad ALU instructions of
// non-memory "application work" before the next iteration. The pad lets a
// write buffer drain between iterations, so what distinguishes mechanisms
// is the *burst length* of their stores — one commit store for the
// restartable sequence versus five for the reservation protocol.
func WriteBufferProbeProgram(m Mechanism, iters, pad int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text\nmain:\n\tla   s1, lock\n")
	if m == MechLamportA {
		b.WriteString(loadLamportBases)
		b.WriteString("\tjal  compute_self\n")
	}
	fmt.Fprintf(&b, "\tli   s0, %d\nloop:\n", iters)
	switch m {
	case MechDesignated:
		b.WriteString(`	lw   v0, 0(s1)
	ori  t0, zero, 1
	bne  v0, zero, slow
	landmark
	sw   t0, 0(s1)
`)
		b.WriteString(release)
	case MechLamportA:
		b.WriteString(lamportEnter(2))
		b.WriteString(lamportExit)
	default:
		panic("guest: WriteBufferProbeProgram supports designated and lamport-a only")
	}
	for i := 0; i < pad; i++ {
		b.WriteString("\taddi t2, t2, 1\n")
	}
	b.WriteString(`
	addi s0, s0, -1
	bne  s0, zero, loop
	li   v0, 0
	move a0, zero
	syscall
`)
	if m == MechDesignated {
		b.WriteString("slow:\n\tli   v0, 1\n\tsyscall\n\tb    loop\n")
	}
	if m == MechLamportA {
		b.WriteString(computeSelf)
	}
	b.WriteString("\n\t.data\nlock: .word 0\n")
	b.WriteString(lamportData(2))
	return b.String()
}

// LinkageProgram measures bare call linkage overhead (Table 4's third
// column): a loop around a call to an empty function, minus the empty loop.
func LinkageProgram(iters int) string {
	return fmt.Sprintf(`
	.text
main:
	li   s0, %d
loop:
	jal  empty
	addi s0, s0, -1
	bne  s0, zero, loop
	li   v0, 0
	move a0, zero
	syscall
empty:
	jr   ra
`, iters)
}

// Assemble assembles a guest source string, panicking on error: guest
// sources are generated, so failure is a bug in this package. Each
// source is assembled once per process: every call with the same source
// returns the same program, which callers share and must not modify
// (kernels and SMP systems only read it).
func Assemble(src string) *asm.Program {
	assembled.Lock()
	defer assembled.Unlock()
	if p, ok := assembled.progs[src]; ok {
		return p
	}
	p, err := asm.Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("guest: internal assembly error: %v\nsource:\n%s", err, src))
	}
	assembled.progs[src] = p
	return p
}

// assembled memoizes Assemble by source. Guest sources are generated
// from a few small parameters, so the table stays small.
var assembled = struct {
	sync.Mutex
	progs map[string]*asm.Program
}{progs: map[string]*asm.Program{}}
