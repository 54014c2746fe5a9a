package guest

import (
	"fmt"
	"strings"
)

// PersistentCounterProgram builds the crash-consistent variant of
// RecoverableCounterProgram for a machine with the NVRAM persistence model
// enabled: the same owner-naming lock word (epoch<<16 | tid+1) and CAS
// acquire, plus explicit flush/fence persist points so that the lock,
// counter and repair tally survive a whole-machine crash that discards
// unflushed lines (chaos.CrashVolatile).
//
// The protocol's three persist points:
//
//	P1  after a successful acquire (or orphan steal): flush lock; fence.
//	    NVM never shows an increment whose acquisition it has forgotten.
//	P2  after counter++: flush counter; fence. At most the latest
//	    increment can be lost — nvm_counter >= volatile_counter - 1, the
//	    bounded-durability-loss invariant the model checker verifies.
//	P3  after release: flush lock; fence. A crash between P3 and the next
//	    acquire recovers a free lock and repairs nothing.
//
// Recovery runs in main, BEFORE any worker is spawned: whatever owner the
// (post-crash, NVM-only) lock word names is provably dead, so a nonzero
// owner field is repaired unconditionally — epoch bumped, owner cleared,
// the repair counted at symbol "repairs" and persisted before the first
// SysThreadCreate. The same binary therefore serves as both first boot
// and every reboot. Workers additionally steal orphaned locks via
// SysThreadAlive, so the program also survives individual thread kills.
//
// Each shared variable sits alone on a 64-byte persistence line: a flush
// of the lock must not incidentally persist the counter, or the
// deliberately under-flushed variant below would be indistinguishable
// from the correct one.
func PersistentCounterProgram(workers, iters int) string {
	return persistentCounter(workers, iters, true)
}

// UnderflushedCounterProgram is the planted bug: the same program with
// persist points P2 and P3 removed (P1 is kept, so persist boundaries
// still occur and the crash schedule has somewhere to land). Increments
// accumulate in the volatile tier and a crash can lose arbitrarily many
// of them, violating the bounded-durability-loss invariant — the defect
// the mcheck "persist-underflush" entry must catch and shrink.
func UnderflushedCounterProgram(workers, iters int) string {
	return persistentCounter(workers, iters, false)
}

func persistentCounter(workers, iters int, wellFlushed bool) string {
	persist := func(mem string) string {
		if !wellFlushed {
			return ""
		}
		return fmt.Sprintf("\tflush 0(%s)\n\tfence\n", mem)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `	.text
main:
	li   v0, 3              # SysRasRegister (fails harmlessly if unsupported)
	la   a0, cas_seq
	li   a1, 20             # lw + ori + bne + landmark + sw
	syscall
	la   s1, lock           # --- recovery, before any worker exists
%sboot:
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
%sacquired:
	flush 0(s1)             # P1: ownership is durable before the critical
	fence                   # section runs
	lw   t1, 0(s2)          # critical section: counter++
	addi t1, t1, 1
	sw   t1, 0(s2)
%s%s%s	addi s0, s0, -1
	bne  s0, zero, wloop
	li   v0, 0              # SysExit
	move a0, zero
	syscall

%s
	.data
lock:    .word 0                # one variable per 64-byte persistence line:
	.space 60               # flushing one must not persist another
counter: .word 0
	.space 60
repairs: .word 0
`, bootRepair("boot"), workers, StackBase+0xFF0, iters,
		recoverableAcquire("s3", "acquired", true),
		persist("s2"), // P2: the increment
		recoverableRelease,
		persist("s1"), // P3: the release
		recoverableCAS)
	return b.String()
}

// bootRepair emits the persistent guests' boot-time recovery of the lock
// word at s1, continuing at label next. Main runs it before spawning any
// worker, so whatever owner the NVM word names is dead: the word is freed
// with the epoch bumped, the repair counted at symbol "repairs", and both
// made durable before workers can crash the machine again. Clobbers
// t1-t4.
func bootRepair(next string) string {
	return fmt.Sprintf(`	lw   t1, 0(s1)
	andi t2, t1, 0xFFFF
	beq  t2, zero, %s
	srl  t2, t1, 16         # repair: bump epoch, clear owner
	addi t2, t2, 1
	sll  t2, t2, 16
	sw   t2, 0(s1)
	la   t3, repairs
	lw   t4, 0(t3)
	addi t4, t4, 1
	sw   t4, 0(t3)
	flush 0(s1)
	flush 0(t3)
	fence
`, next)
}
