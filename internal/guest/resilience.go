package guest

import (
	"fmt"
	"strings"
)

// ResilientServerProgram is the crash-surviving server the supervisor
// (internal/resilience) reboots through whole-machine crash campaigns:
// `workers` client threads each apply `iters` exactly-once effects
// (sequence numbers 1..iters) to a shared counter under the persistent
// owner+epoch lock, with a one-word write-ahead intent record making
// every effect idempotent across clean, volatile, and torn crashes.
//
// The per-effect protocol, under the lock:
//
//	W1  wal = worker<<16 | seq; flush; fence     — durable intent
//	W2  applied[worker] = seq;  flush; fence     — the dedup table entry
//	W3  counter++;              flush; fence     — the in-place effect
//	W4  wal = 0;                flush; fence     — intent retired
//
// Recovery runs in main before any worker is spawned (so every owner the
// NVM lock word names is provably dead), and is itself restartable any
// number of times — each step is idempotent:
//
//	R1  recovered = 0 (flushed): the supervisor reads this word after a
//	    crash to classify it as inside/outside recovery.
//	R2  repair the lock word: clear the dead owner, bump the epoch,
//	    count the repair.
//	R3  replay the intent: if wal names (w, s) and applied[w] < s, the
//	    crash hit between W1 and W2 — finish the apply. If applied[w]
//	    >= s the effect already landed (a W2..W4 crash): DEDUPLICATE,
//	    or the worker's post-reboot retry of seq s would double-apply.
//	R4  counter = sum(applied): the counter is derived state, so a torn
//	    split between W2 and W3 self-heals instead of drifting.
//	R5  recovered = 1 (flushed): recovery complete.
//
// Workers resume from the dedup table itself — worker w restarts at
// seq = applied[w] + 1 — which is exactly a client retrying its oldest
// unacknowledged request across the reboot.
//
// When the harness pokes the `readonly` word nonzero before a boot (the
// supervisor's degraded mode after a crash loop), main runs recovery and
// exits without spawning workers: the machine comes up, proves its
// persistent state sound, and applies nothing.
//
// Every shared variable sits alone on a 64-byte persistence line so a
// torn crash tears between variables, never inside the protocol's
// ordering assumptions.
func ResilientServerProgram(workers, iters int) string {
	if workers < 1 {
		workers = 1
	}
	if iters < 1 {
		iters = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `	.text
main:
	li   v0, 3              # SysRasRegister (fails harmlessly if unsupported)
	la   a0, cas_seq
	li   a1, 20
	syscall
	la   s1, lock
	la   s2, counter
	la   s3, wal
	la   s4, applied
	la   s5, recovered      # --- R1: entering recovery, durably
	sw   zero, 0(s5)
	flush 0(s5)
	fence
	# --- R2: any owner the NVM lock word names is dead
%sreplay:                         # --- R3: one-slot WAL replay with dedup
	lw   t1, 0(s3)
	beq  t1, zero, recount
	srl  t5, t1, 16         # t5 = worker id of the intent
	andi t6, t1, 0xFFFF     # t6 = its sequence number
	addi t5, t5, -1         # applied slot: (w-1) * 64 bytes
	sll  t5, t5, 6
	add  t5, t5, s4
	lw   t7, 0(t5)
	slt  t8, t7, t6         # applied[w] < seq: the apply never landed
	beq  t8, zero, retire   # else DEDUP: seq is already in the table
	sw   t6, 0(t5)
	flush 0(t5)
	fence
retire:
	sw   zero, 0(s3)
	flush 0(s3)
	fence
recount:                        # --- R4: counter := sum(applied)
	move t1, zero
	move t2, zero
	li   t3, %d             # workers
sumloop:
	slt  t4, t2, t3
	beq  t4, zero, sumdone
	sll  t5, t2, 6
	add  t5, t5, s4
	lw   t6, 0(t5)
	add  t1, t1, t6
	addi t2, t2, 1
	b    sumloop
sumdone:
	sw   t1, 0(s2)
	flush 0(s2)
	fence
	li   t1, 1              # --- R5: recovery complete, durably
	sw   t1, 0(s5)
	flush 0(s5)
	fence
	la   t2, readonly       # degraded boot: recover, apply nothing, exit
	lw   t2, 0(t2)
	bne  t2, zero, spawned
	li   s0, %d             # number of workers
	li   s6, 1              # next thread id
spawnloop:
	slt  t0, s0, s6
	bne  t0, zero, spawned
	la   a0, worker
	move a1, s6
	sll  a2, s6, 12
	li   t0, %#x
	add  a2, a2, t0
	li   v0, 5              # SysThreadCreate
	syscall
	addi s6, s6, 1
	b    spawnloop
spawned:
	li   v0, 0              # SysExit
	move a0, zero
	syscall

worker:                         # a0 = own kernel thread id = worker id
	move s7, a0             # s7 = worker id (1-based)
	addi s6, a0, 1          # owner field: tid+1
	la   s1, lock
	la   s2, counter
	la   s3, wal
	addi t5, s7, -1         # own applied slot
	sll  t5, t5, 6
	la   s4, applied
	add  s4, s4, t5
	li   s5, %d             # iters
	lw   s0, 0(s4)          # resume at seq = applied[w] + 1: the oldest
	addi s0, s0, 1          # unacknowledged request, retried after reboot
wloop:
	slt  t0, s5, s0
	bne  t0, zero, wdone
%sacquired:
	flush 0(s1)             # P1: ownership durable before the effect
	fence
	sll  t1, s7, 16         # W1: durable intent (w, seq)
	or   t1, t1, s0
	sw   t1, 0(s3)
	flush 0(s3)
	fence
	sw   s0, 0(s4)          # W2: dedup table entry
	flush 0(s4)
	fence
	lw   t1, 0(s2)          # W3: the effect itself
	addi t1, t1, 1
	sw   t1, 0(s2)
	flush 0(s2)
	fence
	sw   zero, 0(s3)        # W4: intent retired
	flush 0(s3)
	fence
%s	flush 0(s1)             # P3
	fence
	addi s0, s0, 1
	b    wloop
wdone:
	li   v0, 0              # SysExit
	move a0, zero
	syscall

%s
	.data
lock:    .word 0                # one variable per 64-byte persistence line
	.space 60
counter: .word 0
	.space 60
wal:     .word 0
	.space 60
recovered: .word 0
	.space 60
readonly: .word 0
	.space 60
repairs: .word 0
	.space 60
applied:
`, bootRepair("replay"), workers, workers, StackBase+0xFF0, iters,
		recoverableAcquire("t8", "acquired", true), recoverableRelease, recoverableCAS)
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&b, "\t.word 0\n\t.space 60\n")
	}
	return b.String()
}
