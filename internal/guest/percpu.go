package guest

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// ServerVariant selects the request-path implementation in ServerProgram.
type ServerVariant int

const (
	// ServerPerCPU is the data-plane design: every CPU owns a request
	// ring, a tail word producers reserve with a registered restartable
	// sequence, and one worker that drains batches. No word on the
	// request path is ever touched from another CPU, so a request costs
	// zero remote memory references — the claim the bench table measures.
	ServerPerCPU ServerVariant = iota
	// ServerMutex is the baseline uxserver shape: one global queue, one
	// global test-and-set lock, every client and every worker from every
	// CPU serializing on the same two cache lines.
	ServerMutex
	// ServerRacyDrain is ServerPerCPU with the planted drain bug: the
	// worker trusts the reserved tail instead of the per-slot publication
	// word, so a producer preempted between reserving a slot and
	// publishing its payload has the request consumed as empty — a lost
	// update the mcheck percpu-queue model catches and shrinks.
	ServerRacyDrain
)

func (v ServerVariant) String() string {
	switch v {
	case ServerPerCPU:
		return "percpu"
	case ServerMutex:
		return "mutex"
	case ServerRacyDrain:
		return "racy"
	}
	return "unknown"
}

// ServerRing is the per-CPU request ring capacity (power of two: the
// slot index is tail & (ServerRing-1)).
const ServerRing = 8

// ServerLatBuckets is the per-CPU client-latency histogram size: bucket
// b counts requests whose submission took floor(log2(cycles)) == b,
// measured from the first reservation attempt (so full-ring stalls and
// lock waits count) to payload publication. Each CPU's array is two
// private coherence lines; the increment is a registered restartable
// sequence so client siblings on one CPU never lose a count.
const ServerLatBuckets = 32

// Per-CPU block layout (one 64-byte coherence line per CPU, so the
// percpu variant's request path never crosses a line boundary into
// another CPU's traffic):
//
//	+0  tail     — producers reserve slots here (registered RAS)
//	+4  head     — consumer's drain cursor
//	+8  served   — worker's final served-request count (written at exit)
//	+12 done     — finished-client count (registered RAS increment)
//	+16 batches  — non-empty drain rounds (mean batch = served/batches)
//	+20 ring     — ServerRing payload slots (0 = empty/unpublished)
//
// The mutex variant uses one such block globally, plus a spinlock word on
// its own line.
const (
	serverOffTail    = 0
	serverOffHead    = 4
	serverOffServed  = 8
	serverOffDone    = 12
	serverOffBatches = 16
	serverOffRing    = 20
)

// ServerProgram builds the SMP server workload: the harness spawns one
// "worker" per CPU (a0 = the number of clients whose requests it must
// outlive: clients on its CPU for percpu/racy, clients on the machine
// for mutex) and "client" threads (a0 = requests to submit). Clients
// submit unit requests; workers drain and count them. The harness reads
// each CPU's served count from its block and verifies the total.
//
// For the percpu and racy variants the two restartable sequences —
// rsv_seq (slot reservation) and inc_seq (client-exit counter) — must be
// registered on every CPU's kernel; RegisterServerSequences does it.
func ServerProgram(v ServerVariant, cpus int) string {
	if v == ServerMutex {
		return serverMutexProgram(cpus)
	}
	var b strings.Builder
	b.WriteString("\t.text\n")

	// Client: reserve a slot on the home CPU's ring with one registered
	// restartable sequence, publish the payload with a plain store, and
	// bump the done counter on exit with another.
	fmt.Fprintf(&b, `client:                         # a0 = requests to submit
	move s0, a0
	li   v0, 11             # SysCPU
	syscall
	sll  t0, v0, 6          # my CPU's block, one line per CPU
	la   s1, pcb
	add  s1, s1, t0
	sll  t0, v0, 7          # my CPU's latency lines (two per CPU)
	la   s2, lats
	add  s2, s2, t0
	ori  s4, zero, %d       # ring capacity
	li   v0, 6              # SysTime: first submission starts now
	syscall
	move s3, v0
ploop:
rsv_seq:
	lw   v0, %d(s1)         # tail — restartable reservation begins
	lw   t1, %d(s1)         # head
	sub  t2, v0, t1
	addi t3, v0, 1
	beq  t2, s4, pfull      # ring full: abort without committing
	sw   t3, %d(s1)         # commit: slot v0 is mine
rsv_end:
	andi t5, v0, %d         # publish: plain stores, my CPU only
	sll  t5, t5, 2
	add  t5, t5, s1
	ori  t6, zero, 1
	sw   t6, %d(t5)         # payload 1 = one unit request
	li   v0, 6              # SysTime: submission complete
	syscall
	sub  t0, v0, s3
	move t1, zero
plb1:
	srl  t0, t0, 1          # floor(log2(cycles)) into my CPU's bucket
	beq  t0, zero, plb2
	addi t1, t1, 1
	b    plb1
plb2:
	sll  t2, t1, 2
	add  t2, t2, s2
lat_seq:
	lw   t3, 0(t2)          # registered: a preempted count restarts
	addi t3, t3, 1
	sw   t3, 0(t2)
lat_end:
	addi s0, s0, -1
	beq  s0, zero, pexit
	li   v0, 6              # SysTime: next submission starts
	syscall
	move s3, v0
	b    ploop
pexit:
inc_seq:
	lw   v0, %d(s1)         # done++ — restartable: siblings race here
	addi t0, v0, 1
	sw   t0, %d(s1)
inc_end:
	li   v0, 0              # SysExit
	move a0, zero
	syscall
pfull:
	li   v0, 1              # SysYield until the worker drains; the clock
	syscall                 # keeps running — the stall is client-visible
	b    ploop
`, ServerRing,
		serverOffTail, serverOffHead, serverOffTail,
		ServerRing-1, serverOffRing,
		serverOffDone, serverOffDone)

	// Worker: batched drain. The safe variant treats an unpublished slot
	// (payload 0) as end-of-batch and re-polls; the racy variant trusts
	// the reserved tail and consumes it — the planted lost update.
	unpublished := "\tbeq  t4, zero, wround   # reserved but unpublished: wait\n"
	if v == ServerRacyDrain {
		unpublished = "" // racy: consume whatever the slot holds
	}
	fmt.Fprintf(&b, `worker:                         # a0 = clients on this CPU
	move s6, a0
	li   v0, 11             # SysCPU
	syscall
	sll  t0, v0, 6
	la   s0, pcb
	add  s0, s0, t0
	move s2, zero           # served requests
wloop:
	move s3, zero           # this batch's size
wdrain:
	lw   t1, %d(s0)         # head
	lw   t2, %d(s0)         # tail
	beq  t1, t2, wround     # ring empty: batch over
	andi t3, t1, %d
	sll  t3, t3, 2
	add  t3, t3, s0
	lw   t4, %d(t3)         # slot payload
%s	sw   zero, %d(t3)       # consume: clear the slot
	addi t1, t1, 1
	sw   t1, %d(s0)         # advance head
	add  s2, s2, t4
	addi s3, s3, 1
	b    wdrain
wround:
	beq  s3, zero, wempty
	lw   t5, %d(s0)         # batches++
	addi t5, t5, 1
	sw   t5, %d(s0)
	b    wloop
wempty:
	lw   t5, %d(s0)         # every client retired?
	bne  t5, s6, wyield
	lw   t1, %d(s0)         # and the ring fully drained?
	lw   t2, %d(s0)
	bne  t1, t2, wyield
	sw   s2, %d(s0)         # publish the served count
	li   v0, 0              # SysExit
	move a0, zero
	syscall
wyield:
	li   v0, 1              # SysYield
	syscall
	b    wloop
`, serverOffHead, serverOffTail, ServerRing-1, serverOffRing,
		unpublished, serverOffRing, serverOffHead,
		serverOffBatches, serverOffBatches,
		serverOffDone, serverOffHead, serverOffTail, serverOffServed)

	fmt.Fprintf(&b, "\n\t.data\npcb:\t.space %d\nlats:\t.space %d\n",
		64*maxInt(cpus, 1), 4*ServerLatBuckets*maxInt(cpus, 1))
	return b.String()
}

// serverMutexProgram is the single-queue baseline: the same ring and the
// same counters, but one global copy of each, every access under one
// global test-and-set lock.
func serverMutexProgram(cpus int) string {
	var b strings.Builder
	b.WriteString("\t.text\n")
	fmt.Fprintf(&b, `client:                         # a0 = requests to submit
	move s0, a0
	la   s1, glock
	la   s2, gblock
	ori  s4, zero, %d
	li   v0, 11             # SysCPU: latency lines are per CPU
	syscall
	sll  t0, v0, 7
	la   s5, lats
	add  s5, s5, t0
	li   v0, 6              # SysTime: first submission starts now
	syscall
	move s3, v0
ploop:
	lw   t1, %d(s2)         # unlocked fullness peek: a client that
	lw   t2, %d(s2)         # cannot enqueue must not grab the lock,
	sub  t3, t1, t2         # or full-ring probing starves the workers
	beq  t3, s4, pstall     # out of the tas forever
pacq:
	lw   v0, 0(s1)          # test-and-test-and-set on the global lock
	bne  v0, zero, pwait
	tas  v0, 0(s1)
	bne  v0, zero, pwait
	lw   t1, %d(s2)         # gtail
	lw   t2, %d(s2)         # ghead
	sub  t3, t1, t2
	beq  t3, s4, pfull
	andi t5, t1, %d
	sll  t5, t5, 2
	add  t5, t5, s2
	ori  t6, zero, 1
	sw   t6, %d(t5)         # payload, under the lock
	addi t1, t1, 1
	sw   t1, %d(s2)         # gtail++
	sw   zero, 0(s1)        # release
	li   v0, 6              # SysTime: submission complete
	syscall
	sub  t0, v0, s3
	move t1, zero
plb1:
	srl  t0, t0, 1          # floor(log2(cycles)) into my CPU's bucket
	beq  t0, zero, plb2
	addi t1, t1, 1
	b    plb1
plb2:
	sll  t2, t1, 2
	add  t2, t2, s5
lat_seq:
	lw   t3, 0(t2)          # registered even for the mutex baseline: the
	addi t3, t3, 1          # instrumentation must stay exact while the
	sw   t3, 0(t2)          # lock path stays unregistered
lat_end:
	addi s0, s0, -1
	beq  s0, zero, dacq
	li   v0, 6              # SysTime: next submission starts
	syscall
	move s3, v0
	b    ploop
dacq:
	lw   v0, 0(s1)          # done++ needs the lock too
	bne  v0, zero, dwait
	tas  v0, 0(s1)
	bne  v0, zero, dwait
	lw   t1, %d(s2)
	addi t1, t1, 1
	sw   t1, %d(s2)
	sw   zero, 0(s1)
	li   v0, 0              # SysExit
	move a0, zero
	syscall
dwait:
	li   v0, 1
	syscall
	b    dacq
pfull:
	sw   zero, 0(s1)        # release before yielding
pstall:
	li   v0, 1
	syscall
	b    ploop
pwait:
	li   v0, 1
	syscall
	b    pacq
`, ServerRing,
		serverOffTail, serverOffHead,
		serverOffTail, serverOffHead, ServerRing-1, serverOffRing, serverOffTail,
		serverOffDone, serverOffDone)

	fmt.Fprintf(&b, `worker:                         # a0 = clients on the machine
	move s6, a0
	la   s1, glock
	la   s2, gblock
wloop:
	lw   t1, %d(s2)         # ghead — unlocked peek, so an idle worker
	lw   t2, %d(s2)         # gtail   does not hammer the lock line
	beq  t1, t2, wmaybe
	tas  v0, 0(s1)          # work sighted: grab the lock
	bne  v0, zero, wyield
	lw   t1, %d(s2)         # re-read under the lock
	lw   t2, %d(s2)
	beq  t1, t2, wrel       # raced: another worker served it
	andi t3, t1, %d
	sll  t3, t3, 2
	add  t3, t3, s2
	lw   t4, %d(t3)         # payload (published under the lock)
	sw   zero, %d(t3)
	addi t1, t1, 1
	sw   t1, %d(s2)         # ghead++
	lw   t5, %d(s2)         # gserved += payload
	add  t5, t5, t4
	sw   t5, %d(s2)
	lw   t6, %d(s2)         # gbatches++ (every grab serves one: unbatched)
	addi t6, t6, 1
	sw   t6, %d(s2)
wrel:
	sw   zero, 0(s1)        # release
	b    wloop
wmaybe:
	lw   t5, %d(s2)         # every client retired?
	bne  t5, s6, wyield
	lw   t1, %d(s2)         # still drained after the done read?
	lw   t2, %d(s2)
	bne  t1, t2, wloop
	li   v0, 0              # SysExit: done and drained
	move a0, zero
	syscall
wyield:
	li   v0, 1
	syscall
	b    wloop
`, serverOffHead, serverOffTail, serverOffHead, serverOffTail,
		ServerRing-1, serverOffRing, serverOffRing,
		serverOffHead, serverOffServed, serverOffServed,
		serverOffBatches, serverOffBatches,
		serverOffDone, serverOffHead, serverOffTail)

	fmt.Fprintf(&b, "\n\t.data\nglock:\t.word 0\n\t.space 60\ngblock:\t.space 64\nlats:\t.space %d\n",
		4*ServerLatBuckets*maxInt(cpus, 1))
	return b.String()
}

// FreeListVariant selects pop protection in FreeListProgram.
type FreeListVariant int

const (
	// FreeListRAS registers pop and push-commit as restartable
	// sequences: a preempted pop re-runs from its head load, so the next
	// link it commits is never stale.
	FreeListRAS FreeListVariant = iota
	// FreeListBare runs the same instructions unregistered: a thread
	// preempted between loading the head and committing resumes with a
	// stale node, and two threads then own the same block — the
	// double-allocation the mcheck percpu-freelist model catches.
	FreeListBare
)

func (v FreeListVariant) String() string {
	if v == FreeListBare {
		return "bare"
	}
	return "ras"
}

// FreeListProgram is a one-CPU intrusive free list: "fhead" holds the
// address of the first free node (0 = empty); each node is two words,
// next link then owner tag. Workers (a0 = iterations, a1 = tag) pop a
// node (pop_seq..pop_end), stamp their tag into the owner word — a
// memory watchpoint checks the old value was 0, i.e. no double
// allocation — yield while holding, clear the tag and push the node back
// (CAS shape cas_seq..cas_end with the speculative link store before
// it). The data section seeds "nodes" free nodes onto the list.
func FreeListProgram(nodes int) string {
	if nodes < 1 {
		nodes = 1
	}
	var b strings.Builder
	b.WriteString(`	.text
worker:                         # a0 = iterations, a1 = owner tag
	move s0, a0
	move s1, a1
	la   s2, fhead
floop:
pop_seq:
	lw   v0, 0(s2)          # head node address
	beq  v0, zero, fempty   # list empty: abort without committing
	lw   t1, 0(v0)          # its next link
	sw   t1, 0(s2)          # commit: node is mine
pop_end:
	sw   s1, 4(v0)          # stamp owner (watchpoint: old must be 0)
	move s3, v0             # hold the node across a reschedule
	li   v0, 1              # SysYield
	syscall
	sw   zero, 4(s3)        # release ownership
fpush:
	lw   s4, 0(s2)          # expected head
	sw   s4, 0(s3)          # speculative: node.next = expected
cas_seq:
	lw   v0, 0(s2)          # commit only if the head is still expected
	bne  v0, s4, fpush
	sw   s3, 0(s2)
cas_end:
	addi s0, s0, -1
	bne  s0, zero, floop
	li   v0, 0              # SysExit
	move a0, zero
	syscall
fempty:
	li   v0, 1              # SysYield until a sibling frees
	syscall
	b    floop

	.data
`)
	// Seed the list: node i links to node i+1, the last to 0. Node i
	// lives at nodes+8*i; fhead points at node 0. Addresses are resolved
	// by the assembler via .word with a symbol.
	b.WriteString("fhead:\t.word fnodes\n")
	for i := 0; i < nodes; i++ {
		if i == nodes-1 {
			b.WriteString(FreeListNodeLabel(i) + ":\t.word 0, 0\n")
		} else {
			fmt.Fprintf(&b, "%s:\t.word %s, 0\n", FreeListNodeLabel(i), FreeListNodeLabel(i+1))
		}
	}
	return b.String()
}

// FreeListNodeLabel is node i's data symbol in FreeListProgram — the
// handle harnesses use to watch a node's owner word (label address + 4).
func FreeListNodeLabel(i int) string {
	if i == 0 {
		return "fnodes"
	}
	return fmt.Sprintf("fnode%d", i)
}

// SequenceRanges resolves start/end label pairs in an assembled program
// to (start, length-in-bytes) ranges, ready for
// kernel.RegisterSequence. Labels come in pairs: start0, end0, start1,
// end1, ...
func SequenceRanges(p *asm.Program, labels ...string) [][2]uint32 {
	var out [][2]uint32
	for i := 0; i+1 < len(labels); i += 2 {
		start := p.MustSymbol(labels[i])
		end := p.MustSymbol(labels[i+1])
		out = append(out, [2]uint32{start, end - start})
	}
	return out
}

// ServerSequenceRanges lists the restartable ranges the percpu and racy
// server variants need registered on every CPU's kernel: the slot
// reservation and the client-exit counter increment.
func ServerSequenceRanges(p *asm.Program) [][2]uint32 {
	return SequenceRanges(p, "rsv_seq", "rsv_end", "inc_seq", "inc_end")
}

// ServerLatSequenceRanges lists the latency-count increment, registered
// for EVERY variant — including the mutex baseline, whose request path
// stays unregistered — so the histogram totals are exact under any
// schedule.
func ServerLatSequenceRanges(p *asm.Program) [][2]uint32 {
	return SequenceRanges(p, "lat_seq", "lat_end")
}

// FreeListSequenceRanges lists FreeListProgram's registered ranges (the
// FreeListRAS variant registers them; FreeListBare deliberately does
// not).
func FreeListSequenceRanges(p *asm.Program) [][2]uint32 {
	return SequenceRanges(p, "pop_seq", "pop_end", "cas_seq", "cas_end")
}

// Peeker is the read-only memory view ServerCounts needs — satisfied by
// both substrates' memories (guest must not import the machines that
// run its programs, or their tests could not import guest).
type Peeker interface {
	Peek(addr uint32) isa.Word
}

// ServerCounts reads the served-request and drain-batch counters out of
// a finished ServerProgram run: summed over the per-CPU blocks for the
// percpu variants, from the single global block for the mutex baseline.
func ServerCounts(mem Peeker, p *asm.Program, v ServerVariant, cpus int) (served, batches uint64) {
	if v == ServerMutex {
		base := p.MustSymbol("gblock")
		return uint64(mem.Peek(base + serverOffServed)),
			uint64(mem.Peek(base + serverOffBatches))
	}
	base := p.MustSymbol("pcb")
	for cpu := 0; cpu < cpus; cpu++ {
		served += uint64(mem.Peek(base + uint32(cpu*64) + serverOffServed))
		batches += uint64(mem.Peek(base + uint32(cpu*64) + serverOffBatches))
	}
	return served, batches
}

// ServerLatCounts reads the client-latency histogram out of a finished
// ServerProgram run, merged across CPUs: counts[b] requests took
// floor(log2(cycles)) == b to submit.
func ServerLatCounts(mem Peeker, p *asm.Program, cpus int) []uint64 {
	base := p.MustSymbol("lats")
	counts := make([]uint64, ServerLatBuckets)
	for cpu := 0; cpu < maxInt(cpus, 1); cpu++ {
		for b := 0; b < ServerLatBuckets; b++ {
			counts[b] += uint64(mem.Peek(base + uint32(4*ServerLatBuckets*cpu+4*b)))
		}
	}
	return counts
}
