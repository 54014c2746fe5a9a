// Package rseq provides a Linux-rseq-flavoured interface over the virtual
// uniprocessor's restartable sequences.
//
// The paper's restartable atomic sequences are the direct ancestor of
// Linux's rseq(2) and librseq: a per-CPU critical section that the kernel
// aborts (vectoring to an abort handler, the moral equivalent of the
// paper's rollback) whenever the thread is preempted or migrated, with a
// single committing store ending the sequence. The operation shapes here
// are the ones librseq exports, implemented with the same structure:
// loads and private computation, then one commit.
//
// The per-CPU dimension appears twice in this codebase. On the SMP
// substrate (internal/vmach/smp) it is literal: guest-asm restartable
// sequences registered per CPU via SysRasRegister operate on CPU-indexed
// lines, and internal/rseq's SMP tests exercise them under chaos
// preemption and eviction. On the virtual uniprocessor the sequences are
// globally atomic — one CPU — and the per-CPU index survives as a
// sharding dimension: PerCPUCounter carries one slot per logical CPU so
// internal/percpu can build sharded counters, free lists and queues
// whose fast paths are contention-free by construction, with the
// single-slot counter as the 1-CPU degenerate case.
//
// Each primitive returns false when the sequence observed a conflicting
// value (the librseq convention of returning -EAGAIN/comparison failure);
// a preemption mid-sequence is invisible to the caller — the sequence
// simply re-runs, as in the paper.
package rseq

import "repro/internal/uniproc"

// Word aliases the simulated memory word.
type Word = uniproc.Word

// CmpEqvStorev atomically performs: if *v == expect { *v = newv }. It
// returns whether the store happened (librseq: rseq_cmpeqv_storev).
func CmpEqvStorev(e *uniproc.Env, v *Word, expect, newv Word) bool {
	ok := false
	e.Restartable(func() {
		ok = false
		cur := e.Load(v)
		e.ChargeALU(1) // compare
		if cur != expect {
			return // abort without committing
		}
		e.Commit(v, newv)
		ok = true
	})
	return ok
}

// Addv atomically adds delta to *v (librseq: rseq_addv). It cannot fail:
// the sequence re-runs until it commits.
func Addv(e *uniproc.Env, v *Word, delta Word) {
	e.Restartable(func() {
		cur := e.Load(v)
		e.ChargeALU(1)
		e.Commit(v, cur+delta)
	})
}

// PerCPUCounter is the canonical rseq use case: a counter incremented with
// no atomic instructions, one slot per logical CPU. The zero value is a
// one-slot counter — the uniprocessor degenerate case; MakePerCPUCounter
// sizes one for a sharded domain. Sum reconciles the slots with the
// librseq read loop.
type PerCPUCounter struct {
	slots []Word
}

// MakePerCPUCounter returns a counter with one slot per logical CPU.
func MakePerCPUCounter(cpus int) *PerCPUCounter {
	if cpus < 1 {
		cpus = 1
	}
	return &PerCPUCounter{slots: make([]Word, cpus)}
}

// slot returns the address of the given CPU's slot, growing a zero-value
// counter on first use. Growth is safe: the simulated threads all run on
// one host goroutine, and slots beyond the requested index are never
// aliased before they exist.
func (c *PerCPUCounter) slot(cpu int) *Word {
	if cpu < 0 {
		cpu = 0
	}
	for len(c.slots) <= cpu {
		c.slots = append(c.slots, 0)
	}
	return &c.slots[cpu]
}

// IncOn increments the given CPU's slot.
func (c *PerCPUCounter) IncOn(e *uniproc.Env, cpu int) {
	Addv(e, c.slot(cpu), 1)
}

// AddOn adds delta to the given CPU's slot.
func (c *PerCPUCounter) AddOn(e *uniproc.Env, cpu int, delta Word) {
	Addv(e, c.slot(cpu), delta)
}

// Inc increments slot 0 — the calling CPU on a uniprocessor.
func (c *PerCPUCounter) Inc(e *uniproc.Env) {
	c.IncOn(e, 0)
}

// Add adds delta to slot 0.
func (c *PerCPUCounter) Add(e *uniproc.Env, delta Word) {
	c.AddOn(e, 0, delta)
}

// Sum totals all CPU slots (the librseq reconciliation loop: each slot is
// only ever written from its own CPU, so a plain read per slot suffices).
func (c *PerCPUCounter) Sum(e *uniproc.Env) Word {
	var total Word
	for i := range c.slots {
		total += e.Load(&c.slots[i])
	}
	return total
}

// ListPush pushes node onto an intrusive per-CPU list whose links live in
// next[] (librseq: per-CPU list push). head holds the index+1 of the first
// node, 0 when empty.
func ListPush(e *uniproc.Env, head *Word, next []Word, node int) {
	e.Restartable(func() {
		old := e.Load(head)
		next[node] = old // private until committed
		e.ChargeALU(1)
		e.Commit(head, Word(node+1))
	})
}

// ListPop pops one node from the intrusive list, returning its index and
// whether the list was non-empty (librseq: per-CPU list pop). The load of
// the popped node's link is part of the sequence: a push that lands
// between the head read and the commit restarts the pop, so the link can
// never be stale.
func ListPop(e *uniproc.Env, head *Word, next []Word) (int, bool) {
	node, ok := 0, false
	e.Restartable(func() {
		ok = false
		h := e.Load(head)
		if h == 0 {
			return // empty: abort without committing
		}
		node = int(h - 1)
		e.ChargeALU(2) // index arithmetic + link load
		e.Commit(head, next[node])
		ok = true
	})
	return node, ok
}

// ListPopAll detaches the whole list, returning the node indices in pop
// order (librseq: rseq-based list splice).
func ListPopAll(e *uniproc.Env, head *Word, next []Word) []int {
	var h Word
	e.Restartable(func() {
		h = e.Load(head)
		if h == 0 {
			return
		}
		e.Commit(head, 0)
	})
	var out []int
	for h != 0 {
		node := int(h - 1)
		out = append(out, node)
		h = next[node]
		e.ChargeALU(2)
	}
	return out
}
