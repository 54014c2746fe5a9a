package core

import "repro/internal/uniproc"

// This file implements lock-free data structures whose atomicity comes
// directly from restartable sequences, following the paper's §4.1 remark
// that restart machinery "can be made as rich as necessary to satisfy the
// atomicity constraints of any instruction sequence, such as those that
// manipulate wait-free data structures [Herlihy 91]".
//
// The design rule is the same one the Test-And-Set obeys: a sequence may
// read anything and write only thread-private state until its single
// committing store (Env.Commit) publishes the change. On a uniprocessor
// that makes every operation atomic without a lock — an interrupted
// attempt is simply re-run.

// Stack is a LIFO of Words with lock-free push/pop built on restartable
// sequences. Nodes live in an arena indexed by Word handles so that the
// committing store is a single word (the head handle); handle 0 is the
// empty stack.
type Stack struct {
	head  Word
	nodes []stackNode // index 0 unused (0 = nil handle)
	free  []Word      // recycled node handles (thread-unsafe bookkeeping is
	// fine: only the running thread touches it, and it is not part of the
	// atomic state)
}

type stackNode struct {
	value Word
	next  Word
}

// NewStack creates an empty stack.
func NewStack() *Stack {
	return &Stack{nodes: make([]stackNode, 1)}
}

// alloc returns a free node handle, growing the arena if needed.
func (s *Stack) alloc(e *uniproc.Env) Word {
	e.ChargeALU(3)
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	s.nodes = append(s.nodes, stackNode{})
	return Word(len(s.nodes) - 1)
}

// Push atomically pushes v.
func (s *Stack) Push(e *uniproc.Env, v Word) {
	h := s.alloc(e)
	s.nodes[h].value = v
	e.ChargeALU(2)
	e.Restartable(func() {
		old := e.Load(&s.head)
		// The node is private until the commit publishes it, so this
		// write is safely repeatable on restart.
		s.nodes[h].next = old
		e.ChargeALU(1)
		e.Commit(&s.head, h)
	})
}

// Pop atomically removes and returns the top value; ok is false when the
// stack is empty.
//
// Note the absence of the ABA problem that plagues compare-and-swap
// versions of this structure: for another thread to pop and recycle the
// node this thread just read, this thread must have been suspended inside
// its sequence — in which case the sequence restarts and re-reads the
// head. The restart subsumes the version counters a multiprocessor needs.
func (s *Stack) Pop(e *uniproc.Env) (v Word, ok bool) {
	var h Word
	e.Restartable(func() {
		h = e.Load(&s.head)
		if h == 0 {
			return // leave the sequence without committing: empty
		}
		next := e.Load(&s.nodes[h].next)
		e.Commit(&s.head, next)
	})
	if h == 0 {
		return 0, false
	}
	v = s.nodes[h].value
	s.free = append(s.free, h)
	e.ChargeALU(3)
	return v, true
}

// PopAll atomically takes the entire stack contents (top first). A single
// committing store detaches the whole chain, after which traversal is
// private.
func (s *Stack) PopAll(e *uniproc.Env) []Word {
	var h Word
	e.Restartable(func() {
		h = e.Load(&s.head)
		if h == 0 {
			return
		}
		e.Commit(&s.head, 0)
	})
	var out []Word
	for h != 0 {
		out = append(out, s.nodes[h].value)
		next := s.nodes[h].next
		s.free = append(s.free, h)
		h = next
		e.ChargeALU(3)
	}
	return out
}

// Counter is a shared counter whose Add is a single restartable
// fetch-and-add — the "other primitives" of §2.
type Counter struct {
	mech Mechanism
	word Word
}

// NewCounter creates a counter using mech for atomicity.
func NewCounter(m Mechanism) *Counter { return &Counter{mech: m} }

// Add atomically adds delta and returns the previous value.
func (c *Counter) Add(e *uniproc.Env, delta Word) Word {
	return c.mech.FetchAndAdd(e, &c.word, delta)
}

// Value reads the counter.
func (c *Counter) Value(e *uniproc.Env) Word {
	return e.Load(&c.word)
}

// Queue is a FIFO built from two RAS stacks (the classic two-stack queue):
// enqueues push to the inbox; a dequeue that finds its outbox empty
// atomically detaches the whole inbox with PopAll and reverses it in
// private memory. Dequeue is single-consumer-correct on the uniprocessor
// for arbitrary producers; with multiple consumers each drain is still
// atomic, so no element is lost or duplicated.
type Queue struct {
	inbox  *Stack
	outbox []Word // oldest-first; guarded by olock
	olock  *TASLock
}

// NewQueue creates an empty queue using mech for the consumer-side lock.
func NewQueue(m Mechanism) *Queue {
	return &Queue{inbox: NewStack(), olock: NewTASLock(m)}
}

// Enqueue atomically appends v. Lock-free: a single restartable push.
func (q *Queue) Enqueue(e *uniproc.Env, v Word) {
	q.inbox.Push(e, v)
}

// Dequeue removes the oldest element; ok is false when the queue is empty.
func (q *Queue) Dequeue(e *uniproc.Env) (v Word, ok bool) {
	q.olock.Acquire(e)
	defer q.olock.Release(e)
	if len(q.outbox) == 0 {
		// PopAll yields newest-first; reversing it leaves oldest-first.
		batch := q.inbox.PopAll(e)
		for i := len(batch) - 1; i >= 0; i-- {
			q.outbox = append(q.outbox, batch[i])
		}
		e.ChargeALU(2 * len(batch))
	}
	if len(q.outbox) == 0 {
		return 0, false
	}
	v = q.outbox[0]
	q.outbox = q.outbox[1:]
	e.ChargeALU(2)
	return v, true
}
