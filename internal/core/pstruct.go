package core

// Persistent versions of the E13 RAS structures on the NVRAM persistence
// model: a stack and a queue whose every operation is a tiny logged
// transaction over a caller-provided NVM word arena, recoverable from
// NVM contents alone. Both undo- and redo-logging disciplines are
// implemented behind the same transaction engine so the two protocols
// can be benchmarked against each other (EXPERIMENTS.md E24):
//
//   - Undo (force): log the OLD values of every word the operation will
//     touch and fence; apply in place, flush, fence; bump the committed
//     sequence, flush, fence. Three persist barriers per operation — the
//     commit point is the LAST fence. Recovery rolls an in-flight
//     transaction BACK by restoring the logged old values.
//
//   - Redo (write-ahead): log the NEW values and fence — that fence IS
//     the commit point; apply in place and flush, bump the applied
//     sequence and flush, but leave both write-backs pending for the
//     next operation's log fence to drain. One persist barrier per
//     operation in steady state. Recovery rolls an in-flight transaction
//     FORWARD by re-applying the logged new values.
//
// Either way a recovery re-execution is a sequence of constant stores,
// so crash-during-recovery is idempotent, and the log record's checksum
// is stored and flushed LAST: a torn crash (chaos.CrashTorn) persists
// a flush-order prefix of the pending words, so a record with a valid
// checksum is always a whole record.
//
// Operations assume mutual exclusion (one operation in flight per
// structure); drive concurrent access through a lock such as
// PersistentMutex. Recover must be called once after each reboot, on the
// surviving arena, before any operation.

import (
	"errors"
	"fmt"

	"repro/internal/uniproc"
)

// LogMode selects the logging discipline.
type LogMode int

const (
	Undo LogMode = iota
	Redo
)

func (m LogMode) String() string {
	if m == Undo {
		return "undo"
	}
	return "redo"
}

// ParseLogMode parses "undo" or "redo".
func ParseLogMode(s string) (LogMode, error) {
	switch s {
	case "undo":
		return Undo, nil
	case "redo":
		return Redo, nil
	}
	return 0, fmt.Errorf("core: unknown log mode %q", s)
}

// ErrStructFull is returned by Push/Enqueue on a full structure.
var ErrStructFull = errors.New("core: persistent structure full")

// Arena layout shared by both structures (word indices):
//
//	[0]                  sequence word: committed (undo) / applied (redo)
//	[1 .. 1+slotWords)   log slot: seq, n, (idx, val)×n, checksum
//	[dataBase ..]        the structure's own words
const (
	seqIdx    = 0
	slotBase  = 1
	maxWrites = 2 // every stack/queue op touches at most two words
	slotWords = 2 + 2*maxWrites + 1
	dataBase  = slotBase + slotWords
)

// pstruct is the shared transaction engine over an arena.
type pstruct struct {
	a    []uniproc.Word
	mode LogMode
}

// pcksum mixes the log record words; stored and flushed last.
func pcksum(ws []uniproc.Word) uniproc.Word {
	h := uint32(0x2545F491)
	for _, w := range ws {
		h = (h ^ uint32(w)) * 0xCC9E2D51
		h ^= h >> 15
	}
	return uniproc.Word(h)
}

// commit runs one transaction writing news[i] to arena index idxs[i].
// On return the operation is durable (redo: the log fence already
// committed it; undo: the sequence bump's fence did).
func (p *pstruct) commit(e *uniproc.Env, idxs []int, news []uniproc.Word) {
	seq := e.Load(&p.a[seqIdx]) + 1
	n := len(idxs)

	// Stage the log record. Undo records carry the old values (read
	// before anything is overwritten); redo records carry the new ones.
	rec := make([]uniproc.Word, 0, 2+2*n)
	rec = append(rec, seq, uniproc.Word(n))
	for i := 0; i < n; i++ {
		v := news[i]
		if p.mode == Undo {
			v = e.Load(&p.a[idxs[i]])
		}
		rec = append(rec, uniproc.Word(idxs[i]), v)
	}
	for i, w := range rec {
		e.Store(&p.a[slotBase+i], w)
	}
	e.Store(&p.a[slotBase+2+2*n], pcksum(rec))
	e.ChargeALU(len(rec) + 1)
	for i := 0; i <= 2+2*n; i++ {
		e.Flush(&p.a[slotBase+i])
	}
	e.Fence() // undo: old values safe before any overwrite
	//           redo: THE commit point — the operation is now durable

	// Apply in place.
	for i := 0; i < n; i++ {
		e.Store(&p.a[idxs[i]], news[i])
		e.Flush(&p.a[idxs[i]])
	}
	if p.mode == Undo {
		e.Fence() // force: data durable before the commit mark
	}

	// Advance the sequence word. For undo this fence is the commit
	// point; for redo the bump rides the next operation's log fence, and
	// recovery re-applies idempotently if a crash beats it there.
	e.Store(&p.a[seqIdx], seq)
	e.Flush(&p.a[seqIdx])
	if p.mode == Undo {
		e.Fence()
	}
}

// Recover inspects the NVM-surviving arena for an in-flight transaction
// and completes the protocol: undo rolls it back, redo rolls it forward.
// It reports whether a repair was applied. Idempotent — a crash during
// Recover re-runs it from the same decidable state.
func (p *pstruct) Recover(e *uniproc.Env) bool {
	seq := e.Load(&p.a[seqIdx])
	lseq := e.Load(&p.a[slotBase])
	n := int(e.Load(&p.a[slotBase+1]))
	e.ChargeALU(4)
	if n < 1 || n > maxWrites || lseq != seq+1 {
		return false // no in-flight transaction
	}
	rec := make([]uniproc.Word, 2+2*n)
	for i := range rec {
		rec[i] = e.Load(&p.a[slotBase+i])
	}
	e.ChargeALU(len(rec) + 1)
	if e.Load(&p.a[slotBase+2+2*n]) != pcksum(rec) {
		return false // torn log record: the data was never touched
	}
	// Undo: restore the old values and leave the sequence word alone —
	// the transaction aborts. Redo: re-apply the new values and claim
	// the sequence — the transaction completes.
	for i := 0; i < n; i++ {
		idx, v := int(rec[2+2*i]), rec[3+2*i]
		e.Store(&p.a[idx], v)
		e.Flush(&p.a[idx])
	}
	e.Fence()
	if p.mode == Redo {
		e.Store(&p.a[seqIdx], lseq)
		e.Flush(&p.a[seqIdx])
		e.Fence()
	}
	return true
}

// Seq returns the committed/applied sequence number (volatile read).
func (p *pstruct) Seq(e *uniproc.Env) uint32 {
	return uint32(e.Load(&p.a[seqIdx]))
}

// Mode returns the structure's logging discipline.
func (p *pstruct) Mode() LogMode { return p.mode }

// PersistentStack is a bounded LIFO over an NVM arena: dataBase holds
// top, the values follow. StackArena sizes the arena for a capacity.
type PersistentStack struct {
	pstruct
	cap int
}

// StackArenaWords returns the arena length a capacity-c stack needs.
func StackArenaWords(c int) int { return dataBase + 1 + c }

// NewPersistentStack wraps arena (its length fixes the capacity). The
// arena may be freshly zeroed (an empty stack) or NVM contents surviving
// a crash — call Recover before the first operation in either case.
func NewPersistentStack(arena []uniproc.Word, mode LogMode) *PersistentStack {
	if len(arena) < dataBase+2 {
		panic("core: persistent stack arena too small")
	}
	return &PersistentStack{pstruct: pstruct{a: arena, mode: mode}, cap: len(arena) - dataBase - 1}
}

const topIdx = dataBase

// Contents returns the elements bottom-first without changing the
// stack (volatile reads: the depth, then each value).
func (s *PersistentStack) Contents(e *uniproc.Env) []uniproc.Word {
	top := int(e.Load(&s.a[topIdx]))
	vs := make([]uniproc.Word, 0, top)
	for i := 0; i < top; i++ {
		vs = append(vs, e.Load(&s.a[topIdx+1+i]))
	}
	return vs
}

// Push pushes v as one logged transaction.
func (s *PersistentStack) Push(e *uniproc.Env, v uniproc.Word) error {
	top := int(e.Load(&s.a[topIdx]))
	if top >= s.cap {
		return ErrStructFull
	}
	s.commit(e, []int{topIdx + 1 + top, topIdx}, []uniproc.Word{v, uniproc.Word(top + 1)})
	return nil
}

// Pop pops as one logged transaction; false on empty. The value slot is
// not cleared — words above top are dead, not state.
func (s *PersistentStack) Pop(e *uniproc.Env) (uniproc.Word, bool) {
	top := int(e.Load(&s.a[topIdx]))
	if top == 0 {
		return 0, false
	}
	v := e.Load(&s.a[topIdx+top])
	s.commit(e, []int{topIdx}, []uniproc.Word{uniproc.Word(top - 1)})
	return v, true
}

// PersistentQueue is a bounded FIFO over an NVM arena: dataBase holds
// head, dataBase+1 holds tail (both monotone; ring index is mod cap).
type PersistentQueue struct {
	pstruct
	cap int
}

// QueueArenaWords returns the arena length a capacity-c queue needs.
func QueueArenaWords(c int) int { return dataBase + 2 + c }

// NewPersistentQueue wraps arena (its length fixes the capacity); call
// Recover before the first operation.
func NewPersistentQueue(arena []uniproc.Word, mode LogMode) *PersistentQueue {
	if len(arena) < dataBase+3 {
		panic("core: persistent queue arena too small")
	}
	return &PersistentQueue{pstruct: pstruct{a: arena, mode: mode}, cap: len(arena) - dataBase - 2}
}

const (
	headOff = 0
	tailOff = 1
	ringOff = 2
)

// Contents returns the elements oldest-first without changing the queue
// (volatile reads: head, tail, then each value).
func (q *PersistentQueue) Contents(e *uniproc.Env) []uniproc.Word {
	head := e.Load(&q.a[dataBase+headOff])
	tail := e.Load(&q.a[dataBase+tailOff])
	vs := make([]uniproc.Word, 0, int(tail-head))
	for i := head; i != tail; i++ {
		vs = append(vs, e.Load(&q.a[dataBase+ringOff+int(uint32(i)%uint32(q.cap))]))
	}
	return vs
}

// Enqueue appends v as one logged transaction.
func (q *PersistentQueue) Enqueue(e *uniproc.Env, v uniproc.Word) error {
	head := e.Load(&q.a[dataBase+headOff])
	tail := e.Load(&q.a[dataBase+tailOff])
	if int(tail-head) >= q.cap {
		return ErrStructFull
	}
	slot := dataBase + ringOff + int(uint32(tail)%uint32(q.cap))
	q.commit(e, []int{slot, dataBase + tailOff}, []uniproc.Word{v, tail + 1})
	return nil
}

// Dequeue removes the oldest element as one logged transaction; false on
// empty.
func (q *PersistentQueue) Dequeue(e *uniproc.Env) (uniproc.Word, bool) {
	head := e.Load(&q.a[dataBase+headOff])
	tail := e.Load(&q.a[dataBase+tailOff])
	if head == tail {
		return 0, false
	}
	v := e.Load(&q.a[dataBase+ringOff+int(uint32(head)%uint32(q.cap))])
	q.commit(e, []int{dataBase + headOff}, []uniproc.Word{head + 1})
	return v, true
}
