package core

import "repro/internal/uniproc"

// TicketLock is a FIFO mutual exclusion lock built on the Fetch-And-Add
// primitive (§2 lists Fetch-And-Add among the operations restartable
// sequences can implement). Arriving threads take a ticket; the lock serves
// tickets in order, so no thread can be starved by barging — unlike the
// Test-And-Set spinlock, whose acquisition order is whatever the scheduler
// happens to produce.
type TicketLock struct {
	mech    Mechanism
	next    Word // next ticket to hand out
	serving Word // ticket currently allowed into the critical section
}

// NewTicketLock creates an unlocked ticket lock over mech.
func NewTicketLock(m Mechanism) *TicketLock { return &TicketLock{mech: m} }

// Name implements Locker.
func (l *TicketLock) Name() string { return "ticket(" + l.mech.Name() + ")" }

// Acquire implements Locker: take a ticket, then wait (yielding) until it
// is served.
func (l *TicketLock) Acquire(e *uniproc.Env) {
	ticket := l.mech.FetchAndAdd(e, &l.next, 1)
	for e.Load(&l.serving) != ticket {
		e.Processor().CountHoldup()
		e.Yield()
	}
}

// Release implements Locker: serve the next ticket. The holder is the only
// writer of serving, so a plain store suffices on the uniprocessor.
func (l *TicketLock) Release(e *uniproc.Env) {
	s := e.Load(&l.serving)
	e.ChargeALU(1)
	e.Store(&l.serving, s+1)
}
