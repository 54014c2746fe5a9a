package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/uniproc"
)

func TestTicketLockMutualExclusion(t *testing.T) {
	const n, iters = 4, 200
	for _, mech := range []Mechanism{NewRAS(), NewKernelEmul(arch.R3000())} {
		for _, q := range []uint64{31, 127, 50000} {
			p := uniproc.New(uniproc.Config{Quantum: q, JitterSeed: 3})
			lock := NewTicketLock(mech)
			var counter Word
			inCS := false
			violated := false
			for i := 0; i < n; i++ {
				p.Go("worker", func(e *uniproc.Env) {
					for it := 0; it < iters; it++ {
						lock.Acquire(e)
						if inCS {
							violated = true
						}
						inCS = true
						v := e.Load(&counter)
						e.ChargeALU(2)
						e.Store(&counter, v+1)
						inCS = false
						lock.Release(e)
					}
				})
			}
			if err := p.Run(); err != nil {
				t.Fatalf("%s q=%d: %v", mech.Name(), q, err)
			}
			if violated {
				t.Errorf("%s q=%d: two holders", mech.Name(), q)
			}
			if counter != n*iters {
				t.Errorf("%s q=%d: counter = %d, want %d", mech.Name(), q, counter, n*iters)
			}
		}
	}
}

func TestTicketLockFIFO(t *testing.T) {
	// Threads that queue while the lock is held must acquire it in ticket
	// (arrival) order.
	p := uniproc.New(uniproc.Config{Quantum: 1 << 40})
	lock := NewTicketLock(NewRAS())
	var order []int
	p.Go("holder", func(e *uniproc.Env) {
		lock.Acquire(e)
		for i := 1; i <= 3; i++ {
			id := i
			e.Fork("waiter", func(e *uniproc.Env) {
				lock.Acquire(e)
				order = append(order, id)
				lock.Release(e)
			})
			e.Yield() // let waiter i take its ticket before i+1 forks
		}
		lock.Release(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("acquisition order = %v, want [1 2 3]", order)
	}
}

func TestTicketLockWaiters(t *testing.T) {
	p := uniproc.New(uniproc.Config{Quantum: 1 << 40})
	lock := NewTicketLock(NewRAS())
	p.Go("main", func(e *uniproc.Env) {
		lock.Acquire(e)
		if lock.Waiters() != 1 {
			t.Errorf("waiters = %d, want 1 (the holder)", lock.Waiters())
		}
		lock.Release(e)
		if lock.Waiters() != 0 {
			t.Errorf("waiters = %d after release", lock.Waiters())
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if lock.Name() == "" {
		t.Error("empty name")
	}
}

// Holder diagnostics: Waiters reports how many tickets are outstanding.
func (l *TicketLock) Waiters() int { return int(l.next - l.serving) }
