package cthreads

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/uniproc"
)

func newProc(q uint64) *uniproc.Processor {
	return uniproc.New(uniproc.Config{Quantum: q, JitterSeed: 3})
}

func allPkgs() map[string]*Pkg {
	return map[string]*Pkg{
		"ras":       New(core.NewRAS()),
		"ras-reg":   New(core.NewRASRegistered()),
		"emulation": New(core.NewKernelEmul(arch.R3000())),
	}
}

func TestSpinLockCounterAllMechanisms(t *testing.T) {
	const n, iters = 4, 200
	for name, pkg := range allPkgs() {
		for _, q := range []uint64{29, 173, 50000} {
			p := newProc(q)
			lock := pkg.NewSpinLock()
			var counter Word
			for i := 0; i < n; i++ {
				p.Go("worker", func(e *uniproc.Env) {
					for it := 0; it < iters; it++ {
						lock.Lock(e)
						v := e.Load(&counter)
						e.ChargeALU(1)
						e.Store(&counter, v+1)
						lock.Unlock(e)
					}
				})
			}
			if err := p.Run(); err != nil {
				t.Fatalf("%s q=%d: %v", name, q, err)
			}
			if counter != n*iters {
				t.Errorf("%s q=%d: counter = %d, want %d", name, q, counter, n*iters)
			}
		}
	}
}

func TestMutexBlocksAndHandsOff(t *testing.T) {
	const n, iters = 5, 100
	p := newProc(997)
	pkg := New(core.NewRAS())
	mu := pkg.NewMutex()
	var counter Word
	for i := 0; i < n; i++ {
		p.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				mu.Lock(e)
				v := e.Load(&counter)
				// A long critical section guarantees other threads arrive
				// while it is held, forcing the blocking path.
				e.ChargeALU(300)
				e.Store(&counter, v+1)
				mu.Unlock(e)
			}
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != n*iters {
		t.Errorf("counter = %d, want %d", counter, n*iters)
	}
	if p.Stats.Blocks == 0 {
		t.Error("no thread ever blocked on the mutex")
	}
	if mu.held != 0 {
		t.Error("mutex leaked")
	}
}

func TestCondProducerConsumer(t *testing.T) {
	// Bounded buffer of size 4; producer sends 1..N, consumer sums.
	const items = 300
	p := newProc(211)
	pkg := New(core.NewRAS())
	mu := pkg.NewMutex()
	notEmpty := pkg.NewCond()
	notFull := pkg.NewCond()
	var buf []Word
	var sum, wantSum uint64
	p.Go("producer", func(e *uniproc.Env) {
		for i := 1; i <= items; i++ {
			mu.Lock(e)
			for len(buf) == 4 {
				notFull.Wait(e, mu)
			}
			buf = append(buf, Word(i))
			e.ChargeALU(4)
			notEmpty.Signal(e)
			mu.Unlock(e)
			wantSum += uint64(i)
		}
	})
	p.Go("consumer", func(e *uniproc.Env) {
		for i := 0; i < items; i++ {
			mu.Lock(e)
			for len(buf) == 0 {
				notEmpty.Wait(e, mu)
			}
			v := buf[0]
			buf = buf[1:]
			e.ChargeALU(4)
			notFull.Signal(e)
			mu.Unlock(e)
			sum += uint64(v)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != wantSum {
		t.Errorf("sum = %d, want %d", sum, wantSum)
	}
}

func TestPingPongAlternation(t *testing.T) {
	// Two threads alternate strictly via a mutex and condition variable —
	// the paper's PingPong benchmark structure.
	const rounds = 100
	p := newProc(50000)
	pkg := New(core.NewRAS())
	mu := pkg.NewMutex()
	cond := pkg.NewCond()
	turn := Word(0)
	var seq []Word
	player := func(me Word) func(*uniproc.Env) {
		return func(e *uniproc.Env) {
			for i := 0; i < rounds; i++ {
				mu.Lock(e)
				for e.Load(&turn) != me {
					cond.Wait(e, mu)
				}
				seq = append(seq, me)
				e.Store(&turn, 1-me)
				cond.Signal(e)
				mu.Unlock(e)
			}
		}
	}
	p.Go("ping", player(0))
	p.Go("pong", player(1))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2*rounds {
		t.Fatalf("seq len = %d", len(seq))
	}
	for i, v := range seq {
		if v != Word(i%2) {
			t.Fatalf("alternation broken at %d: %v", i, seq[:i+1])
		}
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	const n = 6
	p := newProc(50000)
	pkg := New(core.NewRAS())
	mu := pkg.NewMutex()
	cond := pkg.NewCond()
	var ready Word
	var woke int
	for i := 0; i < n; i++ {
		p.Go("waiter", func(e *uniproc.Env) {
			mu.Lock(e)
			for e.Load(&ready) == 0 {
				cond.Wait(e, mu)
			}
			woke++
			mu.Unlock(e)
		})
	}
	p.Go("broadcaster", func(e *uniproc.Env) {
		// Let all waiters park first.
		for i := 0; i < 3; i++ {
			e.Yield()
		}
		mu.Lock(e)
		e.Store(&ready, 1)
		cond.Broadcast(e)
		mu.Unlock(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != n {
		t.Errorf("woke = %d, want %d", woke, n)
	}
}

func TestSignalWithNoWaitersIsNoop(t *testing.T) {
	p := newProc(50000)
	pkg := New(core.NewRAS())
	cond := pkg.NewCond()
	p.Go("main", func(e *uniproc.Env) {
		cond.Signal(e)
		cond.Broadcast(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphore(t *testing.T) {
	const n, iters = 4, 100
	p := newProc(311)
	pkg := New(core.NewRAS())
	sem := pkg.NewSemaphore(1) // binary semaphore as a mutex
	var counter Word
	for i := 0; i < n; i++ {
		p.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				sem.P(e)
				v := e.Load(&counter)
				e.ChargeALU(50)
				e.Store(&counter, v+1)
				sem.V(e)
			}
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != n*iters {
		t.Errorf("counter = %d, want %d", counter, n*iters)
	}
	if sem.Count() != 1 {
		t.Errorf("final count = %d, want 1", sem.Count())
	}
}

func TestSemaphoreAsResourcePool(t *testing.T) {
	// Count-3 semaphore: at most 3 threads in the "pool" at once.
	const n = 8
	p := newProc(50000)
	pkg := New(core.NewRAS())
	sem := pkg.NewSemaphore(3)
	var inPool, maxInPool int
	for i := 0; i < n; i++ {
		p.Go("worker", func(e *uniproc.Env) {
			sem.P(e)
			inPool++
			if inPool > maxInPool {
				maxInPool = inPool
			}
			e.Yield() // give others a chance to exceed the bound (they must not)
			inPool--
			sem.V(e)
		})
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInPool > 3 {
		t.Errorf("pool bound violated: %d", maxInPool)
	}
	if maxInPool < 2 {
		t.Errorf("pool underused: %d (test not exercising concurrency)", maxInPool)
	}
}

func TestForkJoin(t *testing.T) {
	p := newProc(50000)
	pkg := New(core.NewRAS())
	var childDone bool
	p.Go("parent", func(e *uniproc.Env) {
		h := pkg.Fork(e, "child", func(e *uniproc.Env) {
			e.ChargeALU(100)
			childDone = true
		})
		h.Join(e)
		if !childDone {
			t.Error("join returned before child finished")
		}
		if h.Thread() == nil {
			t.Error("handle has no thread")
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAfterExit(t *testing.T) {
	p := newProc(50000)
	pkg := New(core.NewRAS())
	p.Go("parent", func(e *uniproc.Env) {
		h := pkg.Fork(e, "child", func(e *uniproc.Env) {})
		for i := 0; i < 4; i++ {
			e.Yield() // let the child run to completion first
		}
		h.Join(e) // must return immediately
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleJoiners(t *testing.T) {
	p := newProc(50000)
	pkg := New(core.NewRAS())
	joined := 0
	p.Go("parent", func(e *uniproc.Env) {
		h := pkg.Fork(e, "slow", func(e *uniproc.Env) {
			for i := 0; i < 5; i++ {
				e.Yield()
			}
		})
		for i := 0; i < 3; i++ {
			pkg.Fork(e, "joiner", func(e *uniproc.Env) {
				h.Join(e)
				joined++
			})
		}
		h.Join(e)
		joined++
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 4 {
		t.Errorf("joined = %d, want 4", joined)
	}
}

func TestRecursiveForkChain(t *testing.T) {
	// The paper's ForkTest: threads recursively forked in succession, each
	// terminating immediately after forking the next.
	const depth = 50
	p := newProc(50000)
	pkg := New(core.NewRAS())
	count := 0
	var spawn func(e *uniproc.Env, remaining int)
	spawn = func(e *uniproc.Env, remaining int) {
		count++
		if remaining == 0 {
			return
		}
		pkg.Fork(e, "link", func(e *uniproc.Env) { spawn(e, remaining-1) })
	}
	p.Go("root", func(e *uniproc.Env) { spawn(e, depth) })
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if count != depth+1 {
		t.Errorf("count = %d, want %d", count, depth+1)
	}
}

// Property: producer/consumer transfers every item exactly once under
// arbitrary quanta and mechanisms.
func TestQuickProducerConsumer(t *testing.T) {
	f := func(q16 uint16, useEmul bool) bool {
		q := uint64(q16)%900 + 31
		var pkg *Pkg
		if useEmul {
			pkg = New(core.NewKernelEmul(arch.R3000()))
		} else {
			pkg = New(core.NewRAS())
		}
		p := uniproc.New(uniproc.Config{Quantum: q})
		mu := pkg.NewMutex()
		notEmpty := pkg.NewCond()
		notFull := pkg.NewCond()
		var buf []Word
		const items = 60
		received := make([]bool, items+1)
		ok := true
		p.Go("producer", func(e *uniproc.Env) {
			for i := 1; i <= items; i++ {
				mu.Lock(e)
				for len(buf) == 2 {
					notFull.Wait(e, mu)
				}
				buf = append(buf, Word(i))
				notEmpty.Signal(e)
				mu.Unlock(e)
			}
		})
		p.Go("consumer", func(e *uniproc.Env) {
			for i := 0; i < items; i++ {
				mu.Lock(e)
				for len(buf) == 0 {
					notEmpty.Wait(e, mu)
				}
				v := buf[0]
				buf = buf[1:]
				notFull.Signal(e)
				mu.Unlock(e)
				if v < 1 || int(v) > items || received[v] {
					ok = false
				} else {
					received[v] = true
				}
			}
		})
		if err := p.Run(); err != nil {
			return false
		}
		for i := 1; i <= items; i++ {
			if !received[i] {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The §5.2 claim: thread management operations are faster with RAS than
// with kernel emulation.
func TestRASFasterThanEmulationForMutex(t *testing.T) {
	run := func(pkg *Pkg) uint64 {
		p := uniproc.New(uniproc.Config{Quantum: 50000})
		mu := pkg.NewMutex()
		var c Word
		p.Go("main", func(e *uniproc.Env) {
			for i := 0; i < 2000; i++ {
				mu.Lock(e)
				v := e.Load(&c)
				e.Store(&c, v+1)
				mu.Unlock(e)
			}
		})
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Clock()
	}
	ras := run(New(core.NewRAS()))
	emu := run(New(core.NewKernelEmul(arch.R3000())))
	if emu <= ras*2 {
		t.Errorf("emulation (%d cycles) not >> RAS (%d cycles)", emu, ras)
	}
}
