package uniproc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// rasTAS is the canonical restartable Test-And-Set used throughout the
// tests: load, one ALU op, committing store.
func rasTAS(e *Env, w *Word) Word {
	var old Word
	e.Restartable(func() {
		old = e.Load(w)
		e.ChargeALU(1)
		e.Commit(w, 1)
	})
	return old
}

// unsoundTAS is the same sequence with no recovery: the baseline that must
// lose updates under an adversarial quantum.
func unsoundTAS(e *Env, w *Word) Word {
	old := e.Load(w)
	e.ChargeALU(1)
	e.Store(w, 1)
	return old
}

// counterWorkload runs n threads, each performing iters critical sections
// guarded by a spinlock built from tas, incrementing a shared counter.
func counterWorkload(cfg Config, tas func(*Env, *Word) Word, n, iters int) (Word, *Processor, error) {
	p := New(cfg)
	counter, err := counterOn(p, tas, n, iters)
	return counter, p, err
}

// counterOn runs counterWorkload's threads on p.
func counterOn(p *Processor, tas func(*Env, *Word) Word, n, iters int) (Word, error) {
	var lock, counter Word
	for i := 0; i < n; i++ {
		p.Go("worker", func(e *Env) {
			for it := 0; it < iters; it++ {
				for tas(e, &lock) != 0 {
					e.Yield()
				}
				v := e.Load(&counter)
				e.ChargeALU(1)
				e.Store(&counter, v+1)
				e.Store(&lock, 0)
				e.ChargeALU(2)
			}
		})
	}
	err := p.Run()
	return counter, err
}

func TestSingleThreadRuns(t *testing.T) {
	p := New(Config{})
	ran := false
	p.Go("main", func(e *Env) {
		e.ChargeALU(10)
		ran = true
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("thread did not run")
	}
	if p.Clock() == 0 {
		t.Error("clock did not advance")
	}
	if p.Micros() <= 0 {
		t.Error("no elapsed time")
	}
}

func TestRASCounterExact(t *testing.T) {
	const n, iters = 4, 300
	got, p, err := counterWorkload(Config{Quantum: 37}, rasTAS, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if got != n*iters {
		t.Errorf("counter = %d, want %d", got, n*iters)
	}
	if p.Stats.Restarts == 0 {
		t.Error("expected restarts under a 37-cycle quantum")
	}
	if p.Stats.Suspensions == 0 {
		t.Error("expected suspensions")
	}
}

func TestRASCounterExactAcrossQuanta(t *testing.T) {
	const n, iters = 3, 100
	for q := uint64(11); q < 500; q = q*2 + 3 {
		got, _, err := counterWorkload(Config{Quantum: q}, rasTAS, n, iters)
		if err != nil {
			t.Fatalf("quantum %d: %v", q, err)
		}
		if got != n*iters {
			t.Errorf("quantum %d: counter = %d, want %d", q, got, n*iters)
		}
	}
}

// Property: for arbitrary quantum and jitter seed, the RAS counter is exact
// and restarts never exceed suspensions.
func TestQuickRASInvariant(t *testing.T) {
	f := func(q16 uint16, seed uint64) bool {
		q := uint64(q16)%400 + 13
		const n, iters = 3, 60
		got, p, err := counterWorkload(Config{Quantum: q, JitterSeed: seed}, rasTAS, n, iters)
		if err != nil {
			return false
		}
		return got == n*iters && p.Stats.Restarts <= p.Stats.Suspensions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUnsoundTASLosesUpdates(t *testing.T) {
	const n, iters = 4, 300
	lost := false
	for q := uint64(13); q <= 101 && !lost; q += 4 {
		got, _, err := counterWorkload(Config{Quantum: q}, unsoundTAS, n, iters)
		if err != nil {
			t.Fatal(err)
		}
		if got < n*iters {
			lost = true
		}
	}
	if !lost {
		t.Error("no lost update observed: the unsound baseline appears sound")
	}
}

func TestEmulationTASCorrect(t *testing.T) {
	prof := arch.R3000()
	emulTAS := func(e *Env, w *Word) Word {
		var old Word
		e.Trap(prof.EmulTASCycles, func() {
			old = *w
			*w = 1
			e.CountEmulTrap()
		})
		return old
	}
	const n, iters = 4, 200
	got, p, err := counterWorkload(Config{Profile: prof, Quantum: 37}, emulTAS, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if got != n*iters {
		t.Errorf("counter = %d, want %d", got, n*iters)
	}
	if p.Stats.EmulTraps < n*iters {
		t.Errorf("EmulTraps = %d, want >= %d", p.Stats.EmulTraps, n*iters)
	}
}

func TestInterlockedTASCorrect(t *testing.T) {
	tas := func(e *Env, w *Word) Word {
		var old Word
		e.Interlocked(func() {
			old = *w
			*w = 1
		})
		return old
	}
	const n, iters = 4, 200
	got, _, err := counterWorkload(Config{Profile: arch.I486(), Quantum: 37}, tas, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if got != n*iters {
		t.Errorf("counter = %d, want %d", got, n*iters)
	}
}

func TestInterlockedPanicsWithoutHardware(t *testing.T) {
	p := New(Config{Profile: arch.R3000()})
	p.Go("main", func(e *Env) {
		e.Interlocked(func() {})
	})
	err := p.Run()
	if err == nil || !strings.Contains(err.Error(), "interlocked") {
		t.Errorf("err = %v, want interlocked panic", err)
	}
}

func TestTrapMasksPreemption(t *testing.T) {
	p := New(Config{Quantum: 10})
	sawSuspendInTrap := false
	p.Go("main", func(e *Env) {
		before := e.Self().Suspensions
		e.Trap(500, func() {
			// The slice expires inside; the thread must not be suspended
			// until the trap exits.
			if e.Self().Suspensions != before {
				sawSuspendInTrap = true
			}
		})
	})
	p.Go("other", func(e *Env) { e.ChargeALU(5) })
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if sawSuspendInTrap {
		t.Error("suspended inside a trap with interrupts disabled")
	}
	if p.Stats.Suspensions == 0 {
		t.Error("pending interrupt not delivered at trap exit")
	}
}

func TestYieldOrdering(t *testing.T) {
	p := New(Config{Quantum: 1 << 40})
	var order []int
	p.Go("a", func(e *Env) {
		order = append(order, 1)
		e.Yield()
		order = append(order, 3)
	})
	p.Go("b", func(e *Env) {
		order = append(order, 2)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestBlockUnblock(t *testing.T) {
	p := New(Config{Quantum: 1 << 40})
	var order []int
	var waiter *Thread
	p.Go("w", func(e *Env) {
		waiter = e.Self()
		order = append(order, 1)
		e.Block()
		order = append(order, 3)
	})
	p.Go("u", func(e *Env) {
		order = append(order, 2)
		e.Unblock(waiter)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if p.Stats.Blocks != 1 {
		t.Errorf("Blocks = %d", p.Stats.Blocks)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := New(Config{})
	p.Go("stuck", func(e *Env) { e.Block() })
	if err := p.Run(); err != ErrDeadlock {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	p := New(Config{MaxCycles: 1000})
	p.Go("spin", func(e *Env) {
		for {
			e.ChargeALU(10)
		}
	})
	if err := p.Run(); err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestGuestPanicPropagates(t *testing.T) {
	p := New(Config{})
	p.Go("bad", func(e *Env) { panic("boom") })
	err := p.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestRunTwice(t *testing.T) {
	p := New(Config{})
	p.Go("main", func(e *Env) {})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err == nil {
		t.Error("second Run did not error")
	}
}

func TestNestedRestartablePanics(t *testing.T) {
	p := New(Config{})
	p.Go("main", func(e *Env) {
		e.Restartable(func() {
			e.Restartable(func() {})
		})
	})
	if err := p.Run(); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("err = %v", err)
	}
}

func TestYieldInsideRASPanics(t *testing.T) {
	p := New(Config{})
	p.Go("main", func(e *Env) {
		e.Restartable(func() { e.Yield() })
	})
	if err := p.Run(); err == nil {
		t.Error("expected error")
	}
}

func TestCommitOutsideRASPanics(t *testing.T) {
	p := New(Config{})
	var w Word
	p.Go("main", func(e *Env) { e.Commit(&w, 1) })
	if err := p.Run(); err == nil {
		t.Error("expected error")
	}
}

func TestCommitEndsSequence(t *testing.T) {
	p := New(Config{})
	var w Word
	inRASAfterCommit := true
	p.Go("main", func(e *Env) {
		e.Restartable(func() {
			e.Load(&w)
			e.Commit(&w, 1)
			inRASAfterCommit = e.inRAS
		})
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if inRASAfterCommit {
		t.Error("sequence still restartable after Commit")
	}
}

func TestJitterDeterministic(t *testing.T) {
	runOnce := func() (Word, uint64) {
		got, p, err := counterWorkload(Config{Quantum: 200, JitterSeed: 42}, rasTAS, 3, 100)
		if err != nil {
			t.Fatal(err)
		}
		return got, p.Clock()
	}
	c1, t1 := runOnce()
	c2, t2 := runOnce()
	if c1 != c2 || t1 != t2 {
		t.Errorf("nondeterministic with fixed seed: (%d,%d) vs (%d,%d)", c1, t1, c2, t2)
	}
}

func TestForkFromThread(t *testing.T) {
	p := New(Config{})
	var childRan bool
	p.Go("parent", func(e *Env) {
		e.Fork("child", func(e *Env) { childRan = true })
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("forked child did not run")
	}
	if p.Stats.Forks != 2 {
		t.Errorf("Forks = %d", p.Stats.Forks)
	}
	if len(p.Threads()) != 2 {
		t.Errorf("Threads = %d", len(p.Threads()))
	}
}

func TestUnblockBeforeBlockIsRemembered(t *testing.T) {
	// The lost-wakeup guard: an Unblock that races ahead of the waiter's
	// Block must not be lost.
	p := New(Config{Quantum: 1 << 40})
	var waiter *Thread
	reached := false
	p.Go("w", func(e *Env) {
		waiter = e.Self()
		e.Yield() // let the waker run first
		e.Block() // wakeup already pending: returns immediately
		reached = true
	})
	p.Go("waker", func(e *Env) {
		e.Unblock(waiter)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Error("pending wakeup was lost")
	}
}

func TestUnblockFinishedThreadPanics(t *testing.T) {
	p := New(Config{Quantum: 1 << 40})
	var other *Thread
	p.Go("a", func(e *Env) {
		other = e.Fork("b", func(e *Env) {})
		e.Yield() // let b finish
		e.Unblock(other)
	})
	if err := p.Run(); err == nil {
		t.Error("expected panic error")
	}
}

func TestRestartsAreRareWithRealisticQuantum(t *testing.T) {
	const n, iters = 4, 500
	_, p, err := counterWorkload(Config{Quantum: 50000}, rasTAS, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Restarts*10 > uint64(n*iters) {
		t.Errorf("restarts %d not rare vs %d atomic ops", p.Stats.Restarts, n*iters)
	}
}

func TestThreadString(t *testing.T) {
	p := New(Config{})
	th := p.Go("x", func(e *Env) {})
	if th.String() == "" {
		t.Error("empty string")
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHoldupCounter(t *testing.T) {
	p := New(Config{})
	p.Go("main", func(e *Env) {
		e.Processor().CountHoldup()
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.HoldupCount() != 1 {
		t.Errorf("HoldupCount = %d", p.HoldupCount())
	}
}
