package uniproc

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// A one-shot kill at a memop boundary terminates exactly that thread; the
// rest of the run proceeds and Run returns nil.
func TestKillUnwindsOneThread(t *testing.T) {
	p := New(Config{
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 5, Action: chaos.Action{Kill: true}},
	})
	var w Word
	var trace obs.Capture
	p.Tracer = &trace
	for i := 0; i < 3; i++ {
		p.Go("worker", func(e *Env) {
			for it := 0; it < 50; it++ {
				v := e.Load(&w)
				e.Store(&w, v+1)
			}
		})
	}
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	killed := 0
	for _, th := range p.Threads() {
		if !th.Done() {
			t.Errorf("%v not done after Run", th)
		}
		if th.killed {
			killed++
		}
	}
	if killed != 1 || p.Stats.Kills != 1 {
		t.Errorf("killed=%d Stats.Kills=%d, want 1/1", killed, p.Stats.Kills)
	}
	exits := 0
	for _, ev := range trace.Events() {
		if ev.Type == obs.KindExit {
			exits++
		}
	}
	if exits != 3 {
		t.Errorf("%d exit events, want one for each of the 3 threads", exits)
	}
}

// Killing the last live thread ends the run cleanly: live reaches zero, so
// Run returns nil rather than diagnosing a deadlock.
func TestKillLastThreadIsCleanShutdown(t *testing.T) {
	p := New(Config{
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 3, Action: chaos.Action{Kill: true}},
	})
	var w Word
	p.Go("doomed", func(e *Env) {
		for i := 0; i < 100; i++ {
			e.Store(&w, Word(i))
		}
	})
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	th := p.Threads()[0]
	if !th.killed || !th.Done() {
		t.Errorf("killed=%v done=%v, want true/true", th.killed, th.Done())
	}
}

// A kill inside a restartable sequence must propagate the unwinding signal
// through runSeq (not be mistaken for a restart) and must not mark the run
// as a guest panic.
func TestKillInsideRestartableSequence(t *testing.T) {
	p := New(Config{
		// N=2: the kill lands on the Commit of the first sequence attempt.
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 2, Action: chaos.Action{Kill: true}},
	})
	var w Word
	committed := false
	p.Go("victim", func(e *Env) {
		e.Restartable(func() {
			v := e.Load(&w)
			e.ChargeALU(1)
			e.Commit(&w, v+1)
		})
		committed = true
	})
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if committed {
		t.Error("code after the killing memop ran")
	}
	// Commit applies the store before the boundary where death strikes: the
	// sequence's effect is durable even though its thread died on the spot.
	if w != 1 {
		t.Errorf("committed value lost: w=%d", w)
	}
	if p.Stats.Restarts != 0 {
		t.Errorf("kill was miscounted as %d restarts", p.Stats.Restarts)
	}
}

// Faults are suppressed while interrupts are masked: a kill scheduled for a
// memop inside a trap handler is dropped, not deferred.
func TestKillSuppressedWhileMasked(t *testing.T) {
	p := New(Config{
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 1, Action: chaos.Action{Kill: true}},
	})
	var w Word
	p.Go("trapper", func(e *Env) {
		e.Trap(10, func() {
			e.Store(&w, 1) // memop 1: the kill opportunity, masked
		})
		e.Store(&w, 2)
	})
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.Stats.Kills != 0 || p.Threads()[0].killed {
		t.Errorf("masked kill applied: Kills=%d", p.Stats.Kills)
	}
	if w != 2 {
		t.Errorf("thread did not finish: w=%d", w)
	}
}

// An injected machine crash stops the whole run with ErrMachineCrash and
// unwinds every thread.
func TestCrashAbortsRun(t *testing.T) {
	p := New(Config{
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 10, Action: chaos.Action{Crash: chaos.CrashClean}},
	})
	var w Word
	for i := 0; i < 4; i++ {
		p.Go("worker", func(e *Env) {
			for it := 0; it < 100; it++ {
				v := e.Load(&w)
				e.Store(&w, v+1)
			}
		})
	}
	err := p.Run()
	if !errors.Is(err, ErrMachineCrash) {
		t.Fatalf("Run = %v, want ErrMachineCrash", err)
	}
	for _, th := range p.Threads() {
		if !th.Done() {
			t.Errorf("%v survived the crash", th)
		}
		if th.killed {
			t.Errorf("%v marked Killed by a crash (crash is not a thread kill)", th)
		}
	}
}

// The ThreadDead oracle: live threads are alive, finished and killed ones
// dead, and IDs naming no thread are dead (an orphaned lock word).
func TestThreadDeadOracle(t *testing.T) {
	p := New(Config{
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 4, Action: chaos.Action{Kill: true}},
	})
	var w Word
	victim := p.Go("victim", func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Store(&w, Word(i))
			e.Yield()
		}
	})
	var sawAlive, sawDead bool
	p.Go("observer", func(e *Env) {
		for i := 0; i < 30; i++ {
			if e.ThreadDead(victim.ID) {
				sawDead = true
			} else {
				sawAlive = true
			}
			e.Yield()
		}
		if !e.ThreadDead(-1) || !e.ThreadDead(999) {
			t.Error("unknown IDs reported alive")
		}
		if e.ThreadDead(e.Self().ID) {
			t.Error("observer reported itself dead")
		}
	})
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sawAlive || !sawDead {
		t.Errorf("oracle transitions: sawAlive=%v sawDead=%v", sawAlive, sawDead)
	}
}

// Seeded kill plans keep the run deterministic: same seed, same survivors,
// same final memory.
func TestKillPlanDeterministic(t *testing.T) {
	run := func() (Word, uint64, []bool) {
		// The kill rate is deliberately rare (≤16/65536 per memop), so give
		// the plan tens of thousands of opportunities.
		p := New(Config{Quantum: 300, Faults: chaos.NewKillPlan(0xDEAD, 0.9)})
		var w Word
		for i := 0; i < 4; i++ {
			p.Go("worker", func(e *Env) {
				for it := 0; it < 5000; it++ {
					v := e.Load(&w)
					e.Store(&w, v+1)
				}
			})
		}
		if err := p.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var fates []bool
		for _, th := range p.Threads() {
			fates = append(fates, th.killed)
		}
		return w, p.Stats.Kills, fates
	}
	w1, k1, f1 := run()
	w2, k2, f2 := run()
	if w1 != w2 || k1 != k2 {
		t.Fatalf("divergent runs: w=%d/%d kills=%d/%d", w1, w2, k1, k2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("thread %d fate diverged", i)
		}
	}
	if k1 == 0 {
		t.Error("kill plan at level 0.9 never killed")
	}
}
