package core

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/uniproc"
)

// rmeRun drives workers×iters critical sections over a RecoverableMutex
// with an attached checker, under the given fault injector. gocount is the
// Go-side shadow of the shared counter: it is incremented in the same
// no-preemption-point window as the counter's store, so on a correct run
// counter == gocount exactly — even when threads die mid-protocol.
func rmeRun(faults chaos.Injector, workers, iters int) (p *uniproc.Processor, m *RecoverableMutex, counter Word, gocount uint64, err error) {
	p = uniproc.New(uniproc.Config{Quantum: 2000, Faults: faults})
	m = NewRecoverableMutex()
	m.Checker = NewRMEChecker()
	for i := 0; i < workers; i++ {
		p.Go("worker", func(e *uniproc.Env) {
			for it := 0; it < iters; it++ {
				m.Acquire(e)
				v := e.Load(&counter)
				e.ChargeALU(1)
				gocount++
				e.Store(&counter, v+1)
				m.Release(e)
			}
		})
	}
	err = p.Run()
	return p, m, counter, gocount, err
}

func TestRecoverableMutexNoFaults(t *testing.T) {
	_, m, counter, gocount, err := rmeRun(nil, 4, 50)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 200 || gocount != 200 {
		t.Errorf("counter=%d gocount=%d, want 200", counter, gocount)
	}
	c := m.Checker
	if v := c.Violations(); len(v) != 0 {
		t.Errorf("violations on a fault-free run: %v", v)
	}
	if c.entries != 200 || c.Steals() != 0 {
		t.Errorf("entries=%d steals=%d, want 200/0", c.entries, c.Steals())
	}
	if rmOwner(m.word) != -1 {
		t.Errorf("lock left held: %#x", m.word)
	}
}

// A deterministic orphan: the first worker is killed inside its critical
// section; the second must detect the corpse, repair the lock with an
// epoch bump, and finish.
func TestRecoverableMutexRepairsOrphan(t *testing.T) {
	p := uniproc.New(uniproc.Config{
		// Ordinal 20 lands well inside the victim's post-acquire store loop
		// (the uncontended acquire costs 3 memops).
		Faults: chaos.OneShot{Point: chaos.PointMemOp, N: 20, Action: chaos.Action{Kill: true}},
	})
	m := NewRecoverableMutex()
	m.Checker = NewRMEChecker()
	var scratch, counter Word
	victim := p.Go("victim", func(e *uniproc.Env) {
		m.Acquire(e)
		for i := 0; i < 100; i++ {
			e.Store(&scratch, Word(i))
		}
		m.Release(e) // never reached
	})
	p.Go("heir", func(e *uniproc.Env) {
		m.Acquire(e)
		v := e.Load(&counter)
		e.Store(&counter, v+1)
		m.Release(e)
	})
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !victim.Done() || p.Stats.Kills != 1 {
		t.Fatal("victim survived")
	}
	c := m.Checker
	if c.Steals() != 1 || p.Stats.Repairs != 1 {
		t.Errorf("steals=%d repairs=%d, want 1/1", c.Steals(), p.Stats.Repairs)
	}
	if len(c.Violations()) != 0 {
		t.Errorf("violations: %v", c.Violations())
	}
	if counter != 1 {
		t.Errorf("heir's critical section lost: counter=%d", counter)
	}
	if rmEpoch(m.word) != 1 {
		t.Errorf("repair did not bump the epoch: %#x", m.word)
	}
	if rmOwner(m.word) != -1 {
		t.Errorf("lock left held: %#x", m.word)
	}
}

func TestRecoverableMutexRecursiveAcquirePanics(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	m := NewRecoverableMutex()
	p.Go("buggy", func(e *uniproc.Env) {
		m.Acquire(e)
		m.Acquire(e)
	})
	if err := p.Run(); !errors.Is(err, uniproc.ErrGuestPanic) {
		t.Fatalf("Run = %v, want ErrGuestPanic", err)
	}
}

// The checker itself: a live-owner double acquire and a wrong-thread
// release must both be recorded (never panicked).
func TestRMECheckerFlagsViolations(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	c := NewRMEChecker()
	p.Go("a", func(e *uniproc.Env) {
		c.acquired(e, -1)
		e.Yield()
		c.released(e) // by now b "acquired": wrong-owner release
	})
	p.Go("b", func(e *uniproc.Env) {
		c.acquired(e, -1) // a is alive and "holds" the lock
	})
	if err := p.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(c.Violations()) < 2 {
		t.Fatalf("violations = %v, want both the ME breach and the bad release", c.Violations())
	}
}

// The tentpole sweep, runtime-substrate half: hundreds of seeded kill
// schedules (1–3 kills each), every one of which must preserve mutual
// exclusion, the exact counter invariant, and progress for the survivors.
// The full ≥1000-schedule sweep runs in internal/bench's recovery table;
// this is the fast in-package version.
func TestRecoverableMutexKillSweep(t *testing.T) {
	const schedules = 300
	// Reference run to learn the memop span a kill ordinal may land in.
	ref, _, _, _, err := rmeRun(nil, 4, 25)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	span := ref.MemOps()
	if span == 0 {
		t.Fatal("reference run had no memops")
	}
	var totalKills, totalSteals uint64
	for s := 0; s < schedules; s++ {
		nKills := 1 + s%3
		injs := make([]chaos.Injector, 0, nKills)
		for k := 0; k < nKills; k++ {
			n := chaos.DeriveOrdinal(span, 0x524D45, uint64(s), uint64(k))
			injs = append(injs, chaos.OneShot{Point: chaos.PointMemOp, N: n, Action: chaos.Action{Kill: true}})
		}
		p, m, counter, gocount, err := rmeRun(chaos.Compose(injs...), 4, 25)
		if err != nil {
			t.Fatalf("schedule %d: Run: %v", s, err)
		}
		if v := m.Checker.Violations(); len(v) != 0 {
			t.Fatalf("schedule %d: violations: %v", s, v)
		}
		if uint64(counter) != gocount {
			t.Fatalf("schedule %d: counter=%d gocount=%d", s, counter, gocount)
		}
		for _, th := range p.Threads() {
			if !th.Done() {
				t.Fatalf("schedule %d: %v stuck", s, th)
			}
		}
		totalKills += p.Stats.Kills
		totalSteals += m.Checker.Steals()
	}
	if totalKills == 0 {
		t.Error("sweep never killed a thread")
	}
	if totalSteals == 0 {
		t.Error("sweep never exercised the repair path")
	}
	t.Logf("sweep: %d schedules, %d kills, %d repairs", schedules, totalKills, totalSteals)
}
