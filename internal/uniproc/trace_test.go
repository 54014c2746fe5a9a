package uniproc

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRuntimeTraceEvents(t *testing.T) {
	p := New(Config{Quantum: 37})
	tr := obs.NewRing(8192)
	p.Tracer = tr
	var lock Word
	var waiter *Thread
	p.Go("w", func(e *Env) {
		waiter = e.Self()
		e.Yield()
		e.Block()
	})
	p.Go("main", func(e *Env) {
		for i := 0; i < 200; i++ {
			for rasTAS(e, &lock) != 0 {
				e.Yield()
			}
			e.Store(&lock, 0)
		}
		e.Trap(100, nil)
		e.Fork("child", func(e *Env) {})
		e.Unblock(waiter)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		counts[ev.Type]++
	}
	for _, want := range []obs.Kind{obs.KindDispatch, obs.KindPreempt, obs.KindRestart,
		obs.KindYield, obs.KindBlock, obs.KindUnblock, obs.KindTrap, obs.KindFork, obs.KindExit} {
		if counts[want] == 0 {
			t.Errorf("no %v events (have %v)", want, counts)
		}
	}
	if uint64(counts[obs.KindRestart]) != p.Stats.Restarts {
		t.Errorf("traced %d restarts, stats %d", counts[obs.KindRestart], p.Stats.Restarts)
	}
	if tr.String() == "" || tr.Total() == 0 {
		t.Error("empty trace")
	}
}

func TestRuntimeTraceStrings(t *testing.T) {
	for ty := obs.KindDispatch; ty <= obs.KindExit; ty++ {
		if ty.String() == "?" {
			t.Errorf("type %d unnamed", ty)
		}
	}
	if obs.Kind(99).String() != "?" {
		t.Error("unknown type should be ?")
	}
	ev := obs.Event{Cycle: 5, Type: obs.KindFork, Thread: 0, Arg: 3}
	if !strings.Contains(ev.String(), "-> t3") {
		t.Errorf("fork event string %q", ev.String())
	}
}

func TestRuntimeRingRetention(t *testing.T) {
	r := obs.NewRing(2)
	for i := 0; i < 5; i++ {
		r.Event(obs.Event{Cycle: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 3 || evs[1].Cycle != 4 {
		t.Errorf("events = %v", evs)
	}
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	if obs.NewRing(-1) == nil {
		t.Error("negative capacity tracer nil")
	}
}

func TestTracingDisabledIsFree(t *testing.T) {
	p := New(Config{})
	p.Go("main", func(e *Env) { e.ChargeALU(10) })
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}
