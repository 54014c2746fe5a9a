package kernel

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/obs"
)

func TestRingTracerRetention(t *testing.T) {
	r := obs.NewRing(3)
	for i := 0; i < 5; i++ {
		r.Event(obs.Event{Cycle: uint64(i), Type: obs.KindDispatch})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Cycle != uint64(i+2) {
			t.Errorf("event %d cycle = %d, want %d", i, ev.Cycle, i+2)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	if obs.NewRing(0) == nil {
		t.Error("zero-capacity tracer nil")
	}
}

func TestTraceEventStrings(t *testing.T) {
	types := []obs.Kind{obs.KindDispatch, obs.KindPreempt, obs.KindRestart,
		obs.KindSyscall, obs.KindPageFault, obs.KindExit, obs.KindFault}
	for _, ty := range types {
		if ty.String() == "?" {
			t.Errorf("type %d has no name", ty)
		}
		ev := obs.Event{Cycle: 100, Type: ty, Thread: 1, PC: 0x1000, Arg: 7}
		if !strings.Contains(ev.String(), ty.String()) {
			t.Errorf("event string %q missing type", ev.String())
		}
	}
	if obs.Kind(99).String() != "?" {
		t.Error("unknown type should stringify to ?")
	}
}

func TestKernelEmitsTraceEvents(t *testing.T) {
	src := guest.MutexCounterProgram(guest.MechRegistered, 2, 60)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	k := New(Config{Strategy: &Registration{}, Quantum: 53})
	tr := obs.NewRing(4096)
	k.Tracer = tr
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		counts[ev.Type]++
	}
	for _, want := range []obs.Kind{obs.KindDispatch, obs.KindPreempt, obs.KindRestart, obs.KindSyscall, obs.KindExit} {
		if counts[want] == 0 {
			t.Errorf("no %v events traced (have %v)", want, counts)
		}
	}
	if uint64(counts[obs.KindRestart]) != k.Stats.Restarts {
		t.Errorf("traced %d restarts, stats say %d", counts[obs.KindRestart], k.Stats.Restarts)
	}
	if uint64(counts[obs.KindPreempt]) != k.Stats.Preemptions {
		t.Errorf("traced %d preemptions, stats say %d", counts[obs.KindPreempt], k.Stats.Preemptions)
	}
	// Restart events must carry the rolled-back-from PC inside the
	// registered range.
	begin := prog.MustSymbol("ras_begin")
	for _, ev := range tr.Events() {
		if ev.Type != obs.KindRestart {
			continue
		}
		if ev.PC != begin {
			t.Errorf("restart landed at %#x, want %#x", ev.PC, begin)
		}
		if uint32(ev.Arg) <= begin || uint32(ev.Arg) >= begin+12 {
			t.Errorf("restart rolled back from %#x, outside the sequence", ev.Arg)
		}
	}
	if tr.String() == "" {
		t.Error("empty trace rendering")
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	k, _ := boot(t, Config{}, "main:\n\tli v0, 0\n\tmove a0, zero\n\tsyscall\n")
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// No tracer: nothing to assert beyond "did not crash"; the nil check
	// in trace() is the code under test.
}

func TestTracePageFaultEvents(t *testing.T) {
	k, prog := boot(t, Config{}, "main:\n\tli v0, 0\n\tmove a0, zero\n\tsyscall\n")
	tr := obs.NewRing(64)
	k.Tracer = tr
	k.M.Mem.SetPresent(prog.TextBase, false)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Type == obs.KindPageFault {
			found = true
		}
	}
	if !found {
		t.Error("no pagefault event traced")
	}
}
