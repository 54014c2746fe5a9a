package kernel

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
)

func testLives(runs *int) Lives {
	return Lives{Prog: guest.Assemble(guest.PersistentCounterProgram(2, 5)), StackTop: guest.StackTop(0),
		Config: PersistConfig(0), Runner: func(k *Kernel) error {
			*runs++
			return k.Run()
		}}
}

func TestLivesColdBootLoadsImage(t *testing.T) {
	var runs int
	l := testLives(&runs)
	if l.Memory() != nil {
		t.Fatal("memory exists before the first boot")
	}
	k := l.Boot(nil)
	mem := l.Memory()
	if mem == nil || !mem.Persistent() || k.M.Mem != mem {
		t.Fatalf("cold boot: memory %p (persistent %v), kernel's %p", mem, mem != nil && mem.Persistent(), k.M.Mem)
	}
	for i, w := range l.Prog.Text {
		if got := mem.Peek(l.Prog.TextBase + uint32(4*i)); got != w {
			t.Fatalf("text word %d = %#x, want %#x", i, got, w)
		}
	}
	for i, w := range l.Prog.Data {
		if got := mem.Peek(l.Prog.DataBase + uint32(4*i)); got != w {
			t.Fatalf("data word %d = %#x, want %#x", i, got, w)
		}
	}
	if n := len(k.Threads()); n != 1 {
		t.Errorf("cold boot spawned %d threads, want main alone", n)
	}
}

func TestLivesWarmBootKeepsNVM(t *testing.T) {
	var runs int
	l := testLives(&runs)
	l.Boot(nil)
	mem := l.Memory()
	counter := l.Prog.MustSymbol("counter")
	const marker = isa.Word(0xBEEF)
	mem.Poke(counter, marker)
	mem.Crash(chaos.CrashVolatile, 0) // only what is durable survives
	k := l.Boot(nil)
	if l.Memory() != mem || k.M.Mem != mem {
		t.Fatal("warm boot changed the machine's memory")
	}
	if got := mem.Peek(counter); got != marker {
		t.Errorf("counter after warm boot = %#x, want %#x (the image was reloaded)", got, marker)
	}
	if err := l.Run(k); err != nil {
		t.Fatal(err)
	}
	if got, want := mem.Peek(counter), marker+10; got != want {
		t.Errorf("counter after the warm life = %d, want %d", got, want)
	}
	if runs != 1 {
		t.Errorf("runner ran %d lives, want 1", runs)
	}
}

func TestLivesCalibrateLeavesMachineUntouched(t *testing.T) {
	var runs int
	clean := testLives(&runs)
	k := clean.Boot(nil)
	if err := clean.Run(k); err != nil {
		t.Fatal(err)
	}

	l := testLives(&runs)
	span, err := l.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if span != k.Steps() {
		t.Errorf("calibrated span %d, want a clean life's %d steps", span, k.Steps())
	}
	if l.Memory() != nil {
		t.Error("calibration powered the machine on")
	}

	l.Boot(nil)
	before := l.Memory().Digest()
	if _, err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if l.Memory().Digest() != before {
		t.Error("calibration wrote to the machine's memory")
	}
	if runs != 3 {
		t.Errorf("runner ran %d times, want 3 (one life, two calibrations)", runs)
	}
}
