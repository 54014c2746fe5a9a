package bench

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/vmach/kernel"
)

// A kernel crashed and restored from its checkpoint must add up to the
// straight run: the restored run counts only the work after the cut.
func TestHarnessCountsRestoredRunOnce(t *testing.T) {
	prog := guest.Assemble(guest.MutexCounterProgram(guest.MechRegistered, 2, 40))
	boot := func(faults chaos.Injector) *kernel.Kernel {
		return kernel.Boot(kernel.Config{Strategy: &kernel.Registration{}, Quantum: 250, Faults: faults},
			prog, "main", guest.StackTop(0), true)
	}
	var straight Harness
	if err := straight.Run(boot(nil)); err != nil {
		t.Fatal(err)
	}

	var capture obs.Capture
	split := Harness{Trace: obs.NewRebase(&capture)}
	k := boot(chaos.OneShot{Point: chaos.PointStep, N: 300, Action: chaos.Action{Crash: true}})
	if err := split.Run(k); !errors.Is(err, kernel.ErrMachineCrash) {
		t.Fatalf("crash run = %v, want ErrMachineCrash", err)
	}
	k2, err := kernel.Restore(kernel.Config{Strategy: &kernel.Registration{}, Quantum: 250}, k.Capture())
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Run(k2); err != nil {
		t.Fatal(err)
	}

	want := straight.Stats
	want.Runs = 2
	if split.Stats != want {
		t.Errorf("crash + restore counted %+v, want the straight run's %+v over 2 runs", split.Stats, straight.Stats)
	}
	if _, err := obs.ValidateChrome(obs.ChromeTraceDoc(capture.Events())); err != nil {
		t.Errorf("crash + restore trace invalid: %v", err)
	}
}
