package kernel

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
)

// bootCounter assembles the mutual-exclusion counter workload for a
// mechanism and returns the kernel plus the counter's expected final value.
func bootCounter(t *testing.T, cfg Config, m guest.Mechanism, workers, iters int) (*Kernel, uint32, uint32) {
	t.Helper()
	k, prog := boot(t, cfg, guest.MutexCounterProgram(m, workers, iters))
	return k, prog.MustSymbol("counter"), uint32(workers * iters)
}

// Mutual exclusion must hold under every seeded fault schedule: forced
// preemptions, spurious suspensions, page evictions and timeslice jitter
// are all involuntary suspensions the recovery machinery must survive.
func TestChaosMutualExclusionDesignated(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0xDECAF, 0x9E3779B9} {
		for _, level := range []float64{0.25, 1} {
			k, counterAddr, want := bootCounter(t, Config{
				Strategy: &Designated{},
				CheckAt:  CheckAtResume,
				Quantum:  900,
				Faults:   chaos.NewPlan(seed, level),
				Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
			}, guest.MechDesignated, 3, 120)
			if err := k.Run(); err != nil {
				t.Fatalf("seed %#x level %g: %v", seed, level, err)
			}
			if got := k.M.Mem.Peek(counterAddr); got != want {
				t.Errorf("seed %#x level %g: counter %d want %d (mutual exclusion violated)",
					seed, level, got, want)
			}
			if level == 1 && k.Stats.Injected == 0 {
				t.Errorf("seed %#x: level-1 plan injected nothing", seed)
			}
		}
	}
}

func TestChaosMutualExclusionRegistered(t *testing.T) {
	for _, seed := range []uint64{3, 0xFACE} {
		k, counterAddr, want := bootCounter(t, Config{
			Strategy: &Registration{},
			CheckAt:  CheckAtSuspend,
			Quantum:  700,
			Faults:   chaos.NewPlan(seed, 1),
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
		}, guest.MechRegistered, 3, 120)
		if err := k.Run(); err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if got := k.M.Mem.Peek(counterAddr); got != want {
			t.Errorf("seed %#x: counter %d want %d", seed, got, want)
		}
	}
}

// Spurious suspensions and evictions must be observable in the stats so
// sweeps can verify a plan actually exercised its schedule.
func TestChaosInjectionCounters(t *testing.T) {
	k, counterAddr, want := bootCounter(t, Config{
		Strategy: &Designated{},
		CheckAt:  CheckAtResume,
		Quantum:  1200,
		Faults:   chaos.NewPlan(7, 1),
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
	}, guest.MechDesignated, 2, 300)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.M.Mem.Peek(counterAddr); got != want {
		t.Fatalf("counter %d want %d", got, want)
	}
	if k.Stats.Injected == 0 {
		t.Error("no chaos actions recorded")
	}
	if k.Stats.Spurious == 0 {
		t.Error("no spurious suspensions recorded at level 1")
	}
	if k.Stats.PageFaults == 0 {
		t.Error("eviction schedule produced no page faults")
	}
}

// §3.1 hazard: a designated sequence costs 6 cycles (lw+ori+bne+landmark
// cost 1 each, sw costs 2 on the R3000), so any quantum of 4 cycles or less
// preempts every attempt inside the sequence and the thread restarts
// forever. The abort policy must detect this and name the sequence.
func TestWatchdogAbortOnOverlongSequence(t *testing.T) {
	k, _, _ := bootCounter(t, Config{
		Strategy: &Designated{},
		CheckAt:  CheckAtResume,
		Quantum:  3,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: 40},
	}, guest.MechDesignated, 1, 1)
	err := k.Run()
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("expected livelock abort, got %v", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("error is not a *LivelockError: %v", err)
	}
	if le.Restarts != 40 {
		t.Errorf("watchdog fired after %d restarts, configured 40", le.Restarts)
	}
	if le.SeqPC == 0 {
		t.Error("diagnostic does not name the sequence start")
	}
	if k.Stats.WatchdogAborts != 1 {
		t.Errorf("WatchdogAborts = %d", k.Stats.WatchdogAborts)
	}
}

// A watchdog abort stops its thread without recording a fault. A capture
// taken after the abort restores without the livelock, so the run ends
// by reporting the thread as faulted with no fault, as it does for any
// negative fault kind an edited checkpoint carries; a re-capture records
// that kind as -1.
func TestRestoreAfterWatchdogAbort(t *testing.T) {
	cfg := func() Config {
		return Config{
			Strategy: &Designated{},
			CheckAt:  CheckAtResume,
			Quantum:  3,
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: 40},
		}
	}
	k, _, _ := bootCounter(t, cfg(), guest.MechDesignated, 1, 1)
	var le *LivelockError
	if err := k.Run(); !errors.As(err, &le) {
		t.Fatalf("expected livelock abort, got %v", err)
	}
	for _, kind := range []int32{-1, -5} {
		s := k.Capture()
		s.CurID = -1 // the aborted thread stays current; a restore would run it
		s.Threads[le.Thread].FaultKind = kind
		r, err := Restore(cfg(), s)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		want := fmt.Sprintf("thread %d faulted: <nil>", le.Thread)
		if err := r.Run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("kind %d: run error = %v, want one containing %q", kind, err, want)
		}
		if got := r.Capture().Threads[le.Thread].FaultKind; got != -1 {
			t.Errorf("kind %d: re-captured fault kind %d, want -1", kind, got)
		}
	}
}

// The extend policy grants one 4x slice: 4*3 = 12 cycles fits the 6-cycle
// sequence, so the same workload completes — and keeps completing, because
// the extension is re-armed by every suspension that shows progress.
func TestWatchdogExtendCompletesOverlongSequence(t *testing.T) {
	k, counterAddr, want := bootCounter(t, Config{
		Strategy: &Designated{},
		CheckAt:  CheckAtResume,
		Quantum:  3,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend, MaxRestarts: 12},
	}, guest.MechDesignated, 1, 5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.M.Mem.Peek(counterAddr); got != want {
		t.Errorf("counter %d want %d", got, want)
	}
	if k.Stats.WatchdogExtends == 0 {
		t.Error("no extensions granted despite overlong sequence")
	}
	if k.Stats.WatchdogAborts != 0 {
		t.Errorf("extend policy aborted: %d", k.Stats.WatchdogAborts)
	}
}

// If even the extended slice cannot fit the sequence, extend escalates to
// an abort rather than livelocking silently.
func TestWatchdogExtendEscalatesToAbort(t *testing.T) {
	k, _, _ := bootCounter(t, Config{
		Strategy: &Designated{},
		CheckAt:  CheckAtResume,
		Quantum:  1,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend, MaxRestarts: 10, ExtendFactor: 2},
	}, guest.MechDesignated, 1, 1)
	err := k.Run()
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("expected escalation to livelock abort, got %v", err)
	}
	if k.Stats.WatchdogExtends == 0 {
		t.Error("escalation skipped the extension attempt")
	}
}

// Property (§3.1, both strategies): for arbitrary seeds, a sequence longer
// than the quantum is detected by the watchdog within the configured number
// of restarts — the run ends in a LivelockError, never in a silent spin.
func TestQuickWatchdogCatchesOverlongSequences(t *testing.T) {
	f := func(seed uint64, useRegistration bool) bool {
		var strat Strategy
		var at CheckTime
		var mech guest.Mechanism
		var quantum uint64
		if useRegistration {
			// Registered sequence costs 4 cycles: quantum 1-2 livelocks.
			strat, at, mech = &Registration{}, CheckAtSuspend, guest.MechRegistered
			quantum = 1 + chaos.Derive(seed, 1)%2
		} else {
			// Designated sequence costs 6 cycles: quantum 1-4 livelocks.
			strat, at, mech = &Designated{}, CheckAtResume, guest.MechDesignated
			quantum = 1 + chaos.Derive(seed, 2)%4
		}
		limit := 5 + chaos.Derive(seed, 3)%60
		// No fault plan here: timeslice jitter could extend a slice past the
		// sequence length and rescue the livelock the property asserts.
		prog := guest.Assemble(guest.MutexCounterProgram(mech, 1, 1))
		k := New(Config{
			Strategy:  strat,
			CheckAt:   at,
			Quantum:   quantum,
			MaxCycles: 10_000_000,
			Watchdog:  chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: limit},
		})
		k.Load(prog)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
		err := k.Run()
		var le *LivelockError
		if !errors.As(err, &le) {
			t.Logf("seed %#x quantum %d: got %v", seed, quantum, err)
			return false
		}
		// Detected within the budget: the livelocked thread restarted at
		// most `limit` times consecutively.
		return le.Restarts <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A chaos plan at level 0 must leave a run bit-for-bit identical to an
// uninjected one: same cycle count, same stats.
func TestChaosLevelZeroIsIdentity(t *testing.T) {
	run := func(inject bool) *Kernel {
		cfg := Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 500}
		if inject {
			cfg.Faults = chaos.NewPlan(123, 0)
		}
		k, _, _ := bootCounter(t, cfg, guest.MechDesignated, 2, 50)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k
	}
	plain, zero := run(false), run(true)
	if plain.M.Stats.Cycles != zero.M.Stats.Cycles {
		t.Errorf("level-0 plan changed timing: %d vs %d cycles",
			plain.M.Stats.Cycles, zero.M.Stats.Cycles)
	}
	if plain.Stats != zero.Stats {
		t.Errorf("level-0 plan changed stats:\n%+v\n%+v", plain.Stats, zero.Stats)
	}
}

// The same seed must reproduce the same run exactly — the property the
// one-line seed reproducer relies on.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() (uint64, Stats) {
		k, _, _ := bootCounter(t, Config{
			Strategy: &Designated{},
			CheckAt:  CheckAtResume,
			Quantum:  800,
			Faults:   chaos.NewPlan(0xABCD, 0.8),
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
		}, guest.MechDesignated, 3, 100)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.M.Stats.Cycles, k.Stats
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("replay diverged: %d/%+v vs %d/%+v", c1, s1, c2, s2)
	}
}

// injectLog is a tracer keeping only fault-injection events.
type injectLog []obs.Event

func (l *injectLog) Event(ev obs.Event) {
	if ev.Type == obs.KindInject {
		*l = append(*l, ev)
	}
}

// A Next hint only saves work: a kill plan consulted through its hints
// and the same plan consulted at every ordinal give the same run, fault
// for fault.
func TestChaosHintChangesNoRun(t *testing.T) {
	type result struct {
		Err     string
		Stats   Stats
		MStats  vmach.Stats
		Steps   uint64
		Counter isa.Word
		Injects injectLog
	}
	run := func(faults chaos.Injector) result {
		k, counterAddr, _ := bootCounter(t, Config{
			Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300,
			Faults: faults, MaxCycles: 5_000_000,
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
		}, guest.MechDesignated, 4, 300)
		var r result
		k.Tracer = &r.Injects
		if err := k.Run(); err != nil {
			r.Err = err.Error()
		}
		r.Stats, r.MStats, r.Steps = k.Stats, k.M.Stats, k.Steps()
		r.Counter = k.M.Mem.Peek(counterAddr)
		return r
	}
	for _, seed := range []uint64{1, 0xC0FFEE} {
		hinted := run(chaos.NewKillPlan(seed, 1))
		every := run(injectorFunc(chaos.NewKillPlan(seed, 1).At))
		if hinted.Stats.Kills == 0 || len(hinted.Injects) == 0 {
			t.Fatalf("seed %#x: the plan killed %d threads in %d injections; the test needs both",
				seed, hinted.Stats.Kills, len(hinted.Injects))
		}
		if !reflect.DeepEqual(hinted, every) {
			t.Errorf("seed %#x: hinted run differs from the every-ordinal run:\n%+v\n%+v",
				seed, hinted, every)
		}
	}
}
