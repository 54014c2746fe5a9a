package uniproc

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// The RAS test-and-set costs 4 cycles (load 1, ALU 1, committing store 2)
// on the R3000 profile, so a quantum of 2 or less preempts every attempt
// inside the sequence — the uniproc half of the §3.1 hazard — while a
// quantum of 3 or more lets Commit end the sequence before the slice check.

// Mutual exclusion must hold under every seeded fault schedule on this
// layer too: injected preemptions and spurious suspensions at Load/Store
// boundaries are involuntary suspensions the rollback path must survive.
func TestChaosMutualExclusion(t *testing.T) {
	for _, seed := range []uint64{1, 0xC0FFEE, 0x9E3779B9} {
		for _, level := range []float64{0.25, 1} {
			got, p, err := counterWorkload(Config{
				Quantum:  200,
				Faults:   chaos.NewPlan(seed, level),
				Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
			}, rasTAS, 4, 150)
			if err != nil {
				t.Fatalf("seed %#x level %g: %v", seed, level, err)
			}
			if got != 4*150 {
				t.Errorf("seed %#x level %g: counter %d want %d (mutual exclusion violated)",
					seed, level, got, 4*150)
			}
			if level == 1 {
				if p.Stats.Injected == 0 {
					t.Errorf("seed %#x: level-1 plan injected nothing", seed)
				}
				if p.Stats.Spurious == 0 {
					t.Errorf("seed %#x: no spurious suspensions at level 1", seed)
				}
			}
		}
	}
}

// The same seed must replay the same run exactly.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() (Word, uint64, Stats) {
		got, p, err := counterWorkload(Config{
			Quantum:  150,
			Faults:   chaos.NewPlan(0xABCD, 0.8),
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend},
		}, rasTAS, 3, 120)
		if err != nil {
			t.Fatal(err)
		}
		return got, p.Clock(), p.Stats
	}
	g1, c1, s1 := run()
	g2, c2, s2 := run()
	if g1 != g2 || c1 != c2 || s1 != s2 {
		t.Errorf("replay diverged: (%d,%d,%+v) vs (%d,%d,%+v)", g1, c1, s1, g2, c2, s2)
	}
}

// A level-0 plan must be indistinguishable from no plan at all.
func TestChaosLevelZeroIsIdentity(t *testing.T) {
	run := func(inject bool) (Word, uint64, Stats) {
		cfg := Config{Quantum: 150}
		if inject {
			cfg.Faults = chaos.NewPlan(77, 0)
		}
		got, p, err := counterWorkload(cfg, rasTAS, 3, 100)
		if err != nil {
			t.Fatal(err)
		}
		return got, p.Clock(), p.Stats
	}
	g1, c1, s1 := run(false)
	g2, c2, s2 := run(true)
	if g1 != g2 || c1 != c2 || s1 != s2 {
		t.Errorf("level-0 plan changed the run: (%d,%d,%+v) vs (%d,%d,%+v)",
			g1, c1, s1, g2, c2, s2)
	}
}

// Abort policy: a 4-cycle sequence under a 2-cycle quantum restarts
// forever; the watchdog must surface a LivelockError from Run, wrapped so
// errors.Is works, never a hang or a swallowed error.
func TestWatchdogAbortLivelock(t *testing.T) {
	_, p, err := counterWorkload(Config{
		Quantum:  2,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: 25},
	}, rasTAS, 1, 1)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("expected livelock, got %v", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("error is not *LivelockError: %v", err)
	}
	if le.Restarts != 25 {
		t.Errorf("aborted after %d restarts, configured 25", le.Restarts)
	}
	if le.Name != "worker" {
		t.Errorf("diagnostic names %q, want the livelocked thread", le.Name)
	}
	if p.Stats.WatchdogAborts != 1 {
		t.Errorf("WatchdogAborts = %d", p.Stats.WatchdogAborts)
	}
}

// The abort must also unwind cleanly with other threads still running.
func TestWatchdogAbortUnwindsAllThreads(t *testing.T) {
	_, p, err := counterWorkload(Config{
		Quantum:  2,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: 10},
	}, rasTAS, 4, 50)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("expected livelock, got %v", err)
	}
	for _, th := range p.Threads() {
		if !th.done {
			t.Errorf("%v not unwound after abort", th)
		}
	}
}

// Extend policy: one 4x extension (2*4 = 8 cycles) fits the 4-cycle
// sequence, so the same workload completes exactly.
func TestWatchdogExtendCompletes(t *testing.T) {
	got, p, err := counterWorkload(Config{
		Quantum:  2,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend, MaxRestarts: 8},
	}, rasTAS, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*40 {
		t.Errorf("counter %d want %d", got, 2*40)
	}
	if p.Stats.WatchdogExtends == 0 {
		t.Error("no extensions granted despite overlong sequence")
	}
	if p.Stats.WatchdogAborts != 0 {
		t.Errorf("extend policy aborted: %d", p.Stats.WatchdogAborts)
	}
}

// If the extended slice still cannot fit the sequence, extend escalates to
// an abort rather than spinning to the cycle budget: the sequence below is
// longer than ExtendFactor one-cycle quanta.
func TestWatchdogExtendEscalatesToAbort(t *testing.T) {
	longTAS := func(e *Env, w *Word) Word {
		var old Word
		e.Restartable(func() {
			old = e.Load(w)
			e.ChargeALU(2 * chaos.ExtendFactor)
			e.Commit(w, 1)
		})
		return old
	}
	_, p, err := counterWorkload(Config{
		Quantum:  1,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend, MaxRestarts: 6},
	}, longTAS, 1, 1)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("expected escalation to abort, got %v", err)
	}
	if p.Stats.WatchdogExtends == 0 {
		t.Error("escalation skipped the extension attempt")
	}
}

// §3.1 property, uniproc half: for arbitrary seeds, a sequence longer than
// the quantum is detected within the configured number of restarts.
func TestQuickWatchdogCatchesOverlongSequences(t *testing.T) {
	f := func(seed uint64) bool {
		quantum := 1 + chaos.Derive(seed, 1)%2 // 1 or 2: both livelock
		limit := 3 + chaos.Derive(seed, 2)%40
		_, _, err := counterWorkload(Config{
			Quantum:  quantum,
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: limit},
		}, rasTAS, 1, 1)
		var le *LivelockError
		if !errors.As(err, &le) {
			t.Logf("seed %#x quantum %d: got %v", seed, quantum, err)
			return false
		}
		return le.Restarts <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Error-path audit: a guest panic surfaces from Run as a wrapped
// ErrGuestPanic carrying the panic value — never a naked panic, never nil.
func TestGuestPanicIsWrapped(t *testing.T) {
	p := New(Config{})
	p.Go("bad", func(e *Env) {
		e.ChargeALU(1)
		panic("boom")
	})
	err := p.Run()
	if !errors.Is(err, ErrGuestPanic) {
		t.Fatalf("errors.Is(err, ErrGuestPanic) false: %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic value lost: %v", err)
	}
}

// The first error wins: a panic during abort-unwinding of the remaining
// threads must not replace the original livelock diagnostic.
func TestFirstErrorIsKept(t *testing.T) {
	p := New(Config{
		Quantum:  2,
		Watchdog: chaos.Watchdog{Policy: chaos.WatchdogAbort, MaxRestarts: 5},
	})
	var lock Word
	p.Go("livelocked", func(e *Env) { rasTAS(e, &lock) })
	p.Go("fragile", func(e *Env) {
		defer func() {
			if r := recover(); r != nil {
				panic(r) // re-panic during unwind
			}
		}()
		for {
			e.ChargeALU(1)
		}
	})
	err := p.Run()
	if !errors.Is(err, ErrLivelock) {
		t.Errorf("livelock diagnostic lost, got: %v", err)
	}
}

// TryRestartable abandons a hopeless sequence after its bound — with no
// visible effect, because only Commit publishes — and succeeds normally
// when the quantum fits.
func TestTryRestartableGivesUpWithoutSideEffects(t *testing.T) {
	p := New(Config{Quantum: 2})
	var w Word
	var ok bool
	attempts := 0
	p.Go("main", func(e *Env) {
		ok = e.TryRestartable(7, func() {
			attempts++
			e.Load(&w)
			e.ChargeALU(1)
			e.Commit(&w, 1)
		})
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("TryRestartable reported success under a livelocking quantum")
	}
	if attempts != 7 {
		t.Errorf("made %d attempts, bound was 7", attempts)
	}
	if w != 0 {
		t.Errorf("abandoned sequence left a visible write: %d", w)
	}
	if !p.Threads()[0].done {
		t.Error("thread did not run to completion after giving up")
	}
}

func TestTryRestartableSucceedsWhenQuantumFits(t *testing.T) {
	p := New(Config{Quantum: 1000})
	var w Word
	var ok bool
	p.Go("main", func(e *Env) {
		ok = e.TryRestartable(1, func() {
			e.Load(&w)
			e.Commit(&w, 9)
		})
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || w != 9 {
		t.Errorf("ok=%v w=%d", ok, w)
	}
}

// Demotion counter and trace plumbing.
func TestCountDemotion(t *testing.T) {
	p := New(Config{})
	tr := obs.NewRing(16)
	p.Tracer = tr
	p.Go("main", func(e *Env) { e.CountDemotion() })
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Demotions != 1 {
		t.Errorf("Demotions = %d", p.Stats.Demotions)
	}
	if !strings.Contains(tr.String(), "demote") {
		t.Errorf("no demote event in trace:\n%s", tr.String())
	}
}

// everyOrdinal consults its injector at every ordinal: the reference run
// a Next hint must not change.
type everyOrdinal struct{ chaos.Injector }

func (everyOrdinal) Next(_ chaos.Point, n uint64) uint64 { return n }

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
		MemOps  uint64
		Counter Word
		Injects injectLog
	}
	run := func(faults chaos.Injector) result {
		p := New(Config{Quantum: 200, Faults: faults, MaxCycles: 3_000_000,
			Watchdog: chaos.Watchdog{Policy: chaos.WatchdogExtend}})
		var r result
		p.Tracer = &r.Injects
		counter, err := counterOn(p, rasTAS, 4, 1000)
		if err != nil {
			r.Err = err.Error()
		}
		r.Stats, r.MemOps, r.Counter = p.Stats, p.MemOps(), counter
		return r
	}
	for _, seed := range []uint64{1, 0xC0FFEE} {
		hinted := run(chaos.NewKillPlan(seed, 1))
		every := run(everyOrdinal{chaos.NewKillPlan(seed, 1)})
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
