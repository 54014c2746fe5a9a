package kernel

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmach"
)

// runResult is everything a run leaves behind that Run's quiet batches
// and a StepOne loop must agree on.
type runResult struct {
	Err     string
	Stats   Stats
	MStats  vmach.Stats
	Steps   uint64
	Console []isa.Word
	Image   []byte      // Encode(Capture()) at the end of the run
	Events  eventLog    // every kernel trace event
	Stores  []storeSeen // counter stores, as a watcher saw them
}

// eventLog is a tracer keeping every event.
type eventLog []obs.Event

func (l *eventLog) Event(ev obs.Event) { *l = append(*l, ev) }

// storeSeen is one committed counter store with the Steps and CurrentID
// a memory watcher read while it retired.
type storeSeen struct {
	Old, New isa.Word
	Steps    uint64
	Thread   int
}

// observe attaches a tracer and, when prog has a counter, a watcher that
// reads Steps mid-instruction — mid-batch under Run.
func observe(k *Kernel, prog *asm.Program, r *runResult) {
	k.Tracer = &r.Events
	if addr, ok := prog.Symbols["counter"]; ok {
		k.M.Mem.Watch(addr, func(old, new isa.Word) {
			r.Stores = append(r.Stores, storeSeen{old, new, k.Steps(), k.CurrentID()})
		})
	}
}

func (r *runResult) finish(k *Kernel, err error) {
	if err != nil {
		r.Err = err.Error()
	}
	r.Stats, r.MStats, r.Steps, r.Console = k.Stats, k.M.Stats, k.Steps(), k.Console
	r.Image = k.Capture().Encode()
}

// stepped runs k to the end one StepOne at a time.
func stepped(k *Kernel) error {
	for {
		if fin, err := k.StepOne(); fin {
			return err
		}
	}
}

// bootFunc builds a fresh, not yet run kernel; called twice per case, it
// must build the same kernel both times.
type bootFunc func(t testing.TB) (*Kernel, *asm.Program)

// assertRunMatchesStepOne runs one kernel with Run and one with a
// StepOne loop and requires identical results.
func assertRunMatchesStepOne(t testing.TB, build bootFunc) runResult {
	t.Helper()
	var batched, single runResult
	k, prog := build(t)
	observe(k, prog, &batched)
	batched.finish(k, k.Run())
	k, prog = build(t)
	observe(k, prog, &single)
	single.finish(k, stepped(k))
	if !reflect.DeepEqual(batched, single) {
		t.Fatalf("Run differs from a StepOne loop:\n Run:     err=%q stats=%+v\n          mstats=%+v steps=%d events=%d stores=%d\n StepOne: err=%q stats=%+v\n          mstats=%+v steps=%d events=%d stores=%d",
			batched.Err, batched.Stats, batched.MStats, batched.Steps, len(batched.Events), len(batched.Stores),
			single.Err, single.Stats, single.MStats, single.Steps, len(single.Events), len(single.Stores))
	}
	return batched
}

// counterBoot builds the MutexCounterProgram for m under cfg. The
// strategies are stateless, so both kernels may share cfg's.
func counterBoot(cfg Config, m guest.Mechanism, workers, iters int) bootFunc {
	return func(t testing.TB) (*Kernel, *asm.Program) {
		return boot(t, cfg, guest.MutexCounterProgram(m, workers, iters))
	}
}

// persistBoot builds RecoverableCounterProgram on a fresh persistent
// memory, crashing at step n with act.
func persistBoot(n uint64, act chaos.Action) bootFunc {
	return func(t testing.TB) (*Kernel, *asm.Program) {
		return boot(t, persistConfig(persistMem(), chaos.OneShot{Point: chaos.PointStep, N: n, Action: act}),
			guest.RecoverableCounterProgram(2, 50))
	}
}

func plan(seed uint64, level float64) chaos.Injector { return chaos.NewPlan(seed, level) }

var extend = chaos.Watchdog{Policy: chaos.WatchdogExtend}

// runCase is one kernel configuration the batched paths are checked on.
type runCase struct {
	name  string
	build bootFunc
	err   bool // the run must end in an error
}

// runCases covers chaos plans at every intensity on each mechanism, a
// kill plan, the three crash kinds, the i860 lock bit, a write buffer and
// cycle budgets that overrun at many points.
func runCases() []runCase {
	cases := []runCase{
		{"designated/level0", counterBoot(Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300,
			Faults: plan(1, 0), Watchdog: extend}, guest.MechDesignated, 4, 300), false},
		{"designated/level0.25", counterBoot(Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300,
			Faults: plan(2, 0.25), Watchdog: extend}, guest.MechDesignated, 4, 300), false},
		{"registered/level0.25", counterBoot(Config{Strategy: &Registration{}, Quantum: 300,
			Faults: plan(3, 0.25), Watchdog: extend}, guest.MechRegistered, 4, 300), false},
		{"emulated/level0.25", counterBoot(Config{Quantum: 300,
			Faults: plan(4, 0.25), Watchdog: extend}, guest.MechEmul, 4, 300), false},
		{"designated/level1", counterBoot(Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300,
			Faults: plan(5, 1), Watchdog: extend}, guest.MechDesignated, 3, 200), false},
		{"no-injector", counterBoot(Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300},
			guest.MechDesignated, 3, 200), false},
		{"kill-plan", counterBoot(Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300,
			Faults: chaos.NewKillPlan(0xC0FFEE, 1), MaxCycles: 5_000_000, Watchdog: extend},
			guest.MechDesignated, 4, 300), false},
		{"crash/clean", persistBoot(2000, chaos.Action{Crash: chaos.CrashClean}), true},
		{"crash/volatile", persistBoot(2000, chaos.Action{Crash: chaos.CrashVolatile}), true},
		{"crash/torn", persistBoot(2003, chaos.Action{Crash: chaos.CrashTorn}), true},
		{"lockbit", counterBoot(Config{Profile: arch.I860(), Quantum: 53, Faults: plan(6, 0.25)},
			guest.MechLockB, 3, 100), false},
		{"write-buffer", counterBoot(Config{Profile: arch.R3000().WithWriteBuffer(2, 12), Strategy: &Registration{},
			Quantum: 300, Faults: plan(7, 0.25), Watchdog: extend}, guest.MechRegistered, 3, 200), false},
	}
	// The budget is checked before each instruction; budgets spread over
	// many slices let a guest instruction, not only a kernel charge, be
	// the one that overruns.
	for budget := uint64(20_000); budget < 22_000; budget += 97 {
		cases = append(cases, runCase{fmt.Sprintf("budget/%d", budget), counterBoot(Config{Strategy: &Designated{},
			CheckAt: CheckAtResume, Quantum: 300, MaxCycles: budget, Faults: plan(8, 0.25)}, guest.MechDesignated, 4, 300), true})
	}
	return cases
}

// Run passes quiet instructions in batches; nothing a run leaves behind
// may tell it from the StepOne loop it replaces: stats, step ordinals,
// console, checkpoint bytes, error text, trace events and what memory
// watchers saw.
func TestRunMatchesStepOne(t *testing.T) {
	for _, c := range runCases() {
		t.Run(c.name, func(t *testing.T) {
			r := assertRunMatchesStepOne(t, c.build)
			if (r.Err != "") != c.err {
				t.Errorf("run error %q; want an error: %v", r.Err, c.err)
			}
			if len(r.Stores) == 0 {
				t.Error("no counter store observed; the watcher check is vacuous")
			}
		})
	}
}

// cutSize draws cut c's StepUpTo budget from seed: mostly short cuts,
// which land inside quiet windows, some long ones and some unbounded
// ones, which only the kernel's own window ends.
func cutSize(seed uint64, c int) uint64 {
	z := chaos.Derive(seed, uint64(c))
	switch z % 8 {
	case 0:
		return chaos.Never
	case 1, 2:
		return 1 + (z>>8)%5000
	}
	return 1 + (z>>8)%16
}

// assertStepUpToMatchesStepOne drives one kernel by StepUpTo cuts drawn
// from seed and a twin by StepOne calls, in lockstep: after each cut the
// twin takes as many StepOne calls as the cut reported standing for, and
// both must agree on whether the run finished, its error text, the
// kernel and machine stats and the step ordinal (and, every 32nd cut,
// the checkpoint bytes). At the end the two runs must leave the same
// runResult, and the cuts' counts must sum to the StepOne calls.
func assertStepUpToMatchesStepOne(t testing.TB, build bootFunc, seed uint64) runResult {
	t.Helper()
	var batched, single runResult
	kb, prog := build(t)
	observe(kb, prog, &batched)
	ks, prog := build(t)
	observe(ks, prog, &single)
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var sum, calls uint64
	var fin, sfin bool
	var err, serr error
	for cut := 0; !fin; cut++ {
		n := cutSize(seed, cut)
		var got uint64
		got, fin, err = kb.StepUpTo(n)
		if got < 1 || got > n {
			t.Fatalf("cut %d: StepUpTo(%d) stood for %d StepOne calls", cut, n, got)
		}
		sum += got
		for i := uint64(0); i < got; i++ {
			if sfin {
				t.Fatalf("cut %d: StepUpTo(%d) stood for %d StepOne calls, but the StepOne loop finished after %d",
					cut, n, got, i)
			}
			sfin, serr = ks.StepOne()
			calls++
		}
		switch {
		case fin != sfin || errText(err) != errText(serr):
			t.Fatalf("cut %d: StepUpTo = %v, %v; StepOne loop = %v, %v", cut, fin, err, sfin, serr)
		case kb.Stats != ks.Stats || kb.M.Stats != ks.M.Stats || kb.Steps() != ks.Steps():
			t.Fatalf("cut %d (StepUpTo(%d) = %d): StepUpTo run at step %d, stats %+v, %+v;\n StepOne loop at step %d, stats %+v, %+v",
				cut, n, got, kb.Steps(), kb.Stats, kb.M.Stats, ks.Steps(), ks.Stats, ks.M.Stats)
		case cut%32 == 0 && !reflect.DeepEqual(kb.Capture().Encode(), ks.Capture().Encode()):
			t.Fatalf("cut %d: checkpoint differs at step %d", cut, kb.Steps())
		}
	}
	batched.finish(kb, err)
	single.finish(ks, serr)
	if !reflect.DeepEqual(batched, single) {
		t.Fatalf("StepUpTo cuts differ from a StepOne loop: err=%q vs %q, %d vs %d events, %d vs %d stores",
			batched.Err, single.Err, len(batched.Events), len(single.Events), len(batched.Stores), len(single.Stores))
	}
	if sum != calls {
		t.Fatalf("StepUpTo cuts stood for %d StepOne calls; the StepOne loop made %d", sum, calls)
	}
	return batched
}

// StepUpTo(n) is the work of up to n StepOne calls: cut anywhere, it
// leaves exactly the state that many single steps leave, so the model
// checker can batch between its decisions.
func TestStepUpToMatchesStepOne(t *testing.T) {
	for _, c := range runCases() {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				r := assertStepUpToMatchesStepOne(t, c.build, seed)
				if (r.Err != "") != c.err {
					t.Errorf("seed %d: run error %q; want an error: %v", seed, r.Err, c.err)
				}
				if len(r.Stores) == 0 {
					t.Errorf("seed %d: no counter store observed; the watcher check is vacuous", seed)
				}
			}
		})
	}
}

// Every mcheck schedule and crash-restart boot allocates a Kernel, and
// 512 bytes is a malloc size class: a field that pushes the struct past
// it costs every one of those allocations the next class up.
func TestKernelFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Kernel{}); size > 512 {
		t.Errorf("unsafe.Sizeof(Kernel{}) = %d, want <= 512", size)
	}
}

// A crash's verdict reads as it always has and still matches
// ErrMachineCrash.
func TestCrashErrorText(t *testing.T) {
	k, _ := persistBoot(2000, chaos.Action{Crash: chaos.CrashClean})(t)
	err := k.Run()
	if want := "kernel: injected machine crash at step 2000"; err == nil || err.Error() != want {
		t.Errorf("Run = %v, want %q", err, want)
	}
	if !errors.Is(err, ErrMachineCrash) {
		t.Errorf("Run = %v does not match ErrMachineCrash", err)
	}
}

// RunSteps cuts land on the same instruction as single stepping: the
// checkpoint after every cut equals the one a StepOne loop takes there.
func TestRunStepsCutsMatchStepOne(t *testing.T) {
	build := counterBoot(Config{Strategy: &Designated{}, CheckAt: CheckAtResume, Quantum: 300,
		Faults: plan(9, 0.25), Watchdog: extend}, guest.MechDesignated, 3, 100)
	for _, cut := range []uint64{1, 7, 97, 1000} {
		batched, _ := build(t)
		single, _ := build(t)
		for i := 0; ; i++ {
			fin, err := batched.RunSteps(cut)
			target := single.M.Stats.Instructions + cut
			var sfin bool
			var serr error
			for !sfin && single.M.Stats.Instructions < target {
				sfin, serr = single.StepOne()
			}
			if fin != sfin || (err == nil) != (serr == nil) {
				t.Fatalf("cut %d #%d: RunSteps = %v, %v; StepOne loop = %v, %v", cut, i, fin, err, sfin, serr)
			}
			if got, want := batched.Capture().Encode(), single.Capture().Encode(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d #%d: checkpoint differs at instruction %d vs %d",
					cut, i, batched.M.Stats.Instructions, single.M.Stats.Instructions)
			}
			if fin {
				break
			}
		}
	}
}

// fuzzMechs are the mechanisms the fuzz targets pick from.
var fuzzMechs = []struct {
	mech    guest.Mechanism
	profile *arch.Profile
	strat   func() Strategy
	at      CheckTime
}{
	{guest.MechDesignated, nil, func() Strategy { return &Designated{} }, CheckAtResume},
	{guest.MechRegistered, nil, func() Strategy { return &Registration{} }, CheckAtSuspend},
	{guest.MechEmul, nil, func() Strategy { return NoRecovery{} }, CheckAtSuspend},
	{guest.MechLockB, arch.I860(), func() Strategy { return NoRecovery{} }, CheckAtSuspend},
}

// fuzzBoot builds a two-worker counter under a chaos plan from fuzz
// inputs.
func fuzzBoot(seed uint64, level uint8, quantum uint16, mech uint8, budget uint16) bootFunc {
	m := fuzzMechs[int(mech)%len(fuzzMechs)]
	return func(t testing.TB) (*Kernel, *asm.Program) {
		return boot(t, Config{Profile: m.profile, Strategy: m.strat(), CheckAt: m.at,
			Quantum: uint64(quantum%4096) + 8, MaxCycles: 64*uint64(budget) + uint64(quantum),
			Faults: chaos.NewPlan(seed, float64(level)/255), Watchdog: extend},
			guest.MutexCounterProgram(m.mech, 2, 40))
	}
}

// FuzzKernelRun checks Run against a StepOne loop over random plan
// seeds, intensities, quanta, mechanisms and cycle budgets.
func FuzzKernelRun(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint16(300), uint8(0), uint16(0xFFFF))
	f.Add(uint64(0xBEEF), uint8(255), uint16(37), uint8(1), uint16(0xFFFF))
	f.Add(uint64(7), uint8(0), uint16(5000), uint8(2), uint16(301))
	f.Add(uint64(42), uint8(128), uint16(53), uint8(3), uint16(77))
	f.Fuzz(func(t *testing.T, seed uint64, level uint8, quantum uint16, mech uint8, budget uint16) {
		assertRunMatchesStepOne(t, fuzzBoot(seed, level, quantum, mech, budget))
	})
}

// FuzzStepUpTo checks StepUpTo cuts against a StepOne loop over random
// cut seeds, plan seeds, intensities, quanta, mechanisms and budgets.
func FuzzStepUpTo(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint8(64), uint16(300), uint8(0), uint16(0xFFFF))
	f.Add(uint64(2), uint64(0xBEEF), uint8(255), uint16(37), uint8(1), uint16(0xFFFF))
	f.Add(uint64(3), uint64(7), uint8(0), uint16(5000), uint8(2), uint16(301))
	f.Add(uint64(4), uint64(42), uint8(128), uint16(53), uint8(3), uint16(77))
	f.Fuzz(func(t *testing.T, cuts, seed uint64, level uint8, quantum uint16, mech uint8, budget uint16) {
		assertStepUpToMatchesStepOne(t, fuzzBoot(seed, level, quantum, mech, budget), cuts)
	})
}
